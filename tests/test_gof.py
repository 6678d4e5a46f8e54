"""The numpy KS tests in ``gof`` against ``scipy.stats``, bit for bit."""
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import stats

from paretoproc.gof import (
    EXACT_KS_MAX_N,
    ks_statistic,
    standard_frechet_cdf,
    standard_pareto_cdf,
    two_sample_ks_pvalue,
)

# 1 and 74 are the smallest sizes the package tests; the rest sit on both
# sides of the switch from the exact to the asymptotic two-sample p-value
SIZES = st.one_of(st.sampled_from([1, 74, 9_999, EXACT_KS_MAX_N, EXACT_KS_MAX_N + 1]),
                  st.integers(1, 400))


def _sample(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """n standard Frechet draws; ``rounded`` ties them on a 0.1 grid,
    ``two_valued`` gives the 0-or-1 angles of ``bernoulli_pair``, ``nan``
    puts one NaN among them."""
    x = 1.0 / rng.standard_exponential(n)
    if kind == "rounded":
        x = np.round(x, 1)
    elif kind == "two_valued":
        x = (rng.random(n) < 0.5).astype(float)
    elif kind == "nan":
        x[rng.integers(n)] = np.nan
    return x


def _same(ours: float, scipys) -> bool:
    # bitwise, with a NaN equal to a NaN
    scipys = float(scipys)
    return ours == scipys or (np.isnan(ours) and np.isnan(scipys))


def _scipy_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful",
                                RuntimeWarning)
        return stats.ks_2samp(a, b).pvalue


KINDS = st.sampled_from(["continuous", "rounded", "two_valued", "nan"])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=SIZES, kind=KINDS)
def test_ks_statistic_is_scipys_bitwise(seed, n, kind):
    x = _sample(np.random.default_rng(seed), n, kind)
    for cdf in (standard_frechet_cdf, standard_pareto_cdf):
        assert _same(ks_statistic(x, cdf), stats.kstest(x, cdf).statistic)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=SIZES, other=st.none() | SIZES,
       kinds=st.tuples(KINDS, KINDS))
def test_two_sample_ks_pvalue_is_scipys_bitwise(seed, n, other, kinds):
    # other None: equal sizes, the exact path; another size mostly takes scipy's
    # fallback, whose warning would fail here: the suite makes RuntimeWarnings errors
    rng = np.random.default_rng(seed)
    a, b = _sample(rng, n, kinds[0]), _sample(rng, n if other is None else other, kinds[1])
    assert _same(two_sample_ks_pvalue(a, b), _scipy_pvalue(a, b))

