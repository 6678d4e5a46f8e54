import tracemalloc

import numpy as np
import pytest

from paretoproc import spectral
from paretoproc.errors import SpecGridMismatch
from paretoproc.grid import Grid
from paretoproc.rng import make_rng
from paretoproc.spectral import (
    SpectralProfileSpec,
    exact_profile_mean,
    gaussian_bump,
    profile_mean,
    profile_mean_se,
    sample_profile,
    sample_profiles,
)

ALL_KINDS = ["constant", "gaussian_moving_max", "rescaled_positive_field", "bernoulli_pair"]


def grid_for(kind, n=101):
    return Grid.regular(2) if kind == "bernoulli_pair" else Grid.regular(n)


def test_constant_profile_is_identically_omega0():
    spec = SpectralProfileSpec("constant", omega0=1.0)
    p = sample_profiles(spec, Grid.regular(7), 50, make_rng(0, "t"))
    assert np.all(p == 1.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_profiles_nonnegative_with_sup_exactly_omega0(kind):
    spec = SpectralProfileSpec(kind, omega0=2.5)
    p = sample_profiles(spec, grid_for(kind, 31), 500, make_rng(1, kind))
    assert np.all(p >= 0.0)
    assert np.all(p.max(axis=1) == 2.5)


def test_bernoulli_pair_outcomes_and_frequency():
    spec = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
    n = 10_000
    p = sample_profiles(spec, Grid.regular(2), n, make_rng(2, "bp"))
    # every draw is exactly (1, 0) or (0, 1)
    assert np.all((p == 1.0).sum(axis=1) == 1)
    assert np.all((p == 0.0).sum(axis=1) == 1)
    freq = (p[:, 0] == 1.0).mean()
    assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / n)


def test_bernoulli_pair_needs_two_sites():
    spec = SpectralProfileSpec("bernoulli_pair")
    with pytest.raises(SpecGridMismatch):
        sample_profiles(spec, Grid.regular(3), 1, make_rng(0, "x"))


def test_gaussian_moving_max_mean_strictly_positive_everywhere():
    spec = SpectralProfileSpec("gaussian_moving_max", omega0=1.0)
    grid = Grid.regular(101)
    mean = profile_mean(spec, grid, 100_000, make_rng(3, "gmm_mean"))
    assert np.all(mean.values > 0.0)


def test_profile_mean_constant_exact():
    spec = SpectralProfileSpec("constant", omega0=2.0)
    mean = profile_mean(spec, Grid.regular(5), 10, make_rng(0, "m"))
    assert np.all(mean.values == 2.0)


def test_profile_mean_bernoulli_within_three_se():
    spec = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
    for n in (40_000, 250_000):  # one block, and several blocks
        mean = profile_mean(spec, Grid.regular(2), n, make_rng(4, "bp_mean"))
        se = 0.5 / np.sqrt(n)
        assert np.all(np.abs(mean.values - 0.5) <= 3.0 * se)


def test_profile_mean_n1_equals_single_profile():
    spec = SpectralProfileSpec("rescaled_positive_field")
    grid = Grid.regular(11)
    mean = profile_mean(spec, grid, 1, make_rng(5, "one"))
    single = sample_profile(spec, grid, make_rng(5, "one"))
    assert np.array_equal(mean.values, single.values)


def test_sampling_is_reproducible_per_stream():
    spec = SpectralProfileSpec("rescaled_positive_field", corr_length=0.2)
    grid = Grid.regular(21)
    a = sample_profiles(spec, grid, 10, make_rng(9, "s"))
    b = sample_profiles(spec, grid, 10, make_rng(9, "s"))
    assert np.array_equal(a, b)


def test_spec_validation():
    for omega0 in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="omega0"):
            SpectralProfileSpec("constant", omega0=omega0)
    with pytest.raises(ValueError):
        SpectralProfileSpec("gaussian_moving_max", bandwidth=0.0)
    with pytest.raises(ValueError):
        SpectralProfileSpec("no_such_kind")
    for corr_length in (0.0, 1e-170, 1e200):
        with pytest.raises(ValueError, match="corr_length"):
            SpectralProfileSpec("rescaled_positive_field", corr_length=corr_length)


def test_spec_kind_aliases_and_config():
    assert SpectralProfileSpec("ConstantProfile").kind == "constant"
    assert SpectralProfileSpec("GaussianMovingMax").kind == "gaussian_moving_max"
    spec = SpectralProfileSpec("RescaledPositiveField", omega0=2.0, corr_length=0.4)
    assert spec.kind == "rescaled_positive_field"
    assert spec.omega0 == 2.0
    assert spec.corr_length == 0.4


def _tensor_grid_2d():
    # 11 x 7 sites on different ranges, rows shuffled so site order differs
    # from axis order
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 11), np.linspace(-1.0, 2.0, 7), indexing="ij")
    sites = np.column_stack([x.ravel(), y.ravel()])
    return Grid(sites[np.random.default_rng(0).permutation(len(sites))])


@pytest.mark.parametrize("grid, spec", [
    pytest.param(Grid.regular(101), SpectralProfileSpec("gaussian_moving_max", bandwidth=0.03),
                 id="1d_h0.03"),
    pytest.param(Grid.regular(101), SpectralProfileSpec("gaussian_moving_max", bandwidth=0.1),
                 id="1d_h0.1"),
    pytest.param(Grid.regular(101), SpectralProfileSpec("gaussian_moving_max", bandwidth=0.3),
                 id="1d_h0.3"),
    pytest.param(_tensor_grid_2d(),
                 SpectralProfileSpec("gaussian_moving_max", omega0=2.0, bandwidth=0.2),
                 id="2d_tensor"),
])
def test_exact_bump_mean_agrees_with_monte_carlo(grid, spec):
    exact = exact_profile_mean(spec, grid)
    mean, se = profile_mean_se(spec, grid, 100_000, make_rng(6, "exact_mean"))
    assert np.all(se > 0.0)
    assert np.all(np.abs(mean - exact) <= 4.5 * se)


def test_exact_mean_constant_and_bernoulli():
    mean = exact_profile_mean(SpectralProfileSpec("constant", omega0=2.5), Grid.regular(7))
    assert np.array_equal(mean, np.full(7, 2.5))
    bernoulli = SpectralProfileSpec("bernoulli_pair", omega0=3.0)
    assert np.array_equal(exact_profile_mean(bernoulli, Grid.regular(2)), [1.5, 1.5])
    with pytest.raises(SpecGridMismatch):
        exact_profile_mean(bernoulli, Grid.regular(3))


def test_no_exact_mean_without_closed_form():
    scattered = Grid(np.random.default_rng(1).random((12, 2)))
    assert exact_profile_mean(SpectralProfileSpec("gaussian_moving_max"), scattered) is None
    spec = SpectralProfileSpec("rescaled_positive_field")
    assert exact_profile_mean(spec, Grid.regular(11)) is None


def test_cholesky_cache_drops_least_recently_used():
    cache = spectral._sq_exp_cholesky
    maxsize = 4  # the bound: one factor takes 8 MB at 1001 sites
    lengths = [0.11 + 0.01 * i for i in range(maxsize + 1)]

    def draw(corr_length):
        # a fresh grid object per call: the cache is keyed by the grid's sites
        spec = SpectralProfileSpec("rescaled_positive_field", corr_length=corr_length)
        sample_profiles(spec, Grid.regular(5), 1, make_rng(0, "chol"))

    cache.cache_clear()
    for c in lengths[:-1]:
        draw(c)
    draw(lengths[0])  # a hit, and the first entry is now the most recently used
    draw(lengths[-1])  # a miss that drops lengths[1]
    assert cache.cache_info()[:] == (1, maxsize + 1, maxsize, maxsize)
    for c in [lengths[0], *lengths[2:]]:
        draw(c)
    assert cache.cache_info().hits == 1 + maxsize
    draw(lengths[1])
    assert cache.cache_info().misses == maxsize + 2


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("h", [0.1, 0.03])
def test_gaussian_bump_matches_summed_squares_bitwise(dim, h):
    rng = np.random.default_rng(dim)
    sites, centers = rng.random((37, dim)), rng.random((500, dim))
    diff = sites[None, :, :] - centers[:, None, :]
    reference = np.exp(-0.5 * np.sum(diff * diff, axis=-1) / h**2)
    assert np.array_equal(gaussian_bump(sites, centers, h), reference)


def test_gaussian_bump_profiles_allocate_little_beyond_output():
    # the bump is built in its output buffer: no (n, m, d) difference and no
    # second (n, m) temporary
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(101)
    tracemalloc.start()
    try:
        p = sample_profiles(spec, grid, 20_000, make_rng(0, "alloc"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * p.nbytes
