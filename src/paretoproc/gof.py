"""Goodness-of-fit helpers shared by tests, reports and the verification suite."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """One gate: a statistic judged against a threshold, and the verdict.
    ``statistic`` and ``threshold`` are None where the sample had nothing to
    measure, which fails the gate."""

    name: str
    statistic: float | None
    threshold: float | None
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))

    def __str__(self) -> str:
        stat, threshold = (f"{v:.5f}" if v is not None else "null"
                           for v in (self.statistic, self.threshold))
        return f"{self.name}: statistic {stat} vs {threshold} -> {'ok' if self.passed else 'FAIL'}"


# scipy.stats is imported inside the two KS functions: it takes about a
# second to import, and most commands never run a KS test


def standard_pareto_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x > 1.0, 1.0 - 1.0 / np.maximum(x, 1.0), 0.0)


def standard_frechet_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a given cdf."""
    from scipy import stats

    return float(stats.kstest(samples, cdf).statistic)


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value c(alpha)/sqrt(n)
    (about 1.63/sqrt(n) at the 1% level)."""
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))


def two_sample_ks_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS p-value. On tied samples scipy may fall back from the
    exact to the asymptotic p-value; its notice is dropped by a process-wide
    filter, so KS tests run on the main thread only."""
    from scipy import stats

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful",
                                RuntimeWarning)
        return float(stats.ks_2samp(a, b).pvalue)
