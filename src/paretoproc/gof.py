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


# The two KS functions repeat scipy's operations in numpy, so they give its
# bits without its import (about a second and 64 MB). scipy.stats is imported
# inside them only for what they do not repeat: an empty or NaN sample, and a
# two-sample p-value that is not exact for one size n <= EXACT_KS_MAX_N.
EXACT_KS_MAX_N = 10_000  # scipy's largest sample size for an exact two-sample p-value


def standard_pareto_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x > 1.0, 1.0 - 1.0 / np.maximum(x, 1.0), 0.0)


def standard_frechet_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a given cdf: the larger
    of D+ = max(i/n - F(x_(i))) and D- = max(F(x_(i)) - (i-1)/n) over the
    sorted sample, as ``scipy.stats.kstest`` computes it."""
    x = np.asarray(samples)
    if x.ndim == 1 and x.size and not np.isnan(x).any():
        x = np.sort(x if x.dtype.kind == "f" else x.astype(float))
        n, f = x.size, cdf(x)
        d_plus = (np.arange(1.0, n + 1, dtype=x.dtype) / n - f).max()
        d_minus = (f - np.arange(0.0, n, dtype=x.dtype) / n).max()
        return float(d_plus if d_plus > d_minus else d_minus)
    from scipy import stats

    return float(stats.kstest(samples, cdf).statistic)


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value c(alpha)/sqrt(n)
    (about 1.63/sqrt(n) at the 1% level)."""
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))


def two_sample_ks_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided two-sample KS p-value of ``scipy.stats.ks_2samp``. For one size
    n <= EXACT_KS_MAX_N it is the exact Gnedenko-Korolyuk (Hodges 1958)
    alternating sum, in scipy's order. Other sizes, and a sum outside [0, 1]
    (tied samples), go to scipy, which then takes the asymptotic p-value; its
    notice is dropped by a process-wide filter, so call this on the main thread."""
    x, y = np.asarray(a), np.asarray(b)
    n = x.size
    if x.ndim == y.ndim == 1 and 0 < n == y.size <= EXACT_KS_MAX_N and not (
            np.isnan(x).any() or np.isnan(y).any()):
        x, y = np.sort(x), np.sort(y)
        both = np.concatenate([x, y])
        diff = np.searchsorted(x, both, side="right") / n - np.searchsorted(y, both, side="right") / n
        lower, upper = np.clip(-diff.min(), 0, 1), diff.max()
        h = int(np.round((lower if lower > upper else upper) * n))
        if h == 0:
            return 1.0
        # P(D >= h/n) = 2 (A_1 - A_2 + A_3 - ...), A_k = C(2n, n - kh) / C(2n, n)
        p = 0.0
        for k in range(n // h, -1, -1):
            term = 1.0
            for j in range(h):
                term = (n - k * h - j) * term / (n + k * h + j + 1)
            p = term * (1.0 - p)
        if 0.0 <= 2 * p <= 1.0:
            return 2 * p
    from scipy import stats

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful",
                                RuntimeWarning)
        return float(stats.ks_2samp(a, b).pvalue)
