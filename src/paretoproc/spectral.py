"""Spectral profile families.

Each family generates nonnegative random profiles V on a grid with
sup_s V(s) equal to the threshold parameter omega0 exactly (a final exact
rescale by the sampled supremum enforces this) and E V(s) > 0 at every site.
Built-in kinds:

* ``constant``: V identically omega0 (complete dependence).
* ``gaussian_moving_max``: a single Gaussian-density bump with a uniformly
  placed center, rescaled to peak at omega0. The simplest profile with
  nontrivial spatial dependence.
* ``rescaled_positive_field``: an exponentiated stationary Gaussian field
  (squared-exponential covariance, unit variance), rescaled to sup omega0.
  A rougher, strictly positive dependence family.
* ``bernoulli_pair``: on a two-site grid, (omega0, 0) or (0, omega0) with
  probability 1/2 each. Deliberately contains exact zeros so the restricted
  distribution-function formulas see profiles vanishing on part of the grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecGridMismatch
from .grid import Field, Grid

CONSTANT = "constant"
GAUSSIAN_MOVING_MAX = "gaussian_moving_max"
RESCALED_POSITIVE_FIELD = "rescaled_positive_field"
BERNOULLI_PAIR = "bernoulli_pair"

KINDS = (CONSTANT, GAUSSIAN_MOVING_MAX, RESCALED_POSITIVE_FIELD, BERNOULLI_PAIR)
MEAN_BLOCK = 100_000  # profiles drawn at a time: bounds a mean estimate's memory

_ALIASES = {
    "constantprofile": CONSTANT,
    "gaussianmovingmax": GAUSSIAN_MOVING_MAX,
    "rescaledpositivefield": RESCALED_POSITIVE_FIELD,
    "bernoullipair": BERNOULLI_PAIR,
}


def _canonical_kind(kind: str) -> str:
    k = kind.strip().lower().replace("-", "_")
    k = _ALIASES.get(k.replace("_", ""), k)
    if k not in KINDS:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {KINDS}")
    return k


@dataclass(frozen=True)
class SpectralProfileSpec:
    """Named, parameterized generator of the random profile V.

    ``bandwidth`` applies to ``gaussian_moving_max`` (bump width),
    ``corr_length`` to ``rescaled_positive_field`` (covariance length scale).
    """

    kind: str
    omega0: float = 1.0
    bandwidth: float = 0.1
    corr_length: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "kind", _canonical_kind(self.kind))
        if not self.omega0 > 0:
            raise ValueError("omega0 must be positive")
        if self.kind == GAUSSIAN_MOVING_MAX and not self.bandwidth > 0:
            raise ValueError("gaussian_moving_max requires bandwidth > 0")
        if self.kind == RESCALED_POSITIVE_FIELD and not self.corr_length > 0:
            raise ValueError("rescaled_positive_field requires corr_length > 0")

    @classmethod
    def from_config(cls, cfg: dict) -> "SpectralProfileSpec":
        """Build from config keys kind, omega0, bandwidth, corr_length."""
        kwargs = {"kind": cfg["kind"]}
        for key in ("omega0", "bandwidth", "corr_length"):
            if cfg.get(key) is not None:
                kwargs[key] = float(cfg[key])
        return cls(**kwargs)


def _check_grid(spec: SpectralProfileSpec, grid: Grid) -> None:
    if spec.kind == BERNOULLI_PAIR and grid.n_sites != 2:
        raise SpecGridMismatch(
            f"bernoulli_pair needs exactly 2 sites, grid has {grid.n_sites}"
        )


def _rescale_to_omega0(raw: np.ndarray, omega0: float) -> np.ndarray:
    # (x / rowmax) * omega0: the argmax entry becomes exactly omega0 and
    # rounding monotonicity keeps every other entry <= omega0.
    rowmax = raw.max(axis=1, keepdims=True)
    return (raw / rowmax) * omega0


# Cholesky factors of the squared-exponential covariance, keyed by
# (grid fingerprint, corr_length). Grids are immutable so entries never stale.
_CHOL_CACHE: dict[tuple[bytes, float], np.ndarray] = {}


def _sq_exp_cholesky(grid: Grid, corr_length: float) -> np.ndarray:
    key = (grid.key(), float(corr_length))
    chol = _CHOL_CACHE.get(key)
    if chol is None:
        diff = grid.sites[:, None, :] - grid.sites[None, :, :]
        sq_dist = np.sum(diff * diff, axis=-1)
        cov = np.exp(-0.5 * sq_dist / corr_length**2)
        cov[np.diag_indices_from(cov)] += 1e-10  # numerical positive definiteness
        chol = np.linalg.cholesky(cov)
        _CHOL_CACHE[key] = chol
    return chol


def sample_profiles(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n independent profiles as an (n, n_sites) matrix.

    This is the vectorized workhorse behind :func:`sample_profile`; every
    row is nonnegative with maximum exactly ``spec.omega0``.
    """
    _check_grid(spec, grid)
    m = grid.n_sites
    w0 = spec.omega0
    if spec.kind == CONSTANT:
        return np.full((n, m), w0)
    if spec.kind == BERNOULLI_PAIR:
        first = rng.random(n) < 0.5
        out = np.zeros((n, 2))
        out[first, 0] = w0
        out[~first, 1] = w0
        return out
    if spec.kind == GAUSSIAN_MOVING_MAX:
        lo = grid.sites.min(axis=0)
        hi = grid.sites.max(axis=0)
        centers = lo + rng.random((n, grid.dim)) * (hi - lo)
        diff = grid.sites[None, :, :] - centers[:, None, :]
        sq_dist = np.sum(diff * diff, axis=-1)
        raw = np.exp(-0.5 * sq_dist / spec.bandwidth**2)
        return _rescale_to_omega0(raw, w0)
    # rescaled_positive_field
    chol = _sq_exp_cholesky(grid, spec.corr_length)
    z = rng.standard_normal((n, m)) @ chol.T
    # subtract the row max before exponentiating so exp never overflows;
    # the rescale divides it out again
    raw = np.exp(z - z.max(axis=1, keepdims=True))
    return _rescale_to_omega0(raw, w0)


def sample_profile(
    spec: SpectralProfileSpec, grid: Grid, rng: np.random.Generator
) -> Field:
    """One profile draw as a Field; sup equals spec.omega0 exactly."""
    return Field(grid, sample_profiles(spec, grid, 1, rng)[0])


def profile_mean_se(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site Monte Carlo mean of n independent profiles and its standard
    error, drawn ``MEAN_BLOCK`` profiles at a time."""
    total = np.zeros(grid.n_sites)
    total_sq = np.zeros(grid.n_sites)
    for start in range(0, n, MEAN_BLOCK):
        p = sample_profiles(spec, grid, min(MEAN_BLOCK, n - start), rng)
        total += p.sum(axis=0)
        total_sq += (p * p).sum(axis=0)
    mean = total / n
    var = total_sq / n - mean * mean
    return mean, np.sqrt(np.maximum(var, 0.0) / n)


def profile_mean(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> Field:
    """Per-site Monte Carlo mean of n independent profiles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Field(grid, profile_mean_se(spec, grid, n, rng)[0])
