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

import functools
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
EXACT_BLOCK = 1 << 18  # (site, cell) pairs per block of the exact bump mean

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
        if not 0.0 < self.omega0 < np.inf:
            raise ValueError("omega0 must be positive and finite")
        if self.kind == GAUSSIAN_MOVING_MAX and not 0.0 < self.bandwidth * self.bandwidth < np.inf:
            raise ValueError("gaussian_moving_max requires bandwidth > 0 with a finite, nonzero square")
        if self.kind == RESCALED_POSITIVE_FIELD and not 0.0 < self.corr_length * self.corr_length < np.inf:
            raise ValueError("rescaled_positive_field requires corr_length > 0 with a finite, nonzero square")


def _check_grid(spec: SpectralProfileSpec, grid: Grid) -> None:
    if spec.kind == BERNOULLI_PAIR and grid.n_sites != 2:
        raise SpecGridMismatch(
            f"bernoulli_pair needs exactly 2 sites, grid has {grid.n_sites}"
        )
    if spec.kind == GAUSSIAN_MOVING_MAX:
        # the bump's exponent at the site farthest from the center must be finite
        with np.errstate(over="ignore"):
            reach = np.sum(np.ptp(grid.sites, axis=0) ** 2) / spec.bandwidth**2
        if not np.isfinite(reach):
            raise SpecGridMismatch(
                f"bandwidth {spec.bandwidth:g} is too small for the extent of the grid"
            )


def _rescale_to_omega0(raw: np.ndarray, rowmax: np.ndarray, omega0: float) -> np.ndarray:
    # (x / rowmax) * omega0 in place: the argmax entry becomes exactly omega0
    # and rounding monotonicity keeps every other entry <= omega0.
    raw /= rowmax
    raw *= omega0
    return raw


def _bump_exponent(sites: np.ndarray, centers: np.ndarray, h: float) -> np.ndarray:
    """-|s - c|^2 / 2h^2 for every center c (rows) and site s (columns),
    built in one (n, m) buffer: axis squares are added in axis order, the
    same sums as ``np.sum(diff * diff, -1)``."""
    out = np.subtract(sites[:, 0], centers[:, :1])
    out *= out
    for a in range(1, sites.shape[1]):
        sq = np.subtract(sites[:, a], centers[:, a:a + 1])
        sq *= sq
        out += sq
    out *= -0.5
    out /= h**2
    return out


def gaussian_bump(sites: np.ndarray, centers: np.ndarray, h: float) -> np.ndarray:
    """exp(-|s - c|^2 / 2h^2) as an (n, m) matrix for (m, d) sites and (n, d)
    centers; the exponent and its exp share one buffer, which is returned."""
    out = _bump_exponent(sites, centers, h)
    return np.exp(out, out=out)


# Cholesky factors of the squared-exponential covariance, one per (grid,
# corr_length). Grids are immutable so entries never stale; one factor takes
# 8 MB at 1001 sites, so only a few are kept.
@functools.lru_cache(maxsize=4)
def _sq_exp_cholesky(grid: Grid, corr_length: float) -> np.ndarray:
    diff = grid.sites[:, None, :] - grid.sites[None, :, :]
    sq_dist = np.sum(diff * diff, axis=-1)
    cov = np.exp(-0.5 * sq_dist / corr_length**2)
    cov[np.diag_indices_from(cov)] += 1e-10  # numerical positive definiteness
    return np.linalg.cholesky(cov)


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
        raw = gaussian_bump(grid.sites, centers, spec.bandwidth)
        rowmax = raw.max(axis=1, keepdims=True)
        # a bump much narrower than the site spacing can underflow at every
        # site; those rows alone are shifted by their largest exponent
        low = rowmax[:, 0] < np.finfo(float).tiny
        if low.any():
            e = _bump_exponent(grid.sites, centers[low], spec.bandwidth)
            raw[low] = np.exp(e - e.max(axis=1, keepdims=True))
            rowmax[low] = 1.0
        return _rescale_to_omega0(raw, rowmax, w0)
    # rescaled_positive_field
    chol = _sq_exp_cholesky(grid, spec.corr_length)
    z = rng.standard_normal((n, m)) @ chol.T
    # subtract the row max before exponentiating so exp never overflows;
    # the rescale divides it out again
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    return _rescale_to_omega0(z, z.max(axis=1, keepdims=True), w0)


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


def _bump_axis_mean(x: np.ndarray, h: float) -> np.ndarray:
    """E exp(-((x - c)^2 - (k - c)^2) / 2h^2) at each coordinate of ``x``,
    for c uniform on [min x, max x] and k the coordinate nearest c.

    Over the cell of coordinate k the exponent is linear in c with slope
    a = (x - k) / h^2 and at most 0, so each cell integral is
    exp(e_max) * (1 - exp(-|a| * cell length)) / |a|, or the cell length
    when x = k; no positive number is exponentiated."""
    u, inverse = np.unique(x, return_inverse=True)
    if u.size == 1:
        return np.ones(x.size)
    edges = np.concatenate(([u[0]], (u[:-1] + u[1:]) / 2, [u[-1]]))
    c0, c1, length = edges[:-1], edges[1:], np.diff(edges)
    total = np.empty(u.size)
    rows = max(1, EXACT_BLOCK // u.size)
    for start in range(0, u.size, rows):
        s = u[start:start + rows, None]
        d = s - u
        e0 = -d * (s + u - 2.0 * c0) / (2.0 * h * h)
        e1 = -d * (s + u - 2.0 * c1) / (2.0 * h * h)
        slope = np.abs(d) / (h * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            cell = (np.exp(np.minimum(np.maximum(e0, e1), 0.0))
                    * -np.expm1(-slope * length) / slope)
        total[start:start + rows] = np.where(d == 0.0, length, cell).sum(axis=1)
    return (total / (u[-1] - u[0]))[inverse]


def exact_profile_mean(spec: SpectralProfileSpec, grid: Grid) -> np.ndarray | None:
    """E V(s) at every site in closed form, or None where there is none.

    ``constant`` has mean omega0 and ``bernoulli_pair`` omega0 / 2. For
    ``gaussian_moving_max`` on a tensor grid (every combination of the axis
    coordinates is a site) both the bump and its nearest site factorize by
    axis, and the center's coordinates are independent, so the mean is
    omega0 times the product of per-axis means. ``rescaled_positive_field``
    and scattered multi-dimensional grids have no closed form here."""
    _check_grid(spec, grid)
    if spec.kind == CONSTANT:
        return np.full(grid.n_sites, spec.omega0)
    if spec.kind == BERNOULLI_PAIR:
        return np.full(2, spec.omega0 / 2.0)
    if spec.kind != GAUSSIAN_MOVING_MAX:
        return None
    axes = grid.sites.T
    if np.prod([np.unique(x).size for x in axes]) != grid.n_sites:
        return None
    mean = np.full(grid.n_sites, spec.omega0)
    for x in axes:
        mean *= _bump_axis_mean(x, spec.bandwidth)
    return mean
