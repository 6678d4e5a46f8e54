"""Spectral profile families.

Each family generates nonnegative random profiles V on a grid with
sup_s V(s) = omega0 exactly (the exponential families shift the log-profile
by its row max, then exponentiate) and E V(s) > 0 at every site.
Built-in kinds:

* ``constant``: V identically omega0 (complete dependence).
* ``gaussian_moving_max``: a single Gaussian-density bump with a uniformly
  placed center, rescaled to peak at omega0. The simplest profile with
  nontrivial spatial dependence.
* ``rescaled_positive_field``: an exponentiated stationary Gaussian field
  (squared-exponential covariance, unit variance), rescaled to sup omega0.
  A rougher, strictly positive dependence family. The field is a low-rank
  factor F = U sqrt(lambda) of the covariance applied to standard normals,
  keeping the eigenvalues above ``EIG_TOL`` (1e-10) times the largest. On a
  tensor grid the covariance is the Kronecker product of the per-axis
  covariances, so there is one small factor per axis and no (m, m) array;
  a scattered grid has one factor over all its sites. Factors are cached
  per (grid, corr_length), at most four at a time.
* ``bernoulli_pair``: on a two-site grid, (omega0, 0) or (0, omega0) with
  probability 1/2 each. Deliberately contains exact zeros so the restricted
  distribution-function formulas see profiles vanishing on part of the grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecGridMismatch
from .grid import Field, Grid

CONSTANT = "constant"
GAUSSIAN_MOVING_MAX = "gaussian_moving_max"
RESCALED_POSITIVE_FIELD = "rescaled_positive_field"
BERNOULLI_PAIR = "bernoulli_pair"

KINDS = (CONSTANT, GAUSSIAN_MOVING_MAX, RESCALED_POSITIVE_FIELD, BERNOULLI_PAIR)
BLOCK_CELLS = 1 << 16  # array cells of a blocked profile draw or exact-mean block: 512 KiB
EIG_TOL = 1e-10  # covariance eigenvalues kept, relative to the largest
# a Pareto radius is at most 2^53, so W = Y V stays finite up to this sup V
OMEGA0_MAX = np.finfo(float).max / 2**53
OMEGA0_MIN = np.finfo(float).tiny  # a subnormal sup V loses precision, and 1 / V overflows

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
        if not OMEGA0_MIN <= self.omega0 <= OMEGA0_MAX:
            raise ValueError(f"omega0 must be at least {OMEGA0_MIN:.4g} and at most {OMEGA0_MAX:.4g}")
        for kind, key in ((GAUSSIAN_MOVING_MAX, "bandwidth"), (RESCALED_POSITIVE_FIELD, "corr_length")):
            h = getattr(self, key)
            if self.kind == kind and not (0.0 < h and 0.0 < h * h < np.inf):
                raise ValueError(f"{kind} requires {key} > 0 with a finite, nonzero square")


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


def _tensor_axes(grid: Grid) -> tuple[list[np.ndarray], np.ndarray] | None:
    """Per-axis sorted unique coordinates and each site's C-order index into
    their product, or None when the grid is not a tensor grid (some
    combination of the axis coordinates is not a site)."""
    axes, index = zip(*(np.unique(x, return_inverse=True) for x in grid.sites.T))
    shape = [u.size for u in axes]
    if math.prod(shape) != grid.n_sites:
        return None
    return list(axes), np.ravel_multi_index(index, shape)


# Low-rank factors F (F F^T ~ covariance) of the squared-exponential
# covariance, one per (grid, corr_length). Grids are immutable so entries
# never stale; a scattered grid's factor can be large, so only a few are kept.
@functools.lru_cache(maxsize=4)
def _sq_exp_factor(grid: Grid, corr_length: float) -> np.ndarray:
    """U sqrt(lambda) over the eigenvalues above EIG_TOL times the largest:
    at corr_length 0.3 an axis keeps 12 columns whether it has 51 or 1001
    sites. Read-only, since every caller shares it."""
    lam, u = np.linalg.eigh(gaussian_bump(grid.sites, grid.sites, corr_length))
    keep = lam > EIG_TOL * lam[-1]
    factor = u[:, keep] * np.sqrt(lam[keep])
    factor.setflags(write=False)
    return factor


# Per-(spec, grid) set-up of sample_profiles, done once: the grid check, the
# bump's center box, and the tensor split of rescaled_positive_field. The
# factors themselves stay in _sq_exp_factor's cache.
@functools.lru_cache(maxsize=16)
def _draw_setup(spec: SpectralProfileSpec, grid: Grid):
    """``(lo, hi - lo)`` of the sites for ``gaussian_moving_max``; for
    ``rescaled_positive_field`` the grids that carry one factor each (the axes
    longer than one coordinate, or the whole scattered grid) and the column
    order from their product to the sites, None when it is the identity."""
    _check_grid(spec, grid)
    if spec.kind == GAUSSIAN_MOVING_MAX:
        lo = grid.sites.min(axis=0)
        return _read_only(lo), _read_only(grid.sites.max(axis=0) - lo)
    if spec.kind != RESCALED_POSITIVE_FIELD:
        return None
    tensor = _tensor_axes(grid)
    if tensor is None:  # scattered sites: one factor over all of them
        return (grid,), None
    axes, flat = tensor
    parts = tuple(Grid(u) for u in axes if u.size > 1)
    return parts, None if np.array_equal(flat, np.arange(grid.n_sites)) else _read_only(flat)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # cached, so shared by every later call
    return a


def prepare_draws(spec: SpectralProfileSpec, grid: Grid):
    """The set-up of ``sample_profiles`` for (spec, grid), the factors of
    ``rescaled_positive_field`` in place of their grids. A call fills both
    caches, so draws that run concurrently afterwards only read them."""
    setup = _draw_setup(spec, grid)
    if spec.kind != RESCALED_POSITIVE_FIELD:
        return setup
    parts, flat = setup
    return [_sq_exp_factor(g, spec.corr_length) for g in parts], flat


def sample_profiles(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n independent profiles as an (n, n_sites) matrix.

    This is the vectorized workhorse behind :func:`sample_profile`; every
    row is nonnegative with maximum exactly ``spec.omega0``.
    """
    setup = prepare_draws(spec, grid)
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
        lo, span = setup
        centers = lo + rng.random((n, grid.dim)) * span
        z = _bump_exponent(grid.sites, centers, spec.bandwidth)
    else:
        # rescaled_positive_field: the covariance is the Kronecker product of
        # the per-axis covariances on a tensor grid, so one normal per
        # rank-product cell is mapped to the sites one axis factor at a time
        factors, flat = setup
        z = rng.standard_normal((n, *(f.shape[1] for f in factors)))
        for f in factors:  # contract the first rank axis, append its site axis
            z = np.tensordot(z, f, axes=(1, 1))
        z = z.reshape(n, m)
        if flat is not None:
            z = z[:, flat]
    # z is the log-profile, finite (_check_grid bounds the bump's exponent):
    # shifted by its row max, every row peaks at exp(0) = 1 exactly
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z *= w0
    return z


def row_blocks(n: int, m: int):
    """``(start, rows)`` of consecutive blocks of n draws on m sites, as many
    rows as fit in ``BLOCK_CELLS`` cells (at least two). A one-row tail joins
    the block before it: BLAS would map a lone row through its matrix-vector
    path, which rounds differently."""
    rows = max(2, BLOCK_CELLS // m)
    start = 0
    while start < n:
        k = n - start if n - start <= rows + 1 else rows
        yield start, k
        start += k


def profile_blocks(spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator):
    """n profiles as ``(start, block)`` pairs: ``sample_profiles`` draws in
    the ``row_blocks`` of n, and each block's first row.

    The blocks draw the stream of the one-shot ``sample_profiles(spec, grid,
    n, rng)`` and, concatenated, equal it bitwise, except where BLAS rounds
    ``rescaled_positive_field``'s factor products by the size of the draw
    (from about 200 sites, where one-shot draws of two sizes disagree too)."""
    for start, k in row_blocks(n, grid.n_sites):
        yield start, sample_profiles(spec, grid, k, rng)


def per_draw_blocks(spec: SpectralProfileSpec, grid: Grid, n: int,
                    rng: np.random.Generator, per_draw) -> tuple[np.ndarray, bool]:
    """``per_draw(profiles) -> (values, has_mass)`` over n profiles drawn in
    ``profile_blocks``: the values of all n draws, and whether any block had mass."""
    values = np.empty(n)  # allocated first: a count too large fails before any draw
    mass = False
    for start, v in profile_blocks(spec, grid, n, rng):
        values[start:start + v.shape[0]], has_mass = per_draw(v)
        mass = mass or has_mass
    return values, mass


def sample_profile(
    spec: SpectralProfileSpec, grid: Grid, rng: np.random.Generator
) -> Field:
    """One profile draw as a Field; sup equals spec.omega0 exactly."""
    return Field(grid, sample_profiles(spec, grid, 1, rng)[0])


def profile_mean_se(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site Monte Carlo mean of n independent profiles and its standard
    error, drawn in ``profile_blocks``. The moments are summed for V / omega0,
    whose square cannot overflow, and scaled back."""
    total = np.zeros(grid.n_sites)
    total_sq = np.zeros(grid.n_sites)
    for _, p in profile_blocks(spec, grid, n, rng):
        p /= spec.omega0
        total += p.sum(axis=0)
        total_sq += (p * p).sum(axis=0)
    mean = total / n
    var = total_sq / n - mean * mean
    return mean * spec.omega0, np.sqrt(np.maximum(var, 0.0) / n) * spec.omega0


def profile_mean(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> Field:
    """Per-site Monte Carlo mean of n independent profiles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Field(grid, profile_mean_se(spec, grid, n, rng)[0])


def _bump_axis_mean(u: np.ndarray, h: float) -> np.ndarray:
    """E exp(-((x - c)^2 - (k - c)^2) / 2h^2) at each x of the sorted unique
    coordinates ``u``, for c uniform on [u[0], u[-1]] and k the coordinate
    nearest c.

    Over the cell of coordinate k the exponent is linear in c with slope
    a = (x - k) / h^2 and at most 0, so each cell integral is
    exp(e_max) * (1 - exp(-|a| * cell length)) / |a|, or the cell length
    when x = k; no positive number is exponentiated."""
    if u.size == 1:
        return np.ones(1)
    edges = np.concatenate(([u[0]], (u[:-1] + u[1:]) / 2, [u[-1]]))
    c0, c1, length = edges[:-1], edges[1:], np.diff(edges)
    total = np.empty(u.size)
    for start, rows in row_blocks(u.size, u.size):
        s = u[start:start + rows, None]
        d = s - u
        e0 = -d * (s + u - 2.0 * c0) / (2.0 * h * h)
        e1 = -d * (s + u - 2.0 * c1) / (2.0 * h * h)
        slope = np.abs(d) / (h * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            cell = (np.exp(np.minimum(np.maximum(e0, e1), 0.0))
                    * -np.expm1(-slope * length) / slope)
        total[start:start + rows] = np.where(d == 0.0, length, cell).sum(axis=1)
    return total / (u[-1] - u[0])


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
    tensor = _tensor_axes(grid)
    if tensor is None:
        return None
    axes, flat = tensor
    mean = np.float64(spec.omega0)
    for u in axes:
        mean = np.multiply.outer(mean, _bump_axis_mean(u, spec.bandwidth))
    return mean.ravel()[flat]
