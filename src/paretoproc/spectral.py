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
  a scattered grid has one factor over all its sites. A draw's finished
  set-up, factors included, is cached per (spec, grid) in ``draw_setup``,
  at most four at a time.
* ``bernoulli_pair``: on a two-site grid, (omega0, 0) or (0, omega0) with
  probability 1/2 each. Deliberately contains exact zeros so the
  distribution-function formulas see profiles vanishing on part of the grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecGridMismatch
from .grid import Field, Grid, _read_only, check_count

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


def _bump_reaches(grid: Grid, h: float) -> bool:
    """Whether a bump of width h centered in the grid's box has a finite exponent at every site."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.sum(np.ptp(grid.sites, axis=0) ** 2) / h**2))


def _check_grid(spec: SpectralProfileSpec, grid: Grid) -> None:
    if spec.kind == BERNOULLI_PAIR and grid.n_sites != 2:
        raise SpecGridMismatch(f"bernoulli_pair needs exactly 2 sites, grid has {grid.n_sites}")
    if spec.kind == GAUSSIAN_MOVING_MAX and not _bump_reaches(grid, spec.bandwidth):
        raise SpecGridMismatch(f"bandwidth {spec.bandwidth:g} is too small for the extent of the grid")


def _bump_exponent(sites: np.ndarray, centers: np.ndarray, h: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """-|s - c|^2 / 2h^2 for every center c (rows) and site s (columns),
    built in one (n, m) buffer (``out`` if given): axis squares are added in
    axis order, the same sums as ``np.sum(diff * diff, -1)``. The two point
    sets are interchangeable: swapped, the result is the transpose, bit for bit,
    so a site-major ``out`` is built as its transpose."""
    if out is not None and not out.flags.c_contiguous:
        _bump_exponent(centers, sites, h, out.T)
        return out
    out = np.subtract(sites[:, 0], centers[:, :1], out=out)
    out *= out
    for a in range(1, sites.shape[1]):
        sq = np.subtract(sites[:, a], centers[:, a:a + 1])
        sq *= sq
        out += sq
    out /= -2.0 * h**2
    return out


def gaussian_bump(sites: np.ndarray, centers: np.ndarray, h: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """exp(-|s - c|^2 / 2h^2) as an (n, m) matrix for (m, d) sites and (n, d)
    centers; the exponent and its exp share one buffer (``out`` if given, in
    either layout), which is returned."""
    out = _bump_exponent(sites, centers, h, out)
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


def _sq_exp_factor(grid: Grid, corr_length: float) -> np.ndarray:
    """U sqrt(lambda) of the squared-exponential covariance (F F^T ~ covariance) over
    the eigenvalues above EIG_TOL times the largest: at corr_length 0.3 an axis keeps
    12 columns whether it has 51 or 1001 sites. Read-only, since every draw shares it."""
    lam, u = np.linalg.eigh(gaussian_bump(grid.sites, grid.sites, corr_length))
    keep = lam > EIG_TOL * lam[-1]
    return _read_only(u[:, keep] * np.sqrt(lam[keep]))


# The finished set-up of sample_profiles per (spec, grid). Grids are immutable so
# entries never stale; a scattered grid's factor can take megabytes, so only a few
# are kept. A call fills it, so draws that run concurrently afterwards only read it.
@functools.lru_cache(maxsize=4)
def draw_setup(spec: SpectralProfileSpec, grid: Grid):
    """The grid check, then ``(lo, hi - lo)`` of the sites for ``gaussian_moving_max``;
    for ``rescaled_positive_field`` one factor per axis longer than one coordinate (or
    one over a scattered grid) and the column order from their product to the sites,
    None when it is the identity; None for the other kinds."""
    _check_grid(spec, grid)
    if spec.kind == GAUSSIAN_MOVING_MAX:
        lo = grid.sites.min(axis=0)
        return _read_only(lo), _read_only(grid.sites.max(axis=0) - lo)
    if spec.kind != RESCALED_POSITIVE_FIELD:
        return None
    tensor = _tensor_axes(grid)
    if tensor is None:  # scattered sites: one factor over all of them
        return (_sq_exp_factor(grid, spec.corr_length),), None
    axes, flat = tensor
    factors = tuple(_sq_exp_factor(Grid(u), spec.corr_length) for u in axes if u.size > 1)
    return factors, None if np.array_equal(flat, np.arange(grid.n_sites)) else _read_only(flat)


def _empty(n: int, m: int) -> np.ndarray:
    """An uninitialized (n, m) draw, laid out by the grid alone: site-major ((m, n) in memory)
    up to 256 sites, where each full ``row_blocks`` block holds at least m rows, else row-major."""
    return np.empty((m, n)).T if m * m <= BLOCK_CELLS else np.empty((n, m))


def _field_block(normals: np.ndarray, factors, out: np.ndarray) -> None:
    """The field of (k, rank_1, ..., rank_d) normals written into ``out``, (k, m) in the
    factors' axis order, in out's layout: rank axes 1..d-1 go to sites with the draws last
    (site-major) or first, the last product writes out (``F @ normals.T`` or ``normals @ F.T``)."""
    site_major = not out.flags.c_contiguous
    x, lead = (np.moveaxis(normals, 0, -1), 0) if site_major else (normals, 1)
    for a, f in enumerate(factors[:-1], start=lead):  # rank axis a to its sites
        y = np.matmul(f, x.reshape(math.prod(x.shape[:a]), f.shape[1], -1))
        x = y.reshape(*x.shape[:a], f.shape[0], *x.shape[a + 1:])
    f = factors[-1]
    if site_major:
        k = x.shape[-1]
        np.matmul(f, x.reshape(-1, f.shape[1], k), out=out.T.reshape(-1, f.shape[0], k))
    else:
        np.matmul(x.reshape(-1, f.shape[1]), f.T, out=out.reshape(-1, f.shape[0]))


def _pack(z: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows of the draw z that ``keep`` marks, packed in order to the front of z's
    buffer in its layout. An eighth of the kept rows (row-major) or of the sites
    (site-major) is copied at a time, to where no unread value lies."""
    idx = np.flatnonzero(keep)
    k, m = idx.size, z.shape[1]
    if z.flags.c_contiguous:
        packed = z[:k]
        for j in range(0, k, step := max(1, -(-k // 8))):
            packed[j:j + step] = z[idx[j:j + step]]
        return packed
    sites, out = z.T, z.T.reshape(-1)[:m * k].reshape(m, k)  # (m, n) read, (m, k) written
    for s in range(0, m, step := -(-m // 8)):
        out[s:s + step] = sites[s:s + step, idx]
    return out.T


def sample_profiles(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """n independent profiles as an (n, n_sites) matrix.

    This is the vectorized workhorse behind :func:`sample_profile`; every
    row is nonnegative with maximum exactly ``spec.omega0``. The shape is the
    contract; the memory order, which ``_empty`` sets by the grid alone, is not.

    ``keep``, a boolean mask of the n draws, returns only the rows it marks, in
    order, bitwise those of the unmasked draw: the randomness of all n is drawn, so
    the stream is unchanged, and only kept rows are evaluated.
    ``rescaled_positive_field`` contracts every block that holds a kept row as the
    unmasked draw does, so BLAS sees the same blocks, and packs the kept rows
    (``_pack``) before the row max, exp and scale.
    """
    check_count(n)
    if keep is not None and (np.shape(keep) != (n,) or np.asarray(keep).dtype != bool):
        raise ValueError(f"keep must be a boolean mask of the {n} draws")
    setup = draw_setup(spec, grid)
    m = grid.n_sites
    w0 = spec.omega0
    rows = n if keep is None else int(np.count_nonzero(keep))
    # rescaled_positive_field contracts whole blocks of the n draws, the others build the kept rows
    z = _empty(n if spec.kind == RESCALED_POSITIVE_FIELD else rows, m)
    if spec.kind == CONSTANT:
        z[...] = w0
        return z
    if spec.kind == BERNOULLI_PAIR:
        first = rng.random(n) < 0.5
        first = first if keep is None else first[keep]
        z[...] = 0.0
        z[first, 0] = w0
        z[~first, 1] = w0
        return z
    if spec.kind == GAUSSIAN_MOVING_MAX:
        lo, span = setup
        centers = lo + rng.random((n, grid.dim)) * span
        _bump_exponent(grid.sites, centers if keep is None else centers[keep], spec.bandwidth, z)
    else:
        # rescaled_positive_field: the covariance is the Kronecker product of the
        # per-axis covariances on a tensor grid, so one normal per rank-product cell
        # is mapped to the sites one axis factor at a time. Each row block is
        # contracted in z, laid out as when drawn alone, so BLAS rounds both alike; a
        # grid whose sites are not in the axes' C order is contracted aside, reordered in
        factors, flat = setup
        normals = rng.standard_normal((n, *(f.shape[1] for f in factors)))
        for start, k in row_blocks(n, m):
            if keep is not None and not keep[start:start + k].any():
                continue  # no row of this block is read
            block = z[start:start + k]
            dest = block if flat is None else _empty(k, m)
            _field_block(normals[start:start + k], factors, dest)
            if flat is not None:
                block[...] = dest[:, flat]
        if keep is not None:
            z = _pack(z, keep)
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
    path, which rounds differently. Drawn by ``sample_profiles`` one block at a
    time, the blocks on a grid of m sites take the stream of the one-shot draw of
    n and concatenate to it bitwise: the one-shot draw hands BLAS the same blocks
    in the same orientation."""
    rows = max(2, BLOCK_CELLS // m)
    start = 0
    while start < n:
        k = n - start if n - start <= rows + 1 else rows
        yield start, k
        start += k


def per_draw_blocks(spec: SpectralProfileSpec, grid: Grid, n: int,
                    rng: np.random.Generator, per_draw, keep: np.ndarray | None = None) -> np.ndarray:
    """What ``per_draw(rows, v)`` keeps of n profiles drawn in ``row_blocks``,
    in row order: ``rows`` is a block's slice of the n draws, ``v`` its fresh profiles
    (``per_draw`` may overwrite them); it keeps at most one float or fixed-width row a draw.
    With ``keep``, a boolean mask of the n draws, every block is drawn but only its
    kept profiles are evaluated (``sample_profiles``), and ``rows`` holds their indices."""
    total = n if keep is None else int(np.count_nonzero(keep))
    out, filled = np.empty(total), 0  # allocated first: a count too large fails before any draw
    for start, k in row_blocks(n, grid.n_sites):
        mask = None if keep is None else keep[start:start + k]
        rows = slice(start, start + k) if mask is None else start + np.flatnonzero(mask)
        kept = per_draw(rows, sample_profiles(spec, grid, k, rng, mask))
        if kept.ndim > out.ndim:  # a row a draw: sized at the first block
            out = np.empty((total, kept.shape[1]))
        out[filled:filled + len(kept)] = kept
        filled += len(kept)
    return out[:filled]


def sample_profile(
    spec: SpectralProfileSpec, grid: Grid, rng: np.random.Generator
) -> Field:
    """One profile draw as a Field; sup equals spec.omega0 exactly."""
    return Field(grid, sample_profiles(spec, grid, 1, rng)[0])


def profile_mean_se(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site Monte Carlo mean of n independent profiles and its standard
    error, drawn in ``row_blocks``. The moments are summed for V / omega0,
    whose square cannot overflow, and scaled back. Each block is divided into one
    reused row-major buffer, whose sums add draw by draw (a site-major block's would
    add pairwise): that order fixes the Monte Carlo mean field's bits."""
    total, total_sq, buf = np.zeros(grid.n_sites), np.zeros(grid.n_sites), np.empty(0)
    for _, k in row_blocks(n, grid.n_sites):
        p = sample_profiles(spec, grid, k, rng)
        buf = buf if buf.size >= p.size else np.empty(p.size)
        p = np.divide(p, spec.omega0, out=buf[:p.size].reshape(p.shape))
        total += p.sum(axis=0)
        total_sq += np.multiply(p, p, out=p).sum(axis=0)
    mean = total / n
    var = total_sq / n - mean * mean
    return mean * spec.omega0, np.sqrt(np.maximum(var, 0.0) / n) * spec.omega0


def profile_mean(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> Field:
    """Per-site Monte Carlo mean of n independent profiles."""
    check_count(n, "n", 1)
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
