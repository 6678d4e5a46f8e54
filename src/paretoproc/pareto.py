"""Simple Pareto processes W = Y * V on a grid.

Y is a standard Pareto radius (df 1 - 1/y on y > 1, drawn by inverse CDF),
V an independent spectral profile with sup V = omega0. The same construction
on a d-point grid yields the d-dimensional simple Pareto random vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecGridMismatch, ZeroField
from .grid import Field, Grid, check_count, sup_field, write_csv_table
from .rng import fill_rows
from .spectral import BERNOULLI_PAIR, SpectralProfileSpec, per_draw_blocks, row_blocks, sample_profiles

STABILITY = "stability"
REJECTION = "rejection"


@dataclass(frozen=True)
class SimpleParetoSample:
    """One realization W = y * v with its spectral decomposition attached."""

    w: Field
    y: float
    v: Field
    omega0: float

    def __post_init__(self):
        if not self.y >= 1.0:
            raise ValueError("Pareto radius y must be >= 1")


def sample_radii(n: int, rng: np.random.Generator) -> np.ndarray:
    """n standard Pareto radii by inverse CDF (one uniform each, exact)."""
    check_count(n)
    return 1.0 / (1.0 - rng.random(n))


def sample_simple_pareto_batch(
    spec: SpectralProfileSpec, grid: Grid, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n draws as raw arrays (y: (n,), v: (n, m), w: (n, m))."""
    y = sample_radii(n, rng)
    v = sample_profiles(spec, grid, n, rng)
    return y, v, y[:, None] * v


def per_field_blocks(spec: SpectralProfileSpec, grid: Grid, n: int,
                     rng: np.random.Generator, per_field, keep=None) -> np.ndarray:
    """What ``per_field(w)`` keeps of n draws W = Y V: all n radii, then the blocks
    of ``per_draw_blocks`` scaled in place, on ``sample_simple_pareto_batch``'s stream.
    ``keep(y)``, given the radii, masks the draws that are evaluated; the profiles of
    the others are drawn all the same and go unevaluated, up to the end of the
    ``row_blocks`` block of the last kept draw. No profile after it is drawn (none
    when nothing is kept), so rng then stands there, not after all n draws: a caller
    that passes ``keep`` reads no more of it."""
    y = sample_radii(n, rng)
    mask = None if keep is None else keep(y)
    if mask is not None:  # row_blocks of the shorter n are a prefix of those of n
        n = max((start + k for start, k in row_blocks(n, grid.n_sites)
                 if mask[start:start + k].any()), default=0)
        mask = mask[:n]
    return per_draw_blocks(spec, grid, n, rng,
                           lambda rows, v: per_field(np.multiply(v, y[rows, None], out=v)), mask)


def sample_simple_pareto(
    spec: SpectralProfileSpec, grid: Grid, rng: np.random.Generator
) -> SimpleParetoSample:
    y, v, w = sample_simple_pareto_batch(spec, grid, 1, rng)
    return SimpleParetoSample(Field(grid, w[0]), float(y[0]), Field(grid, v[0]), spec.omega0)


def decompose(w: Field, omega0: float) -> tuple[float, Field]:
    """Split a nonnegative field into radius y = sup w / omega0 and angle
    v = omega0 * w / sup w (omega0 > 0); y * v reproduces w up to rounding."""
    if not 0.0 < omega0 < np.inf:
        raise ValueError("omega0 must be positive and finite")
    if not np.all(w.values >= 0):
        raise ValueError("w must be nonnegative")
    top = sup_field(w).value
    if top == 0.0:
        raise ZeroField("cannot decompose an identically-zero field")
    return top / omega0, Field(w.grid, (w.values / top) * omega0)


def recombine(y: float, v: Field) -> Field:
    return Field(v.grid, y * v.values)


def _check_level(r: float, n: int) -> None:
    if not 1 < r < np.inf:
        raise ValueError("r must be > 1 and finite")
    check_count(n)


def pot_conditional_batch(
    spec: SpectralProfileSpec,
    grid: Grid,
    r: float,
    n: int,
    rng: np.random.Generator,
    method: str = STABILITY,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n draws of W conditional on sup W > r * omega0, as raw arrays.

    ``stability`` multiplies unconditional radii by r (peaks-over-threshold
    invariance makes this exact); ``rejection`` is ``pot_rejection_blocks``
    keeping whole profiles. Both are exposed so the equality of the two
    conditional laws can be tested rather than assumed.
    """
    if method == REJECTION:
        y, v = pot_rejection_blocks(spec, grid, r, n, rng, lambda v: v)
        return y, v, y[:, None] * v
    _check_level(r, n)
    if method != STABILITY:
        raise ValueError(f"unknown method {method!r}")
    y = r * sample_radii(n, rng)
    v = sample_profiles(spec, grid, n, rng)
    return y, v, y[:, None] * v


def pot_rejection_blocks(spec: SpectralProfileSpec, grid: Grid, r: float, n: int,
                         rng: np.random.Generator, per_draw) -> tuple[np.ndarray, np.ndarray]:
    """Radii of n draws of W conditional on sup W > r * omega0 by rejection, and
    what ``per_draw(v)`` keeps of their profiles: unconditional candidates, radii
    first, then every profile block drawn and only the exceedances' profiles
    evaluated and reduced (one float or fixed-width row a draw)."""
    _check_level(r, n)

    def draw(size):
        y = sample_radii(size, rng)
        keep = y > r
        return y[keep], per_draw_blocks(spec, grid, size, rng, lambda _, v: per_draw(v), keep)

    if not n:
        return np.empty(0), per_draw(np.empty((0, grid.n_sites)))
    # r is the acceptance odds; oversample to keep the loop short
    return fill_rows(n, lambda remaining: max(1024, int(1.2 * remaining * r)), draw)


def pot_conditional_sample(
    spec: SpectralProfileSpec,
    grid: Grid,
    r: float,
    n: int,
    rng: np.random.Generator,
    method: str = STABILITY,
) -> list[SimpleParetoSample]:
    y, v, w = pot_conditional_batch(spec, grid, r, n, rng, method)
    return [
        SimpleParetoSample(Field(grid, w[i]), float(y[i]), Field(grid, v[i]), spec.omega0)
        for i in range(n)
    ]


def vector_grid(d: int) -> Grid:
    """Index grid 0..d-1 hosting d-dimensional simple Pareto vectors."""
    return Grid(np.arange(float(d)))


def sample_simple_pareto_vector(
    spec: SpectralProfileSpec, d: int, rng: np.random.Generator
) -> np.ndarray:
    """One simple Pareto vector in R^d_+ via the Y * V construction.

    d = 1 degenerates to a plain standard Pareto scalar times omega0: a
    one-coordinate profile with maximum omega0 is identically omega0.
    """
    check_count(d, "d", 1)
    if d == 1:
        if spec.kind == BERNOULLI_PAIR:
            raise SpecGridMismatch("bernoulli_pair needs exactly 2 coordinates")
        return spec.omega0 * sample_radii(1, rng)
    return sample_simple_pareto_batch(spec, vector_grid(d), 1, rng)[2][0]


def export_batch_csv(
    y: np.ndarray, v: np.ndarray, w: np.ndarray, samples_path, radii_path
) -> None:
    """Write a batch as samples.csv (sample_id, site_index, w, v) plus a
    per-sample radii file (sample_id, y)."""
    n, m = w.shape
    write_csv_table(samples_path, ["sample_id", "site_index", "w", "v"],
                    [np.arange(n)[:, None], np.arange(m), w, v])
    write_csv_table(radii_path, ["sample_id", "y"], [np.arange(y.size), y])
