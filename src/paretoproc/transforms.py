"""Generalized Pareto transforms and threshold normalizations.

Maps between simple Pareto processes W and generalized ones
mu + sigma * (W^gamma - 1)/gamma, plus the per-site normalization

    T_t x = (1 + gamma * (x - b_t) / a_t)_+ ^ (1/gamma)

and its inverse, and the level-r renormalization maps u(r), s(r) under which
the generalized process is peaks-over-threshold stable.

Sites with |gamma| below ``GAMMA_ZERO_TOL`` use the analytic log/exp limit;
the index function is continuous so the limit is forced. Values outside the
support (nonpositive 1 + gamma*z) follow the positive-part convention:
``from_generalized`` maps them to 0 with an ``OutOfSupportWarning``, while
the normalization maps below-support values (gamma > 0) to level 0 and
beyond-endpoint values (gamma < 0) to the representable ceiling, so that
inverting returns the endpoint rather than diverging.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, GridMismatch, OutOfSupportWarning
from .grid import Field, Grid, check_count

GAMMA_ZERO_TOL = 1e-8


def _constant_fields(grid: Grid, *values: float) -> list[Field]:
    """One constant field on ``grid`` per value, in order."""
    return [Field(grid, np.full(grid.n_sites, float(v))) for v in values]


@dataclass(frozen=True)
class GpParams:
    """Location, scale and shape fields (mu, sigma, gamma) plus threshold omega0."""

    mu: Field
    sigma: Field
    gamma: Field
    omega0: float = 1.0

    def __post_init__(self):
        if not self.mu.grid == self.sigma.grid == self.gamma.grid:
            raise GridMismatch("mu, sigma, gamma must share one grid")
        if not np.all(self.sigma.values > 0):
            raise ValueError("sigma must be positive at every site")
        if not 0.0 < self.omega0 < np.inf:
            raise ValueError("omega0 must be positive and finite")

    @property
    def grid(self) -> Grid:
        return self.mu.grid

    @classmethod
    def constant(
        cls, grid: Grid, mu: float, sigma: float, gamma: float, omega0: float = 1.0
    ) -> "GpParams":
        return cls(*_constant_fields(grid, mu, sigma, gamma), omega0)


@dataclass(frozen=True)
class NormingFunctions:
    """Per-site shape gamma, scale a_t > 0 and location b_t at level t.

    ``k`` records the order-statistic level when the functions were estimated
    from data (t = n/k); it is None for analytically given normings. Both are
    kept JSON-ready: t finite, k a Python int.
    """

    gamma: Field
    a_t: Field
    b_t: Field
    t: float
    k: int | None = None

    def __post_init__(self):
        if not self.gamma.grid == self.a_t.grid == self.b_t.grid:
            raise GridMismatch("gamma, a_t, b_t must share one grid")
        if not np.all(self.a_t.values > 0):
            raise ValueError("a_t must be positive at every site")
        if not 0 < self.t < np.inf:
            raise ValueError("t must be positive and finite")
        if self.k is not None:
            check_count(self.k, "k")
            object.__setattr__(self, "k", int(self.k))

    @property
    def grid(self) -> Grid:
        return self.gamma.grid

    @classmethod
    def constant(
        cls, grid: Grid, gamma: float, a_t: float, b_t: float, t: float
    ) -> "NormingFunctions":
        return cls(*_constant_fields(grid, gamma, a_t, b_t), t)


# ---------------------------------------------------------------------------
# Array-level kernels shared by the field operations and the batch samplers.
# ---------------------------------------------------------------------------

def power_transform_values(w: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(w^gamma - 1)/gamma componentwise, log branch where gamma ~ 0. w >= 0."""
    gamma = np.asarray(gamma)
    zero = np.abs(gamma) < GAMMA_ZERO_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(zero, np.log(w), (np.power(w, gamma) - 1.0) / gamma)
    return out


LEVEL_CEILING = 1e300


def inv_power_transform_values(
    z: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(1 + gamma*z)_+ ^ (1/gamma) and the mask of clamped entries.

    The positive part triggers when 1 + gamma*z <= 0: below the lower support
    endpoint for gamma > 0, where the level is 0, and beyond the upper
    endpoint for gamma < 0, where the level exceeds every threshold and is
    represented by ``LEVEL_CEILING`` so the inverse map lands back on the
    endpoint. All levels cap at the ceiling to stay finite. The gamma ~ 0
    exp branch never clamps.
    """
    gamma = np.asarray(gamma)
    zero = np.abs(gamma) < GAMMA_ZERO_TOL
    safe_exponent = 1.0 / np.where(zero, 1.0, gamma)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = 1.0 + gamma * z
        clamped = ~zero & (base <= 0.0)
        powed = np.power(np.where(clamped, 1.0, base), safe_exponent)
        powed = np.where(clamped, np.where(gamma > 0, 0.0, LEVEL_CEILING), powed)
        out = np.where(zero, np.exp(np.minimum(z, 709.0)), powed)
    return np.minimum(out, LEVEL_CEILING), clamped


def standardized_level(x, loc, scale, gamma) -> tuple[np.ndarray, np.ndarray]:
    """``inv_power_transform_values`` of (x - loc) / scale. A quotient too large for a
    float is past every endpoint, and lands on the ceiling or the clamp like one."""
    with np.errstate(over="ignore"):
        return inv_power_transform_values((x - loc) / scale, gamma)


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} produced non-finite values "
                          "(zero input at a site with gamma <= 0, or overflow)")
    return values


# ---------------------------------------------------------------------------
# Field-level operations.
# ---------------------------------------------------------------------------

def _as_field(w) -> Field:
    # accepts a Field or anything carrying one in .w (e.g. SimpleParetoSample)
    return w if isinstance(w, Field) else w.w


def to_generalized(w, p: GpParams) -> Field:
    """mu + sigma * (w^gamma - 1)/gamma componentwise."""
    f = _as_field(w)
    if f.grid != p.grid:
        raise GridMismatch("sample and parameters live on different grids")
    out = p.mu.values + p.sigma.values * power_transform_values(f.values, p.gamma.values)
    return Field(f.grid, _require_finite(out, "generalized transform"))


def from_generalized(g: Field, p: GpParams, return_clamped: bool = False):
    """Inverse of :func:`to_generalized`: (1 + gamma*(g - mu)/sigma)^(1/gamma).

    Out-of-support sites are clamped to 0 and reported through
    ``OutOfSupportWarning`` (or returned as a mask with ``return_clamped``).
    """
    if g.grid != p.grid:
        raise GridMismatch("field and parameters live on different grids")
    out, clamped = standardized_level(g.values, p.mu.values, p.sigma.values, p.gamma.values)
    out = np.where(clamped, 0.0, out)  # out-of-support convention is 0 here
    if clamped.any() and not return_clamped:
        warnings.warn(
            f"{int(clamped.sum())} site(s) outside the generalized Pareto support "
            "were clamped to 0",
            OutOfSupportWarning,
            stacklevel=2,
        )
    field = Field(g.grid, _require_finite(out, "inverse generalized transform"))
    if return_clamped:
        return field, clamped
    return field


def apply_T_values(x: np.ndarray, nf: NormingFunctions) -> np.ndarray:
    """Normalization T_t on raw (..., n_sites) arrays."""
    out, _ = standardized_level(x, nf.b_t.values, nf.a_t.values, nf.gamma.values)
    return _require_finite(out, "threshold normalization")


def apply_T(x: Field, nf: NormingFunctions) -> Field:
    """T_t x = (1 + gamma*(x - b_t)/a_t)_+ ^ (1/gamma), a nonnegative field.

    The positive part is built into the definition: values below the
    threshold range (gamma > 0) map to level 0 silently, values beyond a
    negative-gamma upper endpoint to the level ceiling.
    """
    if x.grid != nf.grid:
        raise GridMismatch("field and norming functions live on different grids")
    return Field(x.grid, apply_T_values(x.values, nf))


def invert_T_values(y: np.ndarray, nf: NormingFunctions) -> np.ndarray:
    if np.any(y < 0):
        raise DomainError("invert_T requires y >= 0")
    out = nf.b_t.values + nf.a_t.values * power_transform_values(y, nf.gamma.values)
    return _require_finite(out, "inverse normalization")


def invert_T(y: Field, nf: NormingFunctions) -> Field:
    """Inverse normalization b_t + a_t * (y^gamma - 1)/gamma; undoes
    :func:`apply_T` wherever the latter did not clamp."""
    if y.grid != nf.grid:
        raise GridMismatch("field and norming functions live on different grids")
    return Field(y.grid, invert_T_values(y.values, nf))


def stability_norming(p: GpParams, r: float) -> tuple[Field, Field]:
    """Renormalization fields u(r) = mu + sigma*(r^gamma - 1)/gamma and
    s(r) = sigma * r^gamma under which exceedances above level r rescale back
    to the base law."""
    if not r >= 1:
        raise ValueError("r must be >= 1")
    u = p.mu.values + p.sigma.values * power_transform_values(r, p.gamma.values)
    s = p.sigma.values * np.power(r, p.gamma.values)
    return Field(p.grid, u), Field(p.grid, s)


# ---------------------------------------------------------------------------
# JSON serialization of GpParams and NormingFunctions: one key per dataclass
# field in field order, each Field as its array indexed by site and a numpy
# scalar as the Python number it holds.
# ---------------------------------------------------------------------------

def record_to_json(rec: GpParams | NormingFunctions) -> str:
    def plain(v):
        if isinstance(v, Field):
            return v.values.tolist()
        return v.item() if isinstance(v, np.generic) else v

    return json.dumps({f.name: plain(getattr(rec, f.name)) for f in fields(rec)})
