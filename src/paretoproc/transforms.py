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
from .grid import Field, Grid

GAMMA_ZERO_TOL = 1e-8


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
        m = grid.n_sites
        return cls(
            Field(grid, np.full(m, float(mu))),
            Field(grid, np.full(m, float(sigma))),
            Field(grid, np.full(m, float(gamma))),
            omega0,
        )


@dataclass(frozen=True)
class NormingFunctions:
    """Per-site shape gamma, scale a_t > 0 and location b_t at level t.

    ``k`` records the order-statistic level when the functions were estimated
    from data (t = n/k); it is None for analytically given normings.
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
        if not self.t > 0:
            raise ValueError("t must be positive")

    @property
    def grid(self) -> Grid:
        return self.gamma.grid

    @classmethod
    def constant(
        cls, grid: Grid, gamma: float, a_t: float, b_t: float, t: float
    ) -> "NormingFunctions":
        m = grid.n_sites
        return cls(
            Field(grid, np.full(m, float(gamma))),
            Field(grid, np.full(m, float(a_t))),
            Field(grid, np.full(m, float(b_t))),
            t,
        )


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
    base = 1.0 + gamma * z
    clamped = ~zero & (base <= 0.0)
    safe_exponent = 1.0 / np.where(zero, 1.0, gamma)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        powed = np.power(np.where(clamped, 1.0, base), safe_exponent)
        powed = np.where(clamped, np.where(gamma > 0, 0.0, LEVEL_CEILING), powed)
        out = np.where(zero, np.exp(np.minimum(z, 709.0)), powed)
    return np.minimum(out, LEVEL_CEILING), clamped


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
    z = (g.values - p.mu.values) / p.sigma.values
    out, clamped = inv_power_transform_values(z, p.gamma.values)
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
    z = (x - nf.b_t.values) / nf.a_t.values
    out, _ = inv_power_transform_values(z, nf.gamma.values)
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
# field in field order, each Field as its array indexed by site.
# ---------------------------------------------------------------------------

def record_to_json(rec: GpParams | NormingFunctions) -> str:
    items = ((f.name, getattr(rec, f.name)) for f in fields(rec))
    return json.dumps({k: v.values.tolist() if isinstance(v, Field) else v for k, v in items})
