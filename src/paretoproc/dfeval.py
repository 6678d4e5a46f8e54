"""Closed-form distribution formulas evaluated by Monte Carlo over profiles.

Every probability here is an expectation over the spectral profile V alone:
the Pareto radius Y integrates out through P(Y > a) = min(1, 1/a), so each
event reduces to the one ratio r = V/w (a site with V = w = 0 counts as
r = 0). With ``W <= w`` and ``W > w`` holding at every site and
``W not<= w`` (NOT_LEQ) at some site,

    P(W not<= w) = E min(1, sup r),  P(W <= w) = 1 - P(W not<= w),
    P(W > w) = E min(1, inf r),

exact for every w >= 0. NOT_LEQ is the complement of LEQ, but GT is not.
Each operation is a single pass over n_mc profile draws: the estimate is the
mean of the per-draw statistic and the standard error its sample deviation /
sqrt(n_mc).

``direct_frequency`` provides the independent cross-validation arm: the same
event evaluated as an empirical frequency of directly simulated processes.
``run_battery`` compares the two routes query by query.

Every route draws in row blocks, the formulas through ``spectral.per_draw_blocks``
and the direct arms through ``pareto.per_field_blocks``, so memory is set by the
block size; one float per draw is kept for all n draws.

Both routes settle what they can before evaluating a profile, with the bits of the
full evaluation: V is exactly omega0 at a sup site, no V(s) exceeds it, and rounding
a product or a quotient is monotone. So every W(s) = fl(y V(s)) is at most
fl(y omega0), W at the sup site, and the direct arm evaluates only the draws whose
radius does not settle the event. Every settled draw before the last open one is still
drawn, since a ziggurat normal takes a varying count of words; the profiles after the
block of the last open draw are not, as ``run_battery`` reads no more of that stream.
For LEQ and NOT_LEQ the formula's sup r lies between fl(omega0 / max w) and
fl(omega0 / min w); where min(1, .) of the two agree (a flat w, or max w <= omega0),
every draw has that statistic and none is made.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveArgument, OutOfSupport, PreconditionFailed
from .grid import Field, Grid, _concurrently, check_count, write_csv_table
from .pareto import per_field_blocks, vector_grid
from .rng import make_rng
from .spectral import SpectralProfileSpec, draw_setup, per_draw_blocks
from .transforms import GpParams, from_generalized

LEQ = "LEQ"
GT = "GT"
NOT_LEQ = "NOT_LEQ"
MODES = (LEQ, GT, NOT_LEQ)
PRETEST_N = 20_000  # profiles of the E inf V > 0 pre-test of conditional_sup_tail


@dataclass(frozen=True)
class DfQuery:
    """Argument field w (nonnegative), event mode, Monte Carlo size and seed."""

    w: Field
    mode: str
    n_mc: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if np.any(self.w.values < 0):
            raise ValueError("query field must be nonnegative")
        check_count(self.n_mc, "n_mc", 1)
        check_count(self.seed, "seed")


@dataclass(frozen=True)
class DfResult:
    """Monte Carlo estimate with standard error.

    ``no_mass`` marks that every draw's statistic was 0: no sampled profile
    gave the event any probability, so the estimate and its standard error
    are both 0, in every mode alike.
    """

    estimate: float
    std_error: float
    no_mass: bool = False

    def __iter__(self):
        return iter((self.estimate, self.std_error))


def _mean_result(per_draw: np.ndarray) -> DfResult:
    n = per_draw.size
    est = float(per_draw.mean())
    se = float(per_draw.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return DfResult(est, se, no_mass=not per_draw.any())


def _per_draw(profiles: np.ndarray, w: np.ndarray, mode: str) -> np.ndarray:
    """The event's probability given each profile row: with r = V / w (0/0
    counted as 0, so a site with V = w = 0 neither exceeds nor stays above),
    1 - min(1, sup r) for LEQ, min(1, sup r) for NOT_LEQ and min(1, inf r) for
    GT. Divides the fresh block in place."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.divide(profiles, w, out=profiles)
    if not w.all():  # 0/0 only where w is 0; min(1, .) reads an inf as it reads max-float
        np.nan_to_num(r, copy=False)
    if mode == GT:
        return np.minimum(1.0, r.min(axis=1))
    sup = np.minimum(1.0, r.max(axis=1))
    return 1.0 - sup if mode == LEQ else sup


def _statistic_mean(spec: SpectralProfileSpec, grid: Grid, w: np.ndarray, mode: str, n: int,
                    rng: np.random.Generator) -> DfResult:
    """Mean +- SE of ``_per_draw(profiles, w, mode)`` over n profiles. For LEQ and
    NOT_LEQ, where min(1, .) of fl(omega0 / max w) and fl(omega0 / min w), the bounds
    of sup r, agree, the mean is over n copies of that statistic and nothing is drawn
    (see the module docstring); the draws' set-up still checks the grid first."""
    draw_setup(spec, grid)
    if mode != GT:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            low, high = np.minimum(1.0, spec.omega0 / np.array([np.max(w), np.min(w)]))
        if low == high:
            return _mean_result(np.full(n, 1.0 - low if mode == LEQ else low))
    return _mean_result(per_draw_blocks(spec, grid, n, rng, lambda _, v: _per_draw(v, w, mode)))


def _formula(q: DfQuery, spec: SpectralProfileSpec, grid: Grid, mode: str) -> DfResult:
    """``_statistic_mean`` of the query's w and mode over its n_mc profiles, drawn
    (if at all) on stream (q.seed, "df_eval")."""
    if q.w.grid != grid:
        raise ValueError("query field and grid disagree")
    return _statistic_mean(spec, grid, q.w.values, mode, q.n_mc, make_rng(q.seed, "df_eval"))


# ---------------------------------------------------------------------------
# Distribution function operations.
# ---------------------------------------------------------------------------

def df_leq_positive(q: DfQuery, spec: SpectralProfileSpec, grid: Grid) -> DfResult:
    """P(W <= w) for strictly positive w."""
    if np.any(q.w.values == 0.0):
        raise NonPositiveArgument(
            "w has zero entries; use df_leq_general, which takes w >= 0"
        )
    return _formula(q, spec, grid, LEQ)


def df_leq_general(q: DfQuery, spec: SpectralProfileSpec, grid: Grid) -> DfResult:
    """P(W <= w) for w >= 0: a draw counts only where the profile vanishes at
    every zero of w."""
    return _formula(q, spec, grid, LEQ)


def survival_gt(q: DfQuery, spec: SpectralProfileSpec, grid: Grid) -> DfResult:
    """P(W > w) = E min(1, inf V/w), exact for every w >= 0: 0 for a profile
    that vanishes somewhere, and 1 for one at or above w everywhere, since the
    Pareto radius exceeds 1."""
    if q.mode != GT:
        raise ValueError("survival_gt expects a GT-mode query")
    return _formula(q, spec, grid, GT)


def evaluate(q: DfQuery, spec: SpectralProfileSpec, grid: Grid) -> DfResult:
    """The query's probability in its own mode."""
    return _formula(q, spec, grid, q.mode)


def _check_tail(x: float, n_sim: int) -> None:
    """The level and count of both conditional tails, checked before any draw:
    no value exceeds a NaN level, so it would read 0."""
    if np.isnan(x):
        raise ValueError("x must be a number, not NaN")
    check_count(n_sim, "n_sim")


def _conditional_tail(spec: SpectralProfileSpec, grid: Grid, x: float, n_sim: int,
                      rng: np.random.Generator, reduce, empty: str) -> float:
    """Empirical P(X > x | X > omega0) for X = reduce(W), from the values above
    omega0 of n_sim direct draws; ``PreconditionFailed(empty)`` when there are none."""
    kept = per_field_blocks(spec, grid, n_sim, rng, lambda w: (xs := reduce(w))[xs > spec.omega0])
    if kept.size == 0:
        raise PreconditionFailed(empty)
    return int(np.count_nonzero(kept > x)) / kept.size


def conditional_sup_tail(
    spec: SpectralProfileSpec,
    grid: Grid,
    x: float,
    n_sim: int = 100_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical P(W > x | W > omega0) by direct simulation.

    Valid only when E inf V > 0, which is pre-tested by Monte Carlo (the
    sample mean of the profile infimum must exceed 3 of its standard errors).
    The contract value is min(1, omega0/x).
    """
    _check_tail(x, n_sim)
    if rng is None:
        rng = make_rng(0, "conditional_sup_tail")
    mean_inf, se_inf = _mean_result(per_draw_blocks(spec, grid, PRETEST_N, rng,
                                                    lambda _, v: v.min(axis=1)))
    if not mean_inf - 3.0 * se_inf > 0.0:
        raise PreconditionFailed(
            f"E inf V not significantly positive (estimate {mean_inf:.3g} "
            f"+/- {se_inf:.3g}); the conditional tail is undefined"
        )
    return _conditional_tail(spec, grid, x, n_sim, rng, lambda w: w.min(axis=1),
                             "no conditioning events in the simulation")


def marginal_conditional_tail(
    spec: SpectralProfileSpec,
    grid: Grid,
    site: int,
    x: float,
    n_sim: int = 100_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical P(W(s) > x | W(s) > omega0); contract value min(1, omega0/x)."""
    grid.site_indices(site)
    _check_tail(x, n_sim)
    if rng is None:
        rng = make_rng(0, "marginal_conditional_tail")
    return _conditional_tail(spec, grid, x, n_sim, rng, lambda w: w[:, site],
                             f"no exceedances of omega0 at site {site}")


def df_generalized(
    q: DfQuery, p: GpParams, spec: SpectralProfileSpec, grid: Grid
) -> DfResult:
    """P(W_{mu,sigma,gamma} <= w): back-transform w to the simple scale and
    delegate to the positive-argument formula."""
    back, clamped = from_generalized(q.w, p, return_clamped=True)
    if clamped.any():
        raise OutOfSupport(
            "1 + gamma*(w - mu)/sigma must be strictly positive at every site"
        )
    return df_leq_positive(DfQuery(back, LEQ, q.n_mc, q.seed), spec, grid)


def df_findim(
    w_vec,
    spec: SpectralProfileSpec,
    d: int,
    n_mc: int = 1_000_000,
    seed: int = 0,
) -> DfResult:
    """P(W_1 <= w_1, ..., W_d <= w_d) for the d-dimensional simple Pareto
    vector, via the LEQ statistic on a d-point index grid."""
    check_count(d, "d", 2)
    w = np.asarray(w_vec, dtype=float)
    if w.shape != (d,):
        raise ValueError(f"w_vec must have length d = {d}")
    if not np.all(w >= 0):
        raise ValueError("w_vec must be nonnegative")
    check_count(n_mc, "n_mc", 1)
    return _statistic_mean(spec, vector_grid(d), w, LEQ, n_mc, make_rng(seed, "df_findim"))


def bernoulli_pair_cdf(x: float, y: float, omega0: float = 1.0) -> float:
    """Closed-form df of the two-site zero-or-peak Pareto vector
    (Y*B*omega0, Y*(1-B)*omega0): each half contributes a univariate Pareto
    tail on its own axis."""
    if np.isnan(x) or np.isnan(y):
        raise ValueError(f"x and y must not be NaN, not ({x}, {y})")
    if not 0.0 < omega0 < np.inf:
        raise ValueError("omega0 must be positive and finite")
    return sum((0.5 * (1.0 - omega0 / c) for c in (x, y) if c >= omega0), 0.0)


# ---------------------------------------------------------------------------
# Cross-validation against direct simulation.
# ---------------------------------------------------------------------------

def direct_frequency(
    spec: SpectralProfileSpec,
    grid: Grid,
    w: np.ndarray,
    mode: str,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Empirical probability of the event from n directly simulated processes:
    the mean of 0/1 hits, which is hits / n exactly. All n radii are drawn, but only
    the draws a radius leaves open are evaluated: with fl(y omega0), W at a sup site,
    at most min w, LEQ is a hit and GT a miss; above max w, LEQ is a miss; NOT_LEQ
    is the complement of LEQ (see the module docstring). Profiles are drawn only up
    to the block of the last open draw (``per_field_blocks``), so rng ends there,
    not after all n draws. The arguments and the grid are checked before any draw."""
    check_count(n, "n", 1)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
    if np.shape(w) != (grid.n_sites,):
        raise ValueError(f"w must have shape ({grid.n_sites},), not {np.shape(w)}")
    if not np.all(w >= 0):
        raise ValueError("w must be nonnegative, with no NaN")
    draw_setup(spec, grid)  # a fully settled query draws no profile to check the grid
    compare = np.less_equal if mode == LEQ else np.greater
    over = np.all if mode in (LEQ, GT) else np.any
    settled = 0

    def unsettled(y):
        nonlocal settled
        top = y * spec.omega0
        low, high = top <= np.min(w), top > np.max(w)
        settled = 0 if mode == GT else np.count_nonzero(low if mode == LEQ else high)
        return ~low if mode == GT else ~(low | high)

    hits = per_field_blocks(spec, grid, n, rng, lambda sim: over(compare(sim, w), axis=1), unsettled)
    p = (settled + np.count_nonzero(hits)) / n
    return p, float(np.sqrt(p * (1.0 - p) / n))


@dataclass(frozen=True)
class BatteryRow:
    query_id: int
    mode: str
    estimate: float
    std_error: float
    oracle_estimate: float
    oracle_se: float
    passed: bool


def run_battery(
    spec: SpectralProfileSpec,
    grid: Grid,
    queries: list[DfQuery],
    n_direct: int = 20_000,
    seed: int = 0,
) -> list[BatteryRow]:
    """Evaluate each query by formula and by direct frequency; a row passes
    when the two agree within 3 pooled standard errors.

    The binomial standard error of the direct arm is evaluated at the larger
    of the two probability estimates, so that events far below the direct
    arm's 1/n resolution (empirical frequency exactly 0) are compared at the
    formula's scale instead of degenerating to a zero-width interval.

    The two arms of a query draw from their own streams, so they run at the
    same time (``grid._concurrently``) with the rows of a serial run. The
    draws' set-up is made first, so the arms never build it twice.
    """
    check_count(n_direct, "n_direct", 1)
    draw_setup(spec, grid)
    rows = []
    for i, q in enumerate(queries):
        rng = make_rng(seed, f"battery_direct_{i}")
        res, (p, se) = _concurrently(
            lambda: evaluate(q, spec, grid),
            lambda: direct_frequency(spec, grid, q.w.values, q.mode, n_direct, rng))
        diff = abs(res.estimate - p)
        q_se = min(max(p, res.estimate, 0.0), 1.0)
        se_binom = float(np.sqrt(q_se * (1.0 - q_se) / n_direct))
        pooled = float(np.hypot(res.std_error, max(se, se_binom)))
        rows.append(
            BatteryRow(i, q.mode, res.estimate, res.std_error, p, se,
                       bool(diff <= 3.0 * pooled))
        )
    return rows


def default_battery(grid: Grid, n_mc: int = 10_000, seed: int = 0,
                    omega0: float = 1.0) -> list[DfQuery]:
    """Fixed five-query battery in units of ``omega0``, the same probabilities at
    every omega0: three lower events (two flat levels, one tilted), a joint and a sup exceedance."""
    check_count(seed, "seed")
    m = grid.n_sites
    fields = [
        (LEQ, np.full(m, 2.0 * omega0)),
        (LEQ, np.full(m, 5.0 * omega0)),
        (LEQ, (1.5 + grid.coords()) * omega0),
        (GT, np.full(m, 1.2 * omega0)),
        (NOT_LEQ, np.full(m, 3.0 * omega0)),
    ]
    return [
        DfQuery(Field(grid, w), mode, n_mc, seed + i)
        for i, (mode, w) in enumerate(fields)
    ]


def queries_from_json(path, grid: Grid) -> list[DfQuery]:
    """Battery file: JSON list of {mode, w (array or scalar), n_mc, seed}; w
    must be a JSON number or a list of them, n_mc and seed JSON integers. A
    non-JSON or malformed file raises ``ValueError`` naming the file (and entry)."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON list of queries")
    queries = []
    for i, item in enumerate(raw):
        try:
            w = item["w"]
            if not all(type(x) in (int, float) for x in (w if isinstance(w, list) else [w])):
                raise ValueError(f"w must be a JSON number or a list of them, not {json.dumps(w)}")
            values = np.asarray(w, float) if isinstance(w, list) else np.full(grid.n_sites, float(w))
            queries.append(DfQuery(Field(grid, values), item["mode"],
                                   item.get("n_mc", 10_000), item.get("seed", 0)))
        except KeyError as exc:
            raise ValueError(f"{path}: query {i} has no {exc} entry") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: query {i}: {exc}") from exc
    return queries


def battery_to_csv(rows: list[BatteryRow], path) -> None:
    fields = ["query_id", "estimate", "std_error", "oracle_estimate", "oracle_se", "passed"]
    write_csv_table(path, fields[:-1] + ["pass"], [[getattr(r, f) for r in rows] for f in fields])
