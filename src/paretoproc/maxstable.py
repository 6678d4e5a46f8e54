"""Simple max-stable process simulation and empirical validation.

A simple max-stable field is the sitewise maximum of Z_i * V_i(s) / E V(s)
over the points Z_i of a Poisson process on (0, inf] with mean measure r^-2 dr
and i.i.d. profiles V_i. Points are produced in decreasing order as
reciprocals of cumulative standard-exponential sums (same law as drawing a
Poisson(1/eps) count and points eps/U_i, which is the restriction of the
r^-2 dr process to (eps, inf]). The loop settles only what its caller reads: a
reducer that commutes with the sitewise maximum and with positive scaling (a column,
some columns, the sup) maps each drawn block of V / E V, and the row omega0 / E V to
the bound of each kept column; whole fields take raw profiles under the one bound
omega0 and are divided by E V once they finish. Generation stops once z times the
bound beats no kept column's running maximum, after which no later point can raise a
kept value, so the sampled law is unchanged; at 101 sites a middle column settles in
5 profiles a field, where all sites take 16. Each row's stopping test reads only that
row, so at most one ``spectral.row_blocks`` block of fields is in flight: a field
leaves the round it settles and the next takes its slot. Memory is one block plus
what the caller keeps. A ``PenroseConfig`` takes E V(s) from one cache, exact or
Monte Carlo.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gof import Check, ks_critical_value, ks_statistic, standard_frechet_cdf, two_sample_ks_pvalue
from .grid import Field, Grid, _read_only, check_count
from .pareto import sample_radii
from .rng import fill_rows, make_rng
from .spectral import (
    SpectralProfileSpec,
    _bump_reaches,
    _empty,
    exact_profile_mean,
    gaussian_bump,
    per_draw_blocks,
    profile_mean_se,
    row_blocks,
    sample_profiles,
)

MEAN_RESCALE_N = 1_000_000
MOVING_MAX_MARGIN = 4.0  # kernel widths the storm centers reach beyond the domain
DOA_SE_FACTOR = 3.0  # standard errors a sup-ratio check may miss 1/x by


@functools.lru_cache(maxsize=16)
def _mean_field(spec: SpectralProfileSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """E V(s) and its standard error, both read-only and cached per (spec,
    grid): exact with SE 0 where a closed form exists, else a Monte Carlo
    estimate from MEAN_RESCALE_N profiles."""
    exact = exact_profile_mean(spec, grid)
    if exact is not None:
        return _read_only(exact), _read_only(np.zeros(grid.n_sites))
    mean, se = profile_mean_se(spec, grid, MEAN_RESCALE_N, make_rng(0, "mean_field_rescale"))
    return _read_only(mean), _read_only(se)


@dataclass
class PenroseConfig:
    """Poisson-profile construction config.

    The profile family is rescaled internally to E V(s) = 1 by dividing by
    the mean field: exact for ``constant``, ``bernoulli_pair`` and
    ``gaussian_moving_max`` on a tensor grid, else a cached Monte Carlo
    estimate. ``mean_field_se`` records the standard error of that rescale
    (0 where the mean is exact). ``truncation`` is the smallest Poisson
    point retained (points below it can shift the maximum only with
    probability of order truncation). The mean field's grid check rejects
    a spec the grid cannot carry.
    """

    spec: SpectralProfileSpec
    grid: Grid
    truncation: float = 1e-4
    mean_field: np.ndarray = field(init=False, repr=False)
    mean_field_se: np.ndarray = field(init=False, repr=False)
    sup_bound: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.truncation < 1.0:
            raise ValueError("truncation must be in (0, 1)")
        self.mean_field, self.mean_field_se = _mean_field(self.spec, self.grid)
        # after rescale, sup_s V(s)/mean(s) <= omega0 / min_s mean(s)
        self.sup_bound = float(self.spec.omega0 / self.mean_field.min())


def _poisson_max(n: int, m: int, scale: float, bound, draw, rng: np.random.Generator,
                 truncation: float = 0.0) -> np.ndarray:
    """n maxima, an (n, c) array, of z_i * draw(k, rng) over the points z_i = scale /
    (cumulative standard-exponential sum) above ``truncation``, at each field's index.
    ``draw`` returns a fresh (k, c) array from k profiles on m sites, which the loop
    overwrites. ``bound`` holds the bound of each kept column, c floats, or is one float
    that bounds all c = m columns. At most one ``row_blocks`` block of fields on m sites
    is in flight. A field leaves the round its point falls to ``truncation`` or z * bound
    can beat its maxima in no column. Rows that fall to the truncation leave before the
    draw and the staying rows move up in order, so that round draws fewer rows. Rows
    that settle leave after the draw: the next fields take their slots in place, then
    the empty ones, and once too few are left the staying rows move up in order
    instead. A round that leaves no row in flight still refills. Up to one block this
    is the round-major loop, bit for bit."""
    check_count(n)
    out = np.empty((n, *(np.shape(bound) or (m,))))  # sized before any draw
    cap = next(row_blocks(n, m), (0, 0))[1]  # at most n: the first cap fields fill every slot
    # the fields in flight, their exponential sums and their maxima, in the draws' layout
    fields, gamma_sum, maxima = np.arange(cap), np.zeros(cap), _empty(cap, out.shape[1])
    maxima[...] = 0.0
    live = entered = cap

    def leave(stay, live, queued):
        """Store the maxima of the first ``live`` rows not staying. Their slots, then
        the empty ones, take up to ``queued`` next fields; if too few come, the staying
        rows first move up in order. Returns the rows in flight."""
        nonlocal entered
        gone = np.flatnonzero(~stay)
        k = min(gone.size + cap - live, queued)
        if gone.size:
            out[fields[gone]] = maxima[gone]
        elif not k:
            return live
        live -= gone.size
        if k < gone.size:
            kept = np.flatnonzero(stay)
            fields[:live], gamma_sum[:live], maxima[:live] = fields[kept], gamma_sum[kept], maxima[kept]
            gone = np.arange(live, live + gone.size)
        slots = np.concatenate((gone, np.arange(live + gone.size, cap)))[:k]
        fields[slots], gamma_sum[slots], maxima[slots] = np.arange(entered, entered + k), 0.0, 0.0
        entered += k
        return live + k

    while live:
        gamma_sum[:live] += rng.standard_exponential(live)
        z = scale / gamma_sum[:live]
        stay = z > truncation
        live, z = leave(stay, live, 0), z[stay]  # before the draw, so no field enters
        if live:
            best = draw(live, rng)
            best *= z[:, None]
            np.maximum(maxima[:live], best, out=maxima[:live])
            # points only get smaller: once z * bound beats no column's maximum, no later one can
            stay = (z[:, None] * bound > maxima[:live]).any(axis=1)
        else:  # the truncation emptied the block: the queue still fills the free slots
            stay = stay[:0]
        live = leave(stay, live, n - entered)
    return out


def sample_max_stable_batch(cfg: PenroseConfig, n: int, rng: np.random.Generator,
                            reduce=None) -> np.ndarray:
    """n independent simple max-stable fields as an (n, n_sites) matrix: maxima of raw
    profiles under the one bound omega0, divided by E V once they finish. Or what
    ``reduce(eta)`` keeps of each, a column selection or a sup (``_reducer_bound``):
    ``reduce`` maps each drawn block of V / E V, and the loop stops on the kept columns."""
    m = cfg.grid.n_sites
    if reduce is None:
        eta = _poisson_max(n, m, 1.0, cfg.spec.omega0,
                           lambda k, rng: sample_profiles(cfg.spec, cfg.grid, k, rng), rng,
                           cfg.truncation)
        return np.divide(eta, cfg.mean_field, out=eta)
    bound = _reducer_bound(reduce, cfg.spec.omega0 / cfg.mean_field)

    def draw(k, rng):
        v = sample_profiles(cfg.spec, cfg.grid, k, rng)
        return reduce(np.divide(v, cfg.mean_field, out=v)).reshape(k, -1)

    eta = _poisson_max(n, m, 1.0, bound.reshape(-1), draw, rng, cfg.truncation)
    return eta.reshape(n, *bound.shape[1:])


def _reducer_bound(reduce, row: np.ndarray) -> np.ndarray:
    """``reduce`` of the bound row omega0 / E V, the bound of each kept column. First a
    ``ValueError`` unless ``reduce`` keeps a value or row per row and commutes, bit for
    bit, with the sitewise maximum and with doubling on probes: ``row`` at its even and
    at its odd sites (the others zeroed), and twice those two swapped."""
    even = np.arange(row.size) % 2 == 0
    a = np.stack((np.where(even, row, 0.0), np.where(even, 0.0, row)))
    kept, b = reduce(a), 2.0 * a[::-1]
    if (np.shape(kept)[:1] != (2,) or not np.array_equal(reduce(2.0 * a), 2.0 * kept)
            or not np.array_equal(reduce(np.maximum(a, b)), np.maximum(kept, reduce(b)))):
        raise ValueError("reduce must keep a value or row per field and commute with the "
                         "sitewise maximum and positive scaling, as a column or the sup does")
    return reduce(row[None, :])


def sample_max_stable(cfg: PenroseConfig, rng: np.random.Generator) -> Field:
    """One simple max-stable field (standard Frechet marginals up to the
    documented rescale and truncation bias)."""
    (eta,) = sample_max_stable_batch(cfg, 1, rng)
    return Field(cfg.grid, eta)


def findim_evd(
    cfg: PenroseConfig,
    x,
    sites,
    n_mc: int = 100_000,
    rng: np.random.Generator | None = None,
    return_se: bool = False,
):
    """Finite-dimensional df G(x) = exp(-E max_i V(s_i)/x_i) by Monte Carlo
    over rescaled profiles, drawn in blocks. Standard error via the delta method."""
    x = np.asarray(x, dtype=float)
    sites = cfg.grid.site_indices(sites)
    if x.shape != sites.shape:
        raise ValueError("x and sites must have equal length")
    if not np.all(x > 0):
        raise ValueError("evaluation points must be positive")
    check_count(n_mc, "n_mc", 1)
    if rng is None:
        rng = make_rng(0, "findim_evd")
    mean_field = cfg.mean_field[sites]
    exponent = per_draw_blocks(cfg.spec, cfg.grid, n_mc, rng,
                               lambda _, v: (v[:, sites] / mean_field / x).max(axis=1))
    mean = exponent.mean()
    est = float(np.exp(-mean))
    if not return_se:
        return est
    se = float(est * exponent.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return est, se


def mmax_self_similarity_pvalue(
    cfg: PenroseConfig,
    m: int,
    n: int,
    rng: np.random.Generator,
) -> float:
    """Two-sample KS p-value between eta(s) at the middle site and the
    componentwise maximum of m independent copies divided by m (equal in law
    for simple max-stable)."""
    check_count(m, "m", 1)
    check_count(n, "n", 1)
    site = cfg.grid.n_sites // 2
    one = sample_max_stable_batch(cfg, n, rng, lambda eta: eta[:, site])
    many = sample_max_stable_batch(cfg, m * n, rng, lambda eta: eta[:, site]).reshape(n, m)
    scaled_max = many.max(axis=1) / m
    return two_sample_ks_pvalue(one, scaled_max)


def construction_checks(cfg: PenroseConfig, n: int, seed: int) -> list[Check]:
    """Construction checks at the middle site from n fields: standard Frechet
    marginal KS (stream ``maxstable_marginal``, 1% critical value) and the
    m = 4 self-similarity p-value (stream ``maxstable_mmax``, above 0.01)."""
    check_count(n, "n", 1)
    site = cfg.grid.n_sites // 2
    at_site = sample_max_stable_batch(cfg, n, make_rng(seed, "maxstable_marginal"),
                                      lambda eta: eta[:, site])
    stat = ks_statistic(at_site, standard_frechet_cdf)
    crit = ks_critical_value(n, alpha=0.01)
    pval = mmax_self_similarity_pvalue(cfg, 4, n, make_rng(seed, "maxstable_mmax"))
    return [
        Check("marginal_frechet_ks", stat, crit, stat < crit),
        Check("mmax_self_similarity_p", pval, 0.01, pval > 0.01),
    ]


# ---------------------------------------------------------------------------
# Moving-maximum process with Gaussian kernel: a classic simple max-stable
# family on an interval, used as the storm ingredient of the end-to-end
# lifting scenario. Storm centers extend MOVING_MAX_MARGIN kernel widths beyond
# the domain so the marginals are standard Frechet up to a negligible window bias.
# ---------------------------------------------------------------------------

def sample_moving_maximum_batch(grid: Grid, n: int, rng: np.random.Generator) -> np.ndarray:
    """n fields Z(s) = max_i Z_i * phi(s - C_i), phi the standard normal
    density, with (Z_i, C_i) Poisson of intensity r^-2 dr dc on the widened
    interval. Marginals are Frechet with scale within Phi(-MOVING_MAX_MARGIN) of one."""
    if grid.dim != 1:
        raise ValueError("moving-maximum sampler is one-dimensional")
    coords = grid.coords()
    if not _bump_reaches(grid, 1.0):  # else far kernels overflow to 0 and the loop never stops
        raise ValueError(f"a grid of extent {np.ptp(coords):g} is too wide for the unit kernel")
    lo, hi = coords.min() - MOVING_MAX_MARGIN, coords.max() + MOVING_MAX_MARGIN
    width = hi - lo
    phi_max = 1.0 / np.sqrt(2.0 * np.pi)

    def kernels(k, rng):
        centers = lo + width * rng.random(k)
        phi = gaussian_bump(grid.sites, centers[:, None], 1.0, _empty(k, grid.n_sites))
        return np.divide(phi, np.sqrt(2.0 * np.pi), out=phi)

    return _poisson_max(n, grid.n_sites, width, phi_max, kernels, rng)


# ---------------------------------------------------------------------------
# Empirical domain-of-attraction checks: normalize i.i.d. copies of a process
# with its known norming functions and verify that sup exceedances decay like
# 1/x and that the exceedance angle matches the spectral measure.
# ---------------------------------------------------------------------------

def check_doa_arguments(cfg: PenroseConfig, n_block: int, n_rep: int, input_kind: str) -> None:
    """``ValueError`` unless ``doa_empirical_check`` takes these arguments, so a
    caller running both arms can check both before either draws. The Pareto
    arm needs t = n_block >= ``cfg.sup_bound``, the max-stable arm t >= 2."""
    if input_kind not in ("pareto", "maxstable"):
        raise ValueError("input_kind must be 'pareto' or 'maxstable'")
    check_count(n_block, "n_block", 1)
    check_count(n_rep, "n_rep", 1)
    if input_kind == "maxstable" and n_block < 2:
        raise ValueError("n_block must be >= 2 for max-stable input")
    if input_kind == "pareto" and n_block < cfg.sup_bound:
        raise ValueError(
            f"n_block must be at least {cfg.sup_bound:.1f} so the marginal "
            "norming is above the sup-sphere at every site"
        )


def doa_empirical_check(
    cfg: PenroseConfig,
    n_block: int,
    n_rep: int,
    rng: np.random.Generator,
    input_kind: str = "pareto",
) -> dict:
    """Finite-sample domain-of-attraction report at threshold level t = n_block.

    ``input_kind``:

    * ``pareto``: i.i.d. simple Pareto fields, normalized by their exact
      marginal norming (gamma = 1, a_t = b_t = t * E V(s)). Exceedance ratios
      are exactly Pareto at finite t and the exceedance angle is compared by
      two-sample KS against the sup-weighted profile angle (the spectral
      measure of the limit), drawn independently by rejection.
    * ``maxstable``: i.i.d. simple max-stable fields normalized by their exact
      Frechet quantile norming; the ratio checks hold asymptotically in t, so
      only they are gated. It needs t >= 2: at t = 1 the quantile b_t is 0.
      The norming is nondecreasing, so only each field's sup is normalized.

    A ratio check without sup exceedances records statistic and threshold
    None and fails. The arguments go through ``check_doa_arguments`` first.
    """
    check_doa_arguments(cfg, n_block, n_rep, input_kind)
    t = float(n_block)
    site = cfg.grid.n_sites // 2

    if input_kind == "pareto":
        y = sample_radii(n_rep, rng)
        sup, at = _sup_and_site(cfg, n_rep, rng, site)
        # T_t X = (V / E V) y / t for gamma = 1, whose sup is sup(V / E V) y / t
        radius, at_site = sup * y / t, at * y / t
    else:
        sup = sample_max_stable_batch(cfg, n_rep, rng, lambda eta: eta.max(axis=1))
        b_t = -1.0 / np.log1p(-1.0 / t)
        b_2t = -1.0 / np.log1p(-1.0 / (2.0 * t))
        # eta -> 1 + (eta - b_t) / a_t, floored at 0, is nondecreasing, so it commutes with the sup
        radius = np.maximum(1.0 + (sup - b_t) / (b_2t - b_t), 0.0)

    exceed = radius > 1.0
    n_exc = int(exceed.sum())
    checks = []
    for x in (2.0, 5.0):
        if not n_exc:
            checks.append(Check(f"sup_ratio_x{x:g}", None, None, False))
            continue
        q_hat = float(np.mean(radius[exceed] > x))
        bound = DOA_SE_FACTOR * float(np.sqrt(q_hat * (1.0 - q_hat) / n_exc))
        checks.append(Check(f"sup_ratio_x{x:g}", q_hat, bound,
                            abs(q_hat - 1.0 / x) <= max(bound, 1e-12)))

    if input_kind == "pareto" and n_exc:
        angle = at_site[exceed] / radius[exceed]
        reference = _sup_weighted_angle_sample(cfg, n_exc, site, rng)
        pvalue = two_sample_ks_pvalue(angle, reference)
        checks.append(Check("angle_two_sample_ks", pvalue, 0.01, pvalue > 0.01))

    return {
        "input": input_kind,
        "t": t,
        "n_rep": n_rep,
        "n_exceedances": n_exc,
        "mean_rescale_max_se": float(cfg.mean_field_se.max()),
        "checks": checks,
    }


def _sup_weighted_angle_sample(cfg: PenroseConfig, n: int, site: int,
                               rng: np.random.Generator) -> np.ndarray:
    """n draws at ``site`` of the spectral angle measure: mean-rescaled profiles
    normalized to sup one, size-biased by their supremum (rejection step)."""

    def draw(size):
        sup, at = _sup_and_site(cfg, size, rng, site)
        accept = rng.random(size) < sup / cfg.sup_bound
        return (at[accept] / sup[accept],)

    return fill_rows(n, lambda remaining: max(2048, 2 * remaining), draw)[0]


def _sup_and_site(cfg: PenroseConfig, n: int, rng: np.random.Generator, site: int) -> np.ndarray:
    """(sup, value at ``site``) of n profiles V / E V drawn in blocks, a (2, n) array."""
    def per_draw(_, v):
        v /= cfg.mean_field
        return np.column_stack((v.max(axis=1), v[:, site]))

    return per_draw_blocks(cfg.spec, cfg.grid, n, rng, per_draw).T
