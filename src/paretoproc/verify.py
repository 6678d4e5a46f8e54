"""End-to-end verification checks.

Each check exercises one distributional guarantee of the toolkit at a fixed
seed and either its full Monte Carlo size or a reduced "quick" size (same
logic, looser derived tolerances where the size enters the bound). The
acceptance test suite runs the full versions; ``paretoproc verify-all`` runs
either set and reports one line per check. Each check returns its name and
one ``gof.Check`` record per gate; it passes when every gate passes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dfeval import bernoulli_pair_cdf, default_battery, df_findim, run_battery
from .gof import (
    Check,
    ks_critical_value,
    ks_statistic,
    standard_pareto_cdf,
    two_sample_ks_pvalue,
)
from .grid import Field, Grid
from .lifting import FieldSample, estimate_norming, lift, run_storm_scenario
from .maxstable import PenroseConfig, construction_checks, findim_evd, sample_max_stable_batch
from .pareto import per_field_blocks, pot_rejection_blocks, sample_radii, sample_simple_pareto_batch
from .rng import fill_rows, make_rng
from .spectral import (
    BERNOULLI_PAIR,
    CONSTANT,
    GAUSSIAN_MOVING_MAX,
    RESCALED_POSITIVE_FIELD,
    SpectralProfileSpec,
    per_draw_blocks,
)
from .transforms import (
    GpParams,
    NormingFunctions,
    apply_T_values,
    power_transform_values,
    stability_norming,
    standardized_level,
)

SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checks: tuple[Check, ...]
    seconds: float


def run_check(check, quick: bool = False) -> CheckResult:
    """Run one check, which returns (name, gate records), and time it."""
    start = time.perf_counter()
    name, gates = check(quick=quick)
    passed = all(g.passed for g in gates)
    return CheckResult(name, passed, tuple(gates), time.perf_counter() - start)


def _grid_for(kind: str, n_sites: int = 101) -> Grid:
    return Grid.regular(2) if kind == BERNOULLI_PAIR else Grid.regular(n_sites)


def _all_specs() -> list[SpectralProfileSpec]:
    return [
        SpectralProfileSpec(CONSTANT),
        SpectralProfileSpec(GAUSSIAN_MOVING_MAX),
        SpectralProfileSpec(RESCALED_POSITIVE_FIELD),
        SpectralProfileSpec(BERNOULLI_PAIR),
    ]


def check_sup_pareto_law(quick: bool = False) -> tuple[str, list[Check]]:
    """Supremum law: omega0^-1 sup W is standard Pareto for every built-in
    profile family (one-sample KS below the 1% critical value)."""
    n = 20_000 if quick else 100_000
    crit = ks_critical_value(n, alpha=0.01)
    worst = 0.0
    for spec in _all_specs():
        grid = _grid_for(spec.kind)
        rng = make_rng(SEED, f"sup_pareto_{spec.kind}")
        sup = per_field_blocks(spec, grid, n, rng, lambda w: w.max(axis=1))
        stat = ks_statistic(sup / spec.omega0, standard_pareto_cdf)
        worst = max(worst, stat)
    return "sup_pareto_law", [Check("worst_ks", worst, crit, worst < crit)]


def check_pot_stability(quick: bool = False) -> tuple[str, list[Check]]:
    """Angle law above a threshold equals the unconditional angle law:
    rejection-path versus stability-path samples, two-sample KS."""
    n = 2_000 if quick else 10_000
    spec = SpectralProfileSpec(GAUSSIAN_MOVING_MAX)
    grid = _grid_for(spec.kind)
    site = grid.n_sites // 2
    pvals = []
    for r in (2.0, 5.0):
        rng = make_rng(SEED, f"pot_stability_r{r:g}")
        # both arms keep one column of their profiles
        _, v_rej = pot_rejection_blocks(spec, grid, r, n, rng, lambda v: v[:, site])
        sample_radii(n, rng)  # the stability arm's stream: radii, then profiles
        v_stab = per_draw_blocks(spec, grid, n, rng, lambda _, v: v[:, site])
        pvals.append(two_sample_ks_pvalue(v_rej, v_stab))
    return "pot_stability", [Check("min_ks_p", min(pvals), 0.01, min(pvals) > 0.01)]


# Evaluation points (x, y) of the two-site closed form ``bernoulli_pair_cdf``
BIVARIATE_BATTERY = [(2.0, 2.0), (2.0, 0.5), (0.5, 2.0), (0.5, 0.5), (4.0, 4.0), (1.0, 1.0)]


def check_bivariate_closed_form(quick: bool = False) -> tuple[str, list[Check]]:
    """Two-site zero-or-peak vector: Monte Carlo df against the closed form."""
    n_mc = 100_000 if quick else 1_000_000
    tol = 1e-3 * np.sqrt(1_000_000 / n_mc)
    spec = SpectralProfileSpec(BERNOULLI_PAIR)
    worst = 0.0
    for i, (x, y) in enumerate(BIVARIATE_BATTERY):
        res = df_findim((x, y), spec, 2, n_mc=n_mc, seed=SEED + i)
        worst = max(worst, abs(res.estimate - bernoulli_pair_cdf(x, y)))
    return "bivariate_closed_form", [Check("worst_abs_error", worst, tol, worst <= tol)]


def check_formula_vs_empirical(quick: bool = False) -> tuple[str, list[Check]]:
    """Distribution formulas versus direct simulated frequencies over the
    five-query battery, every built-in family, many seeds; at least 95% of
    cells must agree within 3 pooled standard errors."""
    n_seeds = 5 if quick else 20
    n_mc = 4_000 if quick else 10_000
    n_direct = 8_000 if quick else 20_000
    total = passed = 0
    for spec in _all_specs():
        grid = _grid_for(spec.kind, n_sites=51)
        for s in range(n_seeds):
            queries = default_battery(grid, n_mc=n_mc, seed=SEED + 1000 * s)
            rows = run_battery(spec, grid, queries, n_direct=n_direct, seed=SEED + s)
            total += len(rows)
            passed += sum(r.passed for r in rows)
    frac = passed / total
    return "formula_vs_empirical", [Check("pass_fraction", frac, 0.95, frac >= 0.95)]


def _generalized_configs(grid: Grid) -> list[GpParams]:
    s = grid.coords()
    m = grid.n_sites
    smooth = GpParams(
        Field(grid, 1.0 + s),
        Field(grid, 0.5 + 0.5 * s),
        Field(grid, np.full(m, 0.3)),
    )
    sign_mixed = GpParams(
        Field(grid, np.zeros(m)),
        Field(grid, np.ones(m)),
        Field(grid, -0.4 + 0.9 * s),  # crosses zero inside the domain
    )
    return [smooth, sign_mixed]


def check_generalized_stability(quick: bool = False) -> tuple[str, list[Check]]:
    """Renormalizing the generalized process by (u(r), s(r)) and conditioning
    on a sup exceedance reproduces the base simple law (two-sample KS)."""
    n = 2_000 if quick else 10_000
    spec = SpectralProfileSpec(GAUSSIAN_MOVING_MAX)
    grid = _grid_for(spec.kind, n_sites=51)
    site = grid.n_sites // 2
    pvals = []
    for ci, p in enumerate(_generalized_configs(grid)):
        gamma = p.gamma.values
        for r in (2.0, 10.0):
            rng = make_rng(SEED, f"gen_stability_c{ci}_r{r:g}")

            def simple_level(size, u, s, keep):
                # draw W, map it to the generalized process, renormalize by
                # (u, s), return to the simple scale and keep one float a row
                def level(w):
                    g = p.mu.values + p.sigma.values * power_transform_values(w, gamma)
                    return keep(standardized_level(g, u, s, gamma)[0])
                return per_field_blocks(spec, grid, size, rng, level)

            # base arm: the middle-site level of W recovered from the generalized process
            z_base = simple_level(n, p.mu.values, p.sigma.values, lambda z: z[:, site])
            # renormalized arm: rescale by (u(r), s(r)), keep the sup exceedances
            u_r, s_r = stability_norming(p, r)

            def renormalized(size):
                return (simple_level(size, u_r.values, s_r.values,
                                     lambda z: z[z.max(axis=1) > p.omega0, site]),)

            (z_renorm,) = fill_rows(n, lambda need: int(1.3 * need * r) + 1024, renormalized)
            pvals.append(two_sample_ks_pvalue(z_base, z_renorm))
    return "generalized_stability", [Check("min_ks_p", min(pvals), 0.01, min(pvals) > 0.01)]


def check_max_stable(quick: bool = False) -> tuple[str, list[Check]]:
    """Poisson-profile construction: standard Frechet marginals, the
    finite-dimensional df formula, and invariance under scaled m-fold maxima."""
    n = 2_000 if quick else 10_000
    spec = SpectralProfileSpec(GAUSSIAN_MOVING_MAX)
    grid = _grid_for(spec.kind)
    cfg = PenroseConfig(spec, grid, truncation=1e-4)
    marginal, mmax = construction_checks(cfg, n, SEED)

    sites = np.array([grid.n_sites // 4, grid.n_sites // 2, (3 * grid.n_sites) // 4])
    points = [(1.0, 1.0, 1.0), (2.0, 1.5, 1.2), (0.8, 1.5, 1.0)]
    rng = make_rng(SEED, "maxstable_findim")
    n_emp = 2 * n
    eta_fd = sample_max_stable_batch(cfg, n_emp, rng, lambda eta: eta[:, sites])
    worst_z = 0.0
    for x in points:
        est, se = findim_evd(cfg, x, sites, n_mc=20 * n, rng=rng, return_se=True)
        emp = float(np.mean(np.all(eta_fd <= np.asarray(x), axis=1)))
        emp_se = np.sqrt(emp * (1.0 - emp) / n_emp)
        pooled = float(np.hypot(se, emp_se))
        worst_z = max(worst_z, abs(est - emp) / pooled)
    findim = Check("findim_worst_z", worst_z, 3.0, worst_z <= 3.0)
    return "max_stable_validation", [marginal, findim, mmax]


def check_lifting_exact(quick: bool = False) -> tuple[str, list[Check]]:
    """With exact Pareto norming (gamma = 1, a_t = b_t = t) lifting is exact
    multiplication by t0, entrywise to 1 ulp; and the lifted supremum law
    matches the selected supremum law one threshold down."""
    t, t0 = 2.0, 10.0
    n = 1_000 if quick else 2_500

    # exactness arm: flat and zero-or-peak profiles keep every site value
    # either 0 or >= 1, where the affine chain collapses without rounding
    max_ulp = 0.0
    for kind in (CONSTANT, BERNOULLI_PAIR):
        spec = SpectralProfileSpec(kind)
        grid = _grid_for(kind)
        rng = make_rng(SEED, f"lift_exact_{kind}")
        _, _, x = sample_simple_pareto_batch(spec, grid, n, rng)
        data = FieldSample(grid, x)
        nf = NormingFunctions.constant(grid, gamma=1.0, a_t=t, b_t=t, t=t)
        report = lift(data, nf, t0)
        reference = t0 * x[report.selected_ids]
        spacing = np.spacing(np.maximum(np.abs(reference), np.abs(report.lifted)))
        entry_ulp = np.abs(report.lifted - reference) / spacing
        max_ulp = max(max_ulp, float(entry_ulp.max()))

    # distributional arm: independent batches, sup of lifted fields at the
    # lifted threshold versus sup of selected fields at the base threshold
    spec = SpectralProfileSpec(GAUSSIAN_MOVING_MAX)
    grid = _grid_for(spec.kind)
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=t, b_t=t, t=t)
    rng = make_rng(SEED, "lift_distributional")
    n_fields = 1_500 if quick else 3_000  # about half get selected at t = 2
    _, _, x1 = sample_simple_pareto_batch(spec, grid, n_fields, rng)
    # the base batch is read only through its sups above t
    sup_base = per_field_blocks(spec, grid, n_fields, rng,
                                lambda w: (sup := w.max(axis=1))[sup > t]) / t
    report = lift(FieldSample(grid, x1), nf, t0)
    n_selected = float(len(report.selected_ids))
    sup_lifted = report.lifted.max(axis=1) / (t0 * t)
    pval = two_sample_ks_pvalue(sup_lifted, sup_base)
    return "lifting_exactness", [
        Check("max_entry_ulp", max_ulp, 1.0, max_ulp <= 1.0),
        Check("lifted_sup_ks_p", pval, 0.01, pval > 0.01),
        Check("n_selected", n_selected, 500.0, n_selected >= 500),
    ]


def check_estimator_sanity(quick: bool = False) -> tuple[str, list[Check]]:
    """Moment estimator recovers gamma = 1 on standard Pareto samples and
    gamma = -1 on uniform samples (median absolute error over replications)."""
    n, k = 10_000, 500
    reps = 10 if quick else 50
    rng = make_rng(SEED, "estimator_sanity")
    grid = Grid.regular(2)
    gates = []
    for label, target in (("pareto", 1.0), ("uniform", -1.0)):
        errors = []
        for _ in range(reps):
            if label == "pareto":
                values = sample_radii(2 * n, rng).reshape(n, 2)
            else:
                values = rng.random((n, 2))
            nf = estimate_norming(FieldSample(grid, values), k)
            errors.append(abs(nf.gamma.values[0] - target))
        median = float(np.median(errors))
        gates.append(Check(f"median_gamma_error_{label}", median, 0.15, median < 0.15))
    return "estimator_sanity", gates


def check_storm_scenario(quick: bool = False) -> tuple[str, list[Check]]:
    """End-to-end powered moving-maximum scenario: the pipeline completes,
    selection is nondegenerate on average, and every lifted field clears the
    lifted threshold."""
    reps = 30 if quick else 200
    n, k, t0 = 20, 5, 10.0
    rng = make_rng(SEED, "storm_scenario")
    counts = []
    lowest = np.inf
    for _ in range(reps):
        report = run_storm_scenario(n, k, t0, rng)
        counts.append(len(report.selected_ids))
        renorm = apply_T_values(report.lifted, report.norming)
        # an empty selection has no lifted field below t0
        lowest = min(lowest, float(renorm.max(axis=1).min(initial=np.inf)))
    mean_count = float(np.mean(counts))
    return "storm_scenario", [
        Check("mean_selected_above", mean_count, 1.0, mean_count > 1.0),
        Check("mean_selected_below", mean_count, n - 1.0, mean_count < n - 1.0),
        Check("min_lifted_sup", lowest, t0, lowest > t0),
    ]


CHECKS = [
    check_sup_pareto_law,
    check_pot_stability,
    check_bivariate_closed_form,
    check_formula_vs_empirical,
    check_generalized_stability,
    check_max_stable,
    check_lifting_exact,
    check_estimator_sanity,
    check_storm_scenario,
]


def run_all(quick: bool = False) -> list[CheckResult]:
    return [run_check(check, quick) for check in CHECKS]


def format_line(result: CheckResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    gates = "; ".join(map(str, result.checks))
    return f"{status}  {result.name:<24s} {gates} [{result.seconds:.1f}s]"
