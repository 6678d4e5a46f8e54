"""End-to-end verification checks.

Each check exercises one distributional guarantee of the toolkit at a fixed
seed and either its full Monte Carlo size or a reduced "quick" size (same
logic, looser derived tolerances where the size enters the bound). The
acceptance test suite runs the full versions; ``paretoproc verify-all`` runs
either set and reports one line per check.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dfeval import (
    bernoulli_pair_cdf,
    default_battery,
    df_findim,
    run_battery,
)
from .gof import (
    ks_critical_value,
    ks_statistic,
    standard_pareto_cdf,
    two_sample_ks_pvalue,
)
from .grid import Field, Grid
from .lifting import FieldSample, estimate_norming, lift, run_storm_scenario
from .maxstable import PenroseConfig, construction_checks, findim_evd, sample_max_stable_batch
from .pareto import pot_conditional_batch, sample_simple_pareto_batch
from .rng import fill_rows, make_rng
from .spectral import (
    BERNOULLI_PAIR,
    CONSTANT,
    GAUSSIAN_MOVING_MAX,
    RESCALED_POSITIVE_FIELD,
    SpectralProfileSpec,
)
from .transforms import (
    GpParams,
    NormingFunctions,
    apply_T_values,
    inv_power_transform_values,
    power_transform_values,
    stability_norming,
)

SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name: str, passed: bool, detail: str, start: float) -> CheckResult:
    return CheckResult(name, bool(passed), detail, time.perf_counter() - start)


def _grid_for(kind: str, n_sites: int = 101) -> Grid:
    return Grid.regular(2) if kind == BERNOULLI_PAIR else Grid.regular(n_sites)


def _all_specs() -> list[SpectralProfileSpec]:
    return [
        SpectralProfileSpec(CONSTANT),
        SpectralProfileSpec(GAUSSIAN_MOVING_MAX),
        SpectralProfileSpec(RESCALED_POSITIVE_FIELD),
        SpectralProfileSpec(BERNOULLI_PAIR),
    ]


def check_sup_pareto_law(quick: bool = False) -> CheckResult:
    """Supremum law: omega0^-1 sup W is standard Pareto for every built-in
    profile family (one-sample KS below the 1% critical value)."""
    start = time.perf_counter()
    n = 20_000 if quick else 100_000
    crit = ks_critical_value(n, alpha=0.01)
    worst = 0.0
    for i, spec in enumerate(_all_specs()):
        grid = _grid_for(spec.kind)
        rng = make_rng(SEED, f"sup_pareto_{spec.kind}")
        _, _, w = sample_simple_pareto_batch(spec, grid, n, rng)
        stat = ks_statistic(w.max(axis=1) / spec.omega0, standard_pareto_cdf)
        worst = max(worst, stat)
    return _timed(
        "sup_pareto_law",
        worst < crit,
        f"worst KS {worst:.5f} vs critical {crit:.5f} (n={n})",
        start,
    )


def check_pot_stability(quick: bool = False) -> CheckResult:
    """Angle law above a threshold equals the unconditional angle law:
    rejection-path versus stability-path samples, two-sample KS."""
    start = time.perf_counter()
    n = 2_000 if quick else 10_000
    spec = SpectralProfileSpec(GAUSSIAN_MOVING_MAX)
    grid = _grid_for(spec.kind)
    site = grid.n_sites // 2
    pvals = []
    for r in (2.0, 5.0):
        rng = make_rng(SEED, f"pot_stability_r{r:g}")
        _, v_rej, _ = pot_conditional_batch(spec, grid, r, n, rng, method="rejection")
        _, v_stab, _ = pot_conditional_batch(spec, grid, r, n, rng, method="stability")
        pvals.append(two_sample_ks_pvalue(v_rej[:, site], v_stab[:, site]))
    passed = all(p > 0.01 for p in pvals)
    return _timed(
        "pot_stability",
        passed,
        f"two-sample KS p-values {[f'{p:.3f}' for p in pvals]} (r=2,5; n={n}/arm)",
        start,
    )


# Evaluation points for the two-site closed form; expected values computed
# from the piecewise df of (Y*B, Y*(1-B)): each coordinate carries half a
# univariate Pareto tail, so the df is the sum of the two axis masses.
BIVARIATE_BATTERY = [
    ((2.0, 2.0), 0.5),
    ((2.0, 0.5), 0.25),
    ((0.5, 2.0), 0.25),
    ((0.5, 0.5), 0.0),
    ((4.0, 4.0), 0.75),
    ((1.0, 1.0), 0.0),
]


def check_bivariate_closed_form(quick: bool = False) -> CheckResult:
    """Two-site zero-or-peak vector: Monte Carlo df against the closed form."""
    start = time.perf_counter()
    n_mc = 100_000 if quick else 1_000_000
    tol = 1e-3 * np.sqrt(1_000_000 / n_mc)
    spec = SpectralProfileSpec(BERNOULLI_PAIR)
    worst = 0.0
    for i, ((x, y), expected) in enumerate(BIVARIATE_BATTERY):
        assert expected == bernoulli_pair_cdf(x, y)
        res = df_findim((x, y), spec, 2, n_mc=n_mc, seed=SEED + i)
        worst = max(worst, abs(res.estimate - expected))
    return _timed(
        "bivariate_closed_form",
        worst <= tol,
        f"worst |error| {worst:.2e} vs tolerance {tol:.1e} (n_mc={n_mc})",
        start,
    )


def check_formula_vs_empirical(quick: bool = False) -> CheckResult:
    """Distribution formulas versus direct simulated frequencies over the
    five-query battery, every built-in family, many seeds; at least 95% of
    cells must agree within 3 pooled standard errors."""
    start = time.perf_counter()
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
    return _timed(
        "formula_vs_empirical",
        frac >= 0.95,
        f"{passed}/{total} battery cells within 3 pooled SE ({frac:.1%})",
        start,
    )


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


def check_generalized_stability(quick: bool = False) -> CheckResult:
    """Renormalizing the generalized process by (u(r), s(r)) and conditioning
    on a sup exceedance reproduces the base simple law (two-sample KS)."""
    start = time.perf_counter()
    n = 2_000 if quick else 10_000
    spec = SpectralProfileSpec(GAUSSIAN_MOVING_MAX)
    grid = _grid_for(spec.kind, n_sites=51)
    site = grid.n_sites // 2
    pvals = []
    for ci, p in enumerate(_generalized_configs(grid)):
        gamma = p.gamma.values
        for r in (2.0, 10.0):
            rng = make_rng(SEED, f"gen_stability_c{ci}_r{r:g}")

            def simple_level(size, u, s):
                # draw W, map it to the generalized process, renormalize by
                # (u, s) and return to the simple scale
                _, _, w = sample_simple_pareto_batch(spec, grid, size, rng)
                g = p.mu.values + p.sigma.values * power_transform_values(w, gamma)
                return inv_power_transform_values((g - u) / s, gamma)[0]

            # base arm: W recovered from the generalized process
            z_base = simple_level(n, p.mu.values, p.sigma.values)
            # renormalized arm: rescale by (u(r), s(r)), keep sup exceedances
            u_r, s_r = stability_norming(p, r)

            def renormalized(size):
                z = simple_level(size, u_r.values, s_r.values)
                return (z[z.max(axis=1) > p.omega0],)

            (z_renorm,) = fill_rows(n, lambda need: int(1.3 * need * r) + 1024, renormalized)
            pvals.append(two_sample_ks_pvalue(z_base[:, site], z_renorm[:, site]))
    passed = all(p > 0.01 for p in pvals)
    return _timed(
        "generalized_stability",
        passed,
        f"two-sample KS p-values {[f'{p:.3f}' for p in pvals]} "
        f"(2 configs x r=2,10; n={n}/arm)",
        start,
    )


def check_max_stable(quick: bool = False) -> CheckResult:
    """Poisson-profile construction: standard Frechet marginals, the
    finite-dimensional df formula, and invariance under scaled m-fold maxima."""
    start = time.perf_counter()
    n = 2_000 if quick else 10_000
    spec = SpectralProfileSpec(GAUSSIAN_MOVING_MAX)
    grid = _grid_for(spec.kind)
    cfg = PenroseConfig(spec, grid, truncation=1e-4)
    marginal, mmax = construction_checks(cfg, n, SEED)
    details = [f"marginal KS {marginal['statistic']:.5f} vs {marginal['threshold']:.5f}"]

    sites = np.array([grid.n_sites // 4, grid.n_sites // 2, (3 * grid.n_sites) // 4])
    points = [(1.0, 1.0, 1.0), (2.0, 1.5, 1.2), (0.8, 1.5, 1.0)]
    rng = make_rng(SEED, "maxstable_findim")
    n_emp = 2 * n
    eta_fd = sample_max_stable_batch(cfg, n_emp, rng)[:, sites]
    ok_findim = True
    for x in points:
        est, se = findim_evd(cfg, x, sites, n_mc=20 * n, rng=rng, return_se=True)
        emp = float(np.mean(np.all(eta_fd <= np.asarray(x), axis=1)))
        emp_se = np.sqrt(emp * (1.0 - emp) / n_emp)
        pooled = float(np.hypot(se, emp_se))
        ok_findim &= abs(est - emp) <= 3.0 * pooled
    details.append(f"findim within 3 SE at {len(points)} points: {ok_findim}")
    details.append(f"m-max KS p {mmax['statistic']:.3f}")

    return _timed(
        "max_stable_validation",
        marginal["passed"] and ok_findim and mmax["passed"],
        "; ".join(details),
        start,
    )


def check_lifting_exact(quick: bool = False) -> CheckResult:
    """With exact Pareto norming (gamma = 1, a_t = b_t = t) lifting is exact
    multiplication by t0, entrywise to 1 ulp; and the lifted supremum law
    matches the selected supremum law one threshold down."""
    start = time.perf_counter()
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
    ok_exact = max_ulp <= 1.0

    # distributional arm: independent batches, sup of lifted fields at the
    # lifted threshold versus sup of selected fields at the base threshold
    spec = SpectralProfileSpec(GAUSSIAN_MOVING_MAX)
    grid = _grid_for(spec.kind)
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=t, b_t=t, t=t)
    rng = make_rng(SEED, "lift_distributional")
    n_fields = 1_500 if quick else 3_000  # about half get selected at t = 2
    _, _, x1 = sample_simple_pareto_batch(spec, grid, n_fields, rng)
    _, _, x2 = sample_simple_pareto_batch(spec, grid, n_fields, rng)
    report = lift(FieldSample(grid, x1), nf, t0)
    n_selected = len(report.selected_ids)
    sup_lifted = report.lifted.max(axis=1) / (t0 * t)
    sup_base = x2.max(axis=1)
    sup_base = sup_base[sup_base > t] / t
    pval = two_sample_ks_pvalue(sup_lifted, sup_base)
    ok_dist = pval > 0.01 and n_selected >= 500

    return _timed(
        "lifting_exactness",
        ok_exact and ok_dist,
        f"max entry ulp {max_ulp:.2f}; distributional KS p {pval:.3f} "
        f"({n_selected} selected)",
        start,
    )


def check_estimator_sanity(quick: bool = False) -> CheckResult:
    """Moment estimator recovers gamma = 1 on standard Pareto samples and
    gamma = -1 on uniform samples (median absolute error over replications)."""
    start = time.perf_counter()
    n, k = 10_000, 500
    reps = 10 if quick else 50
    rng = make_rng(SEED, "estimator_sanity")
    grid = Grid.regular(2)
    medians = {}
    for label, target in (("pareto", 1.0), ("uniform", -1.0)):
        errors = []
        for _ in range(reps):
            if label == "pareto":
                values = 1.0 / (1.0 - rng.random((n, 2)))
            else:
                values = rng.random((n, 2))
            nf = estimate_norming(FieldSample(grid, values), k)
            errors.append(abs(nf.gamma.values[0] - target))
        medians[label] = float(np.median(errors))
    passed = all(m < 0.15 for m in medians.values())
    return _timed(
        "estimator_sanity",
        passed,
        f"median |gamma error| pareto {medians['pareto']:.3f}, "
        f"uniform {medians['uniform']:.3f} (n={n}, k={k}, {reps} reps)",
        start,
    )


def check_storm_scenario(quick: bool = False) -> CheckResult:
    """End-to-end powered moving-maximum scenario: the pipeline completes,
    selection is nondegenerate on average, and every lifted field clears the
    lifted threshold."""
    start = time.perf_counter()
    reps = 30 if quick else 200
    n, k, t0 = 20, 5, 10.0
    rng = make_rng(SEED, "storm_scenario")
    counts = []
    all_exceed = True
    for _ in range(reps):
        report = run_storm_scenario(n, k, t0, rng)
        counts.append(len(report.selected_ids))
        renorm = apply_T_values(report.lifted, report.norming)
        all_exceed &= bool(np.all(renorm.max(axis=1) > t0))
    mean_count = float(np.mean(counts))
    passed = 1.0 < mean_count < 19.0 and all_exceed
    return _timed(
        "storm_scenario",
        passed,
        f"mean selected {mean_count:.2f} of {n} over {reps} reps; "
        f"all lifted exceed t0: {all_exceed}",
        start,
    )


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
    return [check(quick=quick) for check in CHECKS]


def format_line(result: CheckResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status}  {result.name:<24s} {result.detail} [{result.seconds:.1f}s]"
