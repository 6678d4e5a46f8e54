"""Acceptance suite: one test per end-to-end distributional guarantee, at full
Monte Carlo size, printing one PASS/FAIL line each (run with -s to see them
live). All tolerances are fixed here or in paretoproc.verify; seeds are fixed
so the suite is deterministic."""

import pytest

from paretoproc import verify


def _run(check):
    result = verify.run_check(check, quick=False)
    print(verify.format_line(result))
    assert result.passed, verify.format_line(result)


def test_criterion_1_sup_pareto_law():
    # KS of sup W / omega0 against standard Pareto, n = 1e5, every family,
    # statistic below the 1% critical value (about 1.63/sqrt(n))
    _run(verify.check_sup_pareto_law)


def test_criterion_2_pot_stability():
    # conditional (rejection) vs stability-path angle samples at a fixed
    # site: two-sample KS p > 0.01 at n = 1e4 per arm, r in {2, 5}
    _run(verify.check_pot_stability)


def test_criterion_3_bivariate_closed_form():
    # two-site closed form at the 6-point battery, 1e-3 absolute at n_mc=1e6
    _run(verify.check_bivariate_closed_form)


def test_criterion_4_formula_empirical_equivalence():
    # 5-query battery x 4 families x 20 seeds: >= 95% of cells within
    # 3 pooled standard errors
    _run(verify.check_formula_vs_empirical)


def test_criterion_5_generalized_stability():
    # (u(r), s(r)) renormalization conditioned on a sup exceedance matches
    # the base law: KS p > 0.01, n = 1e4 per arm, r in {2, 10}, two
    # parameter configurations including a sign-mixed shape field
    _run(verify.check_generalized_stability)


def test_criterion_6_max_stable_validation():
    # marginal Frechet KS at 1% (truncation 1e-4, n = 1e4), finite-dimensional
    # df within 3 SE at 3 points, m-max self-similarity KS p > 0.01 at m = 4
    _run(verify.check_max_stable)


def test_criterion_7_lifting_exactness():
    # gamma = 1, a_t = b_t = t: lifted equals t0 * X to 1 ulp per entry;
    # selection law preserved (KS p > 0.01, >= 500 selected)
    _run(verify.check_lifting_exact)


def test_criterion_8_estimator_sanity():
    # moment estimator at n = 1e4, k = 500: median absolute error over 50
    # replications < 0.15 for Pareto (gamma 1) and uniform (gamma -1) input
    _run(verify.check_estimator_sanity)


def test_criterion_9_storm_scenario():
    # end-to-end scenario at n = 20, t0 = 10 over 200 replications: mean
    # selected count inside (1, 19) and every lifted field above the lifted
    # threshold
    _run(verify.check_storm_scenario)


@pytest.fixture(scope="session", autouse=True)
def _summary_header():
    print()
    print("acceptance criteria:")
    yield
