import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from paretoproc import dfeval, grid, spectral
from paretoproc.dfeval import (
    DfQuery,
    bernoulli_pair_cdf,
    conditional_sup_tail,
    default_battery,
    df_findim,
    df_generalized,
    df_leq_general,
    df_leq_positive,
    direct_frequency,
    evaluate,
    marginal_conditional_tail,
    queries_from_json,
    run_battery,
    survival_gt,
)
from paretoproc.errors import GridMismatch, NonPositiveArgument, OutOfSupport, PreconditionFailed
from paretoproc.grid import Field, Grid
from paretoproc.maxstable import PenroseConfig, construction_checks, findim_evd
from paretoproc.pareto import sample_simple_pareto_batch
from paretoproc.rng import make_rng
from paretoproc.spectral import SpectralProfileSpec
from paretoproc.transforms import GpParams

CONST = SpectralProfileSpec("constant", omega0=1.0)
BP = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
GMM = SpectralProfileSpec("gaussian_moving_max", omega0=1.0)


def flat(grid, c):
    return Field(grid, np.full(grid.n_sites, float(c)))


def test_leq_positive_constant_profile_exact():
    g = Grid.regular(5)
    res = df_leq_positive(DfQuery(flat(g, 2.0), "LEQ", 500, 0), CONST, g)
    assert res.estimate == 0.5 and res.std_error == 0.0
    res = df_leq_positive(DfQuery(flat(g, 0.5), "LEQ", 500, 0), CONST, g)
    assert res.estimate == 0.0


def test_leq_positive_rejects_zero_entries():
    g = Grid.regular(2)
    q = DfQuery(Field(g, [1.0, 0.0]), "LEQ", 100, 0)
    with pytest.raises(NonPositiveArgument):
        df_leq_positive(q, BP, g)


def test_leq_positive_matches_direct_simulation():
    g = Grid.regular(51)
    q = DfQuery(flat(g, 2.0), "LEQ", 40_000, 1)
    res = df_leq_positive(q, GMM, g)
    p, se = direct_frequency(GMM, g, q.w.values, "LEQ", 100_000, make_rng(2, "dir"))
    assert abs(res.estimate - p) <= 3.0 * np.hypot(res.std_error, se)


def test_leq_general_bernoulli_zero_row():
    # mass on the first axis only: half a univariate Pareto tail
    g = Grid.regular(2)
    for x, expected in ((2.0, 0.25), (4.0, 0.375)):
        q = DfQuery(Field(g, [x, 0.0]), "LEQ", 400_000, 3)
        res = df_leq_general(q, BP, g)
        assert abs(res.estimate - expected) <= max(3.0 * res.std_error, 1e-3)


def test_evaluate_sends_a_leq_query_with_a_zero_entry_to_the_general_formula():
    # bernoulli_pair mass on the first axis only: P(W <= (2, 0)) = 1/4
    g = Grid.regular(2)
    q = DfQuery(Field(g, [2.0, 0.0]), "LEQ", 20_000, 3)
    res = df_leq_general(q, BP, g)
    assert evaluate(q, BP, g) == res
    (row,) = run_battery(BP, g, [q], n_direct=20_000, seed=1)
    assert row.passed and (row.estimate, row.std_error) == tuple(res)


def test_leq_general_below_sphere_has_no_mass():
    g = Grid.regular(2)
    res = df_leq_general(DfQuery(Field(g, [0.5, 0.5]), "LEQ", 10_000, 0), BP, g)
    assert res.estimate == 0.0 and res.no_mass


@pytest.mark.parametrize("spec, n_sites", [(CONST, 11), (BP, 2), (GMM, 11),
                                           (SpectralProfileSpec("rescaled_positive_field"), 11)])
def test_leq_positive_and_general_agree_on_positive_w(spec, n_sites):
    g = Grid.regular(n_sites)
    queries = [q for q in default_battery(g, n_mc=2_000, seed=3) if q.mode == "LEQ"]
    if spec is BP:
        queries.append(DfQuery(Field(g, [0.5, 0.5]), "LEQ", 2_000, 0))  # no mass
    for q in queries:
        assert df_leq_positive(q, spec, g) == df_leq_general(q, spec, g)


def test_leq_general_bernoulli_both_axes():
    g = Grid.regular(2)
    res = df_leq_general(DfQuery(Field(g, [2.0, 2.0]), "LEQ", 100_000, 4), BP, g)
    assert abs(res.estimate - 0.5) <= 1e-12  # per-draw value is 1/2 either way


def test_survival_constant_exact():
    g = Grid.regular(4)
    res = survival_gt(DfQuery(flat(g, 4.0), "GT", 500, 0), CONST, g)
    assert res.estimate == 0.25 and res.std_error == 0.0


def test_survival_zero_for_vanishing_profiles():
    g = Grid.regular(2)
    res = survival_gt(DfQuery(Field(g, [0.3, 0.3]), "GT", 5_000, 0), BP, g)
    assert res.estimate == 0.0 and res.no_mass


def test_survival_statistic_is_exact_for_every_w():
    # a bump that falls to a subnormal value: V / w stays finite there; a profile
    # at or above w everywhere gives W = Y V > w surely, since Y > 1
    profiles = np.array([[1.0, 1e-310], [1.0, 1.0], [1.0, 3.0], [0.5, 2.0]])
    w = np.array([0.5, 2.0])
    values = dfeval._per_draw(profiles, w, "GT")
    assert np.array_equal(values, [1e-310 / 2.0, 0.5, 1.0, 1.0])


@pytest.mark.parametrize("mode", dfeval.MODES)
@pytest.mark.parametrize("w", [[0.5, 2.0, 1e-310], [0.0, 2.0, 1e-310], [0.0, 0.0, 0.0]])
def test_per_draw_skips_the_nan_pass_only_where_it_changes_nothing(mode, w):
    # the reference maps every NaN and inf of V / w, whatever w holds
    profiles = np.array([[1.0, 0.0, 3.0], [0.0, 1e-310, 1.0], [0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
    w = np.array(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.nan_to_num(profiles / w)
    sup = np.minimum(1.0, r.max(axis=1))
    expected = {"GT": np.minimum(1.0, r.min(axis=1)), "LEQ": 1.0 - sup, "NOT_LEQ": sup}[mode]
    assert np.array_equal(dfeval._per_draw(profiles, w, mode), expected)


@pytest.mark.parametrize("mode, expected", [("LEQ", 0.0), ("GT", 1.0), ("NOT_LEQ", 1.0)])
def test_evaluate_at_a_subnormal_w_is_quiet(mode, expected):
    # V / w overflows to inf at most sites; the statistic caps every ratio at 1
    g = Grid.regular(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = evaluate(DfQuery(flat(g, 1e-310), mode, 500, 0), GMM, g)
    assert (res.estimate, res.std_error, res.no_mass) == (expected, 0.0, expected == 0.0)


def test_survival_matches_direct_simulation():
    spec = SpectralProfileSpec("rescaled_positive_field")
    g = Grid.regular(31)
    q = DfQuery(flat(g, 1.3), "GT", 40_000, 5)
    res = survival_gt(q, spec, g)
    p, se = direct_frequency(spec, g, q.w.values, "GT", 100_000, make_rng(6, "dics"))
    assert abs(res.estimate - p) <= 3.0 * np.hypot(res.std_error, se)


def test_not_leq_is_complement_of_leq_with_shared_draws():
    g = Grid.regular(21)
    w = Field(g, 1.5 + g.coords())
    leq = evaluate(DfQuery(w, "LEQ", 20_000, 7), GMM, g)
    not_leq = evaluate(DfQuery(w, "NOT_LEQ", 20_000, 7), GMM, g)
    np.testing.assert_allclose(leq.estimate + not_leq.estimate, 1.0, rtol=1e-12)


def test_conditional_sup_tail():
    g = Grid.regular(5)
    assert conditional_sup_tail(CONST, g, 5.0, n_sim=20_000, rng=make_rng(0, "c")) == pytest.approx(0.2, abs=0.02)
    assert conditional_sup_tail(CONST, g, 0.5, n_sim=5_000, rng=make_rng(0, "c")) == 1.0
    with pytest.raises(PreconditionFailed):
        conditional_sup_tail(BP, Grid.regular(2), 2.0, n_sim=1_000, rng=make_rng(0, "c"))
    with pytest.raises(PreconditionFailed, match="no conditioning events"):
        conditional_sup_tail(CONST, g, 2.0, n_sim=0, rng=make_rng(0, "c"))
    rpf = SpectralProfileSpec("rescaled_positive_field")
    est = conditional_sup_tail(rpf, Grid.regular(21), 2.0, n_sim=200_000, rng=make_rng(1, "c"))
    # contract: omega0 / x
    assert est == pytest.approx(0.5, abs=0.05)


def test_marginal_conditional_tail():
    g = Grid.regular(5)
    assert marginal_conditional_tail(CONST, g, 2, 2.0, n_sim=50_000, rng=make_rng(2, "m")) == pytest.approx(0.5, abs=0.02)
    assert marginal_conditional_tail(CONST, g, 0, 0.5, n_sim=5_000, rng=make_rng(2, "m")) == 1.0
    with pytest.raises(PreconditionFailed, match="no exceedances of omega0 at site 2"):
        marginal_conditional_tail(CONST, g, 2, 2.0, n_sim=0, rng=make_rng(2, "m"))
    est = marginal_conditional_tail(GMM, Grid.regular(51), 25, 2.0, n_sim=200_000, rng=make_rng(3, "m"))
    assert est == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("site", [-1, 5, 1.7, 1.5, True])  # a float or bool is not cast
@pytest.mark.parametrize("tail", ["findim_evd", "marginal_conditional_tail"])
def test_site_index_outside_the_grid_is_rejected_before_any_draw(tail, site):
    g = Grid.regular(5)
    rng = make_rng(0, "sites")
    with pytest.raises(ValueError, match=r"site indices must lie in 0\.\.4"):
        if tail == "findim_evd":
            findim_evd(PenroseConfig(CONST, g), [2.0], [site], n_mc=100, rng=rng)
        else:
            marginal_conditional_tail(CONST, g, site, 2.0, n_sim=100, rng=rng)
    assert rng.random() == make_rng(0, "sites").random()  # nothing was drawn


@pytest.mark.parametrize("tail", ["conditional_sup_tail", "marginal_conditional_tail"])
def test_nan_tail_level_is_rejected_before_any_draw(tail):
    # no value exceeds a NaN level, so both tails read 0.0 for it
    g = Grid.regular(5)
    rng = make_rng(0, "nan_level")
    with pytest.raises(ValueError, match="x must be a number, not NaN"):
        if tail == "conditional_sup_tail":
            conditional_sup_tail(CONST, g, np.nan, 1_000, rng)
        else:
            marginal_conditional_tail(CONST, g, 2, np.nan, 1_000, rng)
    assert rng.random() == make_rng(0, "nan_level").random()  # nothing was drawn


@pytest.mark.parametrize("seed", [2.5, True, -1])
def test_query_seed_is_a_nonnegative_integer(seed):
    # a float seed reached numpy's SeedSequence at the draw, and True ran as seed 1
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        DfQuery(flat(Grid.regular(5), 2.0), "LEQ", 100, seed)


@pytest.mark.parametrize("seed", [2.5, True, -1])
@pytest.mark.parametrize("call", [
    pytest.param(lambda seed: make_rng(seed, "stream"), id="make_rng"),
    pytest.param(lambda seed: construction_checks(
        PenroseConfig(CONST, Grid.regular(5)), 10, seed), id="construction_checks"),
    pytest.param(lambda seed: run_battery(
        CONST, Grid.regular(5), default_battery(Grid.regular(5), 100), 100, seed), id="run_battery"),
    pytest.param(lambda seed: default_battery(Grid.regular(5), 100, seed), id="default_battery"),
    pytest.param(lambda seed: df_findim([2.0, 2.0], BP, 2, 100, seed), id="df_findim"),
])
def test_every_seed_is_a_nonnegative_integer_before_any_draw(monkeypatch, call, seed):
    # make_rng handed any seed to SeedSequence: 2.5 raised numpy's TypeError and
    # True ran as seed 1. No generator is built, so nothing is drawn
    built = []
    monkeypatch.setattr(np.random, "Philox", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        call(seed)
    assert built == []


def test_df_generalized_reduces_to_shifted_simple_df():
    g = Grid.regular(31)
    p = GpParams.constant(g, mu=0.0, sigma=1.0, gamma=1.0)
    w = flat(g, 2.0)
    gen = df_generalized(DfQuery(w, "LEQ", 20_000, 8), p, GMM, g)
    simple = df_leq_positive(DfQuery(flat(g, 3.0), "LEQ", 20_000, 8), GMM, g)
    assert gen.estimate == simple.estimate  # same seed, argument 1 + w


def test_df_generalized_log_chain_exact():
    g = Grid.regular(5)
    p = GpParams.constant(g, mu=0.0, sigma=1.0, gamma=0.0)
    c = np.log(2.0)
    res = df_generalized(DfQuery(flat(g, c), "LEQ", 500, 0), p, CONST, g)
    np.testing.assert_allclose(res.estimate, 0.5, rtol=1e-12)


def test_df_generalized_out_of_support():
    g = Grid.regular(5)
    p = GpParams.constant(g, mu=0.0, sigma=1.0, gamma=-0.5)
    with pytest.raises(OutOfSupport):
        df_generalized(DfQuery(flat(g, 3.0), "LEQ", 100, 0), p, CONST, g)


def test_df_generalized_rejects_parameters_on_another_grid():
    g = Grid.regular(3)
    p = GpParams.constant(Grid([0.0, 2.0, 5.0]), mu=0.0, sigma=1.0, gamma=0.5)
    with pytest.raises(GridMismatch):
        df_generalized(DfQuery(flat(g, 3.0), "LEQ", 100, 0), p, CONST, g)


def test_df_generalized_matches_direct_simulation():
    g = Grid.regular(31)
    s = g.coords()
    p = GpParams(Field(g, 0.5 + s), Field(g, 1.0 + s), Field(g, np.full(31, 0.4)))
    w = flat(g, 4.0)
    res = df_generalized(DfQuery(w, "LEQ", 40_000, 9), p, GMM, g)
    # direct route: simulate W, transform, compare frequencies
    from paretoproc.pareto import sample_simple_pareto_batch
    from paretoproc.transforms import power_transform_values

    n = 100_000
    _, _, sim = sample_simple_pareto_batch(GMM, g, n, make_rng(10, "gd"))
    gen = p.mu.values + p.sigma.values * power_transform_values(sim, p.gamma.values)
    p_hat = np.all(gen <= w.values, axis=1).mean()
    se = np.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(res.estimate - p_hat) <= 3.0 * np.hypot(res.std_error, se)


def test_df_findim_closed_form_battery():
    expected = {
        (2.0, 2.0): 0.5,
        (2.0, 0.5): 0.25,
        (0.5, 2.0): 0.25,
        (0.5, 0.5): 0.0,
        (4.0, 4.0): 0.75,
        (1.0, 1.0): 0.0,
    }
    for (x, y), value in expected.items():
        assert bernoulli_pair_cdf(x, y) == pytest.approx(value, abs=1e-15)
        res = df_findim((x, y), BP, 2, n_mc=200_000, seed=11)
        assert res.estimate == pytest.approx(value, abs=3e-3)


@pytest.mark.parametrize("x, omega0, message", [
    (np.nan, 1.0, "x and y must not be NaN"),
    (1.0, 0.0, "omega0 must be positive and finite"),
])
def test_bernoulli_pair_cdf_rejects_a_nan_point_or_a_zero_omega0(x, omega0, message):
    with pytest.raises(ValueError, match=message):
        bernoulli_pair_cdf(x, 1.0, omega0)


@pytest.mark.parametrize("w", [(np.nan, 1.0), (-0.5, 1.0)])
def test_df_findim_rejects_a_negative_or_nan_argument(w):
    with pytest.raises(ValueError, match="nonnegative"):
        df_findim(w, BP, 2, n_mc=10)


def test_df_leq_monotone_in_w_with_shared_draws():
    g = Grid.regular(21)
    levels = [1.2, 2.0, 3.5, 6.0]
    estimates = [
        evaluate(DfQuery(flat(g, c), "LEQ", 20_000, 12), GMM, g).estimate
        for c in levels
    ]
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))


def test_leq_plus_gt_at_most_one_and_exact_on_single_effective_site():
    spec = SpectralProfileSpec("rescaled_positive_field")
    g = Grid.regular(11)
    w = flat(g, 1.5)
    leq = evaluate(DfQuery(w, "LEQ", 20_000, 13), spec, g)
    gt = evaluate(DfQuery(w, "GT", 20_000, 13), spec, g)
    assert leq.estimate + gt.estimate <= 1.0 + 1e-12
    # constant profile on any grid acts like a single site: exact partition
    leq_c = evaluate(DfQuery(flat(g, 2.0), "LEQ", 500, 0), CONST, g)
    gt_c = evaluate(DfQuery(flat(g, 2.0), "GT", 500, 0), CONST, g)
    np.testing.assert_allclose(leq_c.estimate + gt_c.estimate, 1.0, rtol=1e-12)


def test_run_battery_all_pass_and_csv(tmp_path):
    from paretoproc.dfeval import battery_to_csv

    g = Grid.regular(21)
    rows = run_battery(GMM, g, default_battery(g, n_mc=4_000, seed=0), n_direct=8_000, seed=1)
    assert len(rows) == 5
    assert all(r.passed for r in rows)
    out = tmp_path / "battery.csv"
    battery_to_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "query_id,estimate,std_error,oracle_estimate,oracle_se,pass"
    assert len(lines) == 6


@pytest.mark.parametrize("spec", [
    SpectralProfileSpec(kind, omega0=omega0) for omega0 in (0.3, 2.5)
    for kind in ("constant", "bernoulli_pair", "gaussian_moving_max", "rescaled_positive_field")
] + [SpectralProfileSpec("gaussian_moving_max", bandwidth=0.02),
     SpectralProfileSpec("rescaled_positive_field", corr_length=0.05)], ids=repr)
def test_run_battery_passes_away_from_the_default_parameters(spec):
    # the battery's levels are in units of the family's omega0
    g = Grid.regular(2 if spec.kind == "bernoulli_pair" else 11)
    queries = default_battery(g, n_mc=4_000, seed=0, omega0=spec.omega0)
    rows = run_battery(spec, g, queries, n_direct=8_000, seed=1)
    assert [r.query_id for r in rows if not r.passed] == []


def test_queries_from_json(tmp_path):
    g = Grid.regular(3)
    path = tmp_path / "queries.json"
    path.write_text(
        '[{"mode": "LEQ", "w": 2.0, "n_mc": 500, "seed": 4},'
        ' {"mode": "GT", "w": [1.5, 2.0, 2.5]}]'
    )
    queries = queries_from_json(path, g)
    assert queries[0].mode == "LEQ"
    assert np.array_equal(queries[0].w.values, [2.0, 2.0, 2.0])
    assert queries[0].n_mc == 500 and queries[0].seed == 4
    assert np.array_equal(queries[1].w.values, [1.5, 2.0, 2.5])


def test_direct_frequency_counts_the_one_shot_batch_over_blocks():
    # all n radii first, then the profile blocks: the draws and hit counts of
    # one sample_simple_pareto_batch call
    g = Grid.regular(51)
    n = 3 * (spectral.BLOCK_CELLS // g.n_sites) + 7
    w = 1.5 + g.coords()
    _, _, sim = sample_simple_pareto_batch(GMM, g, n, make_rng(3, "one_shot"))
    for mode, hits in (("LEQ", np.all(sim <= w, axis=1)), ("GT", np.all(sim > w, axis=1)),
                       ("NOT_LEQ", np.any(sim > w, axis=1))):
        p, se = direct_frequency(GMM, g, w, mode, n, make_rng(3, "one_shot"))
        assert (p, se) == (hits.mean(), np.sqrt(hits.mean() * (1.0 - hits.mean()) / n))


def test_run_battery_rows_equal_threaded_and_in_process(monkeypatch):
    g = Grid.regular(21)
    spec = SpectralProfileSpec("rescaled_positive_field")
    queries = default_battery(g, n_mc=3_000, seed=4)
    on_main = set()
    direct = dfeval.direct_frequency

    def recorded(*args):
        on_main.add(threading.current_thread() is threading.main_thread())
        return direct(*args)

    monkeypatch.setattr(dfeval, "direct_frequency", recorded)
    before = threading.active_count()
    rows = {}
    for cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                            raising=False)
        on_main.clear()
        # the shared set-up and factor caches start empty; the threads switch often
        spectral._draw_setup.cache_clear()
        spectral._sq_exp_factor.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows[cpus] = run_battery(spec, g, queries, n_direct=6_000, seed=2)
        finally:
            sys.setswitchinterval(interval)
        assert on_main == {cpus == 1}  # the direct arm has its own thread on two CPUs
        assert threading.active_count() == before
    assert rows[2] == rows[1]


def test_run_battery_builds_each_factor_once_with_two_arms(monkeypatch):
    # a slow eigh keeps both arms inside the factor cache's miss unless the
    # set-up is made before they start
    g = Grid(np.random.default_rng(8).random((300, 2)))
    spec = SpectralProfileSpec("rescaled_positive_field")
    queries = [DfQuery(flat(g, 3.0), "NOT_LEQ", 200, 1)]
    eigh, calls = np.linalg.eigh, []

    def slow_eigh(a):
        calls.append(1)
        time.sleep(0.05)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", slow_eigh)
    rows = {}
    for cpus in (2, 1):
        monkeypatch.setattr(grid, "_cpus", lambda c=cpus: c)
        spectral._draw_setup.cache_clear()
        spectral._sq_exp_factor.cache_clear()
        calls.clear()
        rows[cpus] = run_battery(spec, g, queries, n_direct=200, seed=5)
        assert len(calls) == 1
    assert rows[2] == rows[1]


def test_run_battery_raises_the_formula_error_after_joining_the_direct_arm(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    g = Grid.regular(5)
    other = Grid.regular(5, hi=2.0)
    before = threading.active_count()
    with pytest.raises(ValueError, match="query field and grid disagree"):
        run_battery(GMM, g, [DfQuery(flat(other, 2.0), "LEQ", 100, 0)], n_direct=100)
    assert threading.active_count() == before
