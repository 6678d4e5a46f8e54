import json
from dataclasses import fields

import numpy as np
import pytest

from paretoproc.errors import DegenerateTail, InsufficientData
from paretoproc.gof import two_sample_ks_pvalue
from paretoproc.grid import Grid
from paretoproc.lifting import (
    FieldSample,
    estimate_norming,
    field_sample_from_csv,
    field_sample_to_csv,
    lift,
    run_storm_scenario,
    sample_scenario_fields,
    scenario_index_field,
    select_exceedances,
    write_lift_report,
)
from paretoproc.pareto import sample_simple_pareto_batch
from paretoproc.rng import make_rng
from paretoproc.spectral import SpectralProfileSpec
from paretoproc.transforms import NormingFunctions, apply_T_values


def pareto_matrix(n, m, rng):
    return 1.0 / (1.0 - rng.random((n, m)))


def test_threshold_is_empirical_quantile_by_construction():
    rng = make_rng(0, "bq")
    n, k = 1_000, 50
    values = pareto_matrix(n, 3, rng)
    nf = estimate_norming(FieldSample(Grid.regular(3), values), k)
    expected = np.sort(values, axis=0)[n - k - 1]
    assert np.array_equal(nf.b_t.values, expected)
    assert nf.t == n / k and nf.k == k


def test_moment_estimator_recovers_pareto_shape():
    rng = make_rng(1, "mp")
    nf = estimate_norming(FieldSample(Grid.regular(2), pareto_matrix(10_000, 2, rng)), 500)
    assert np.all(np.abs(nf.gamma.values - 1.0) < 0.15)
    # scale estimate tracks the Pareto a_t = t at t = n/k = 20
    assert np.all(np.abs(nf.a_t.values / nf.t - 1.0) < 0.3)


def test_moment_estimator_recovers_uniform_shape():
    rng = make_rng(2, "mu")
    values = rng.random((10_000, 2))
    nf = estimate_norming(FieldSample(Grid.regular(2), values), 500)
    assert np.all(np.abs(nf.gamma.values - (-1.0)) < 0.15)


def test_estimate_norming_consistency_improves_with_n():
    # median absolute shape error shrinks along n with k = 5 sqrt(n)
    grid = Grid.regular(2)
    medians = []
    for n in (1_000, 10_000, 100_000):
        k = int(5 * np.sqrt(n))
        errs = []
        for rep in range(10):
            rng = make_rng(100 + rep, f"cons{n}")
            nf = estimate_norming(FieldSample(grid, pareto_matrix(n, 2, rng)), k)
            errs.append(abs(nf.gamma.values[0] - 1.0))
        medians.append(np.median(errs))
    assert medians[2] < medians[0]


def test_estimate_norming_input_validation():
    grid = Grid.regular(2)
    data = FieldSample(grid, pareto_matrix(100, 2, make_rng(3, "iv")))
    with pytest.raises(InsufficientData):
        estimate_norming(data, 1)
    with pytest.raises(InsufficientData):
        estimate_norming(data, 50)  # needs 2k <= n - 1
    tied = FieldSample(grid, np.ones((100, 2)))
    with pytest.raises(DegenerateTail):
        estimate_norming(tied, 10)


def test_selection_empty_when_all_below_threshold():
    grid = Grid.regular(3)
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=1.0, b_t=100.0, t=10.0)
    data = FieldSample(grid, np.full((20, 3), 1.0) + np.arange(20)[:, None] * 0.01)
    assert select_exceedances(data, nf) == []


def test_selection_fraction_matches_tail_mass():
    # Pareto input with true norming: selection is {sup X > t}, expected k/n
    spec = SpectralProfileSpec("constant")
    grid = Grid.regular(3)
    n, t = 20_000, 20.0
    _, _, x = sample_simple_pareto_batch(spec, grid, n, make_rng(4, "sf"))
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=t, b_t=t, t=t)
    selected = select_exceedances(FieldSample(grid, x), nf)
    frac = len(selected) / n
    expected = 1.0 / t
    assert abs(frac - expected) <= 3.0 * np.sqrt(expected * (1 - expected) / n)


def test_sites_policy_is_more_restrictive():
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(11)
    _, _, x = sample_simple_pareto_batch(spec, grid, 500, make_rng(5, "sp"))
    data = FieldSample(grid, x)
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=2.0, b_t=2.0, t=2.0)
    anywhere = set(select_exceedances(data, nf))
    all_sites = set(select_exceedances(data, nf, policy="sites", sites=list(range(11))))
    assert all_sites <= anywhere


def test_lift_exact_multiplication_for_pareto_norming():
    spec = SpectralProfileSpec("bernoulli_pair")
    grid = Grid.regular(2)
    _, _, x = sample_simple_pareto_batch(spec, grid, 500, make_rng(6, "lx"))
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=2.0, b_t=2.0, t=2.0)
    report = lift(FieldSample(grid, x), nf, t0=10.0)
    assert report.lifted.shape == (len(report.selected_ids), 2)
    assert not report.lifted.flags.writeable and not report.normalized.flags.writeable
    np.testing.assert_array_max_ulp(report.lifted, 10.0 * x[report.selected_ids], maxulp=1)


def test_lifted_fields_exceed_lifted_threshold():
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(21)
    _, _, x = sample_simple_pareto_batch(spec, grid, 300, make_rng(7, "lt"))
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=2.0, b_t=2.0, t=2.0)
    t0 = 10.0
    report = lift(FieldSample(grid, x), nf, t0)
    assert report.selected_ids
    assert np.all(apply_T_values(report.lifted, nf).max(axis=1) > t0)


def test_lift_with_t0_one_is_identity_on_nonclamped_sites():
    spec = SpectralProfileSpec("rescaled_positive_field")
    grid = Grid.regular(11)
    _, _, x = sample_simple_pareto_batch(spec, grid, 200, make_rng(8, "id"))
    nf = NormingFunctions.constant(grid, gamma=0.5, a_t=1.0, b_t=1.0, t=4.0)
    report = lift(FieldSample(grid, x), nf, t0=1.0)
    for sid, lifted, norm in zip(report.selected_ids, report.lifted, report.normalized):
        free = norm > 0.0
        np.testing.assert_allclose(lifted[free], x[sid][free], rtol=1e-12)


def test_lift_monotone_in_t0():
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(11)
    _, _, x = sample_simple_pareto_batch(spec, grid, 200, make_rng(9, "mt"))
    data = FieldSample(grid, x)
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=2.0, b_t=2.0, t=2.0)
    low = lift(data, nf, t0=5.0)
    high = lift(data, nf, t0=10.0)
    free = low.normalized > 0.0
    assert np.all(high.lifted[free] >= low.lifted[free])


def test_lift_preserves_selection_law():
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(21)
    t, t0 = 2.0, 10.0
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=t, b_t=t, t=t)
    _, _, x1 = sample_simple_pareto_batch(spec, grid, 1_500, make_rng(10, "pl1"))
    _, _, x2 = sample_simple_pareto_batch(spec, grid, 1_500, make_rng(10, "pl2"))
    report = lift(FieldSample(grid, x1), nf, t0)
    sup_lifted = report.lifted.max(axis=1) / (t0 * t)
    sup_selected = x2.max(axis=1)
    sup_selected = sup_selected[sup_selected > t] / t
    assert len(report.selected_ids) >= 500
    assert two_sample_ks_pvalue(sup_lifted, sup_selected) > 0.01


def test_scenario_index_field_values():
    grid = Grid.regular(3)  # sites 0, 0.5, 1
    gamma = scenario_index_field(grid).values
    np.testing.assert_allclose(gamma, [1.0, 1.0 - 0.5 * 0.25, 1.0], rtol=1e-15)


def test_scenario_runs_and_lifts_above_threshold():
    rng = make_rng(12, "sc")
    t0 = 10.0
    report = run_storm_scenario(20, 5, t0, rng)
    assert 0 <= len(report.selected_ids) <= 20
    assert len(report.lifted) == len(report.selected_ids)
    assert np.all(apply_T_values(report.lifted, report.norming).max(axis=1) > t0)


def test_scenario_requires_twenty_fields():
    with pytest.raises(ValueError):
        run_storm_scenario(10, 3, 10.0, make_rng(13, "sc2"))


def test_field_sample_csv_roundtrip(tmp_path):
    grid = Grid.regular(4)
    data = sample_scenario_fields(21, make_rng(14, "io"), n_sites=4)
    path = tmp_path / "fields.csv"
    field_sample_to_csv(data, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    order = make_rng(14, "shuffle").permutation(len(rows))
    shuffled = tmp_path / "shuffled.csv"  # rows may come in any order
    shuffled.write_text(header + "".join(rows[i] for i in order))
    for p in (path, shuffled):
        back = field_sample_from_csv(p, grid)
        assert np.array_equal(back.values, data.values)


def test_rows_in_order_are_not_sorted(tmp_path, monkeypatch):
    grid = Grid.regular(4)
    data = sample_scenario_fields(21, make_rng(14, "io"), n_sites=4)
    path = tmp_path / "fields.csv"
    field_sample_to_csv(data, path)

    def no_sort(keys):
        raise AssertionError("rows already in order were sorted")

    monkeypatch.setattr(np, "lexsort", no_sort)
    assert np.array_equal(field_sample_from_csv(path, grid).values, data.values)


def test_sample_id_in_two_runs_of_rows_is_rejected(tmp_path):
    # samples 0, 1, 0, each with sites 0..2 in order: a sample_id may not repeat
    path = tmp_path / "fields.csv"
    path.write_text("sample_id,site_index,value\n"
                    + "".join(f"{i},{j},{1.0 + j}\n" for i in (0, 1, 0) for j in range(3)))
    with pytest.raises(ValueError, match="every sample_id needs site_index 0..2 exactly once"):
        field_sample_from_csv(path, Grid.regular(3))


def test_write_lift_report(tmp_path):
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(6)
    _, _, x = sample_simple_pareto_batch(spec, grid, 50, make_rng(15, "wr"))
    nf = NormingFunctions.constant(grid, gamma=1.0, a_t=2.0, b_t=2.0, t=2.0)
    report = lift(FieldSample(grid, x), nf, t0=10.0)
    out = tmp_path / "report"
    write_lift_report(report, out, extra_manifest={"seed": 15})
    for name in ("norming.json", "selected.csv", "lifted.csv", "normalized.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["t0"] == 10.0 and manifest["seed"] == 15
    # one key per NormingFunctions field, in field order; a Field as its site array
    norming = json.loads((out / "norming.json").read_text())
    assert list(norming) == [f.name for f in fields(NormingFunctions)]
    assert norming["a_t"] == [2.0] * 6 and norming["t"] == 2.0 and norming["k"] is None
