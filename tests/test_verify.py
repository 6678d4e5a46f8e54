"""The verification checks fail when fed a wrong law."""

import dataclasses

import pytest

from paretoproc import pareto, verify


def test_sup_pareto_law_fails_on_squared_radii(monkeypatch):
    # sup W / omega0 becomes Y^2, whose tail 1/sqrt(x) is not standard Pareto
    sample = pareto.sample_radii
    monkeypatch.setattr(pareto, "sample_radii", lambda n, rng: sample(n, rng) ** 2)
    result = verify.run_check(verify.check_sup_pareto_law, quick=True)
    assert not result.passed
    (gate,) = result.checks
    assert gate.name == "worst_ks" and gate.statistic > gate.threshold


def _failing_gate(check, name):
    """Run ``check`` quick and return its gate ``name``, asserting the check failed."""
    result = verify.run_check(check, quick=True)
    assert not result.passed
    return next(g for g in result.checks if g.name == name)


def test_pot_stability_fails_on_wider_stability_bumps(monkeypatch):
    # the stability arm draws bumps of bandwidth 0.3, the rejection arm 0.1;
    # only the stability arm draws its profiles through spectral.per_draw_blocks
    blocks = verify.per_draw_blocks

    def wider(spec, grid, n, rng, per_draw):
        return blocks(verify.SpectralProfileSpec(spec.kind, bandwidth=0.3), grid, n, rng, per_draw)

    monkeypatch.setattr(verify, "per_draw_blocks", wider)
    gate = _failing_gate(verify.check_pot_stability, "min_ks_p")
    assert gate.statistic <= gate.threshold


def test_bivariate_closed_form_fails_on_constant_profiles(monkeypatch):
    # complete dependence instead of the zero-or-peak pair: P(W <= (2, 0.5)) is 0, not 1/4
    findim = verify.df_findim
    monkeypatch.setattr(verify, "df_findim",
                        lambda w, spec, d, **kw: findim(w, verify.SpectralProfileSpec("constant"), d, **kw))
    gate = _failing_gate(verify.check_bivariate_closed_form, "worst_abs_error")
    assert gate.statistic > gate.threshold


def test_formula_vs_empirical_fails_on_squared_direct_radii(monkeypatch):
    # the direct arm draws W = Y^2 V: P(W <= 2) for flat profiles is
    # 1 - 1/sqrt(2), not 1/2. The arm draws its radii in pareto.per_field_blocks,
    # so their name there is patched; the formula arm draws no radii.
    sample = pareto.sample_radii
    monkeypatch.setattr(pareto, "sample_radii", lambda n, rng: sample(n, rng) ** 2)
    gate = _failing_gate(verify.check_formula_vs_empirical, "pass_fraction")
    assert gate.statistic < gate.threshold


def test_max_stable_findim_fails_on_doubled_fields(monkeypatch):
    # the empirical arm draws 2 * eta, Frechet with scale 2: P(2 eta <= x) is
    # the formula at x / 2; it keeps three columns a field through its reducer
    sample = verify.sample_max_stable_batch
    monkeypatch.setattr(verify, "sample_max_stable_batch",
                        lambda cfg, n, rng, reduce: 2.0 * sample(cfg, n, rng, reduce))
    gate = _failing_gate(verify.check_max_stable, "findim_worst_z")
    assert gate.statistic > gate.threshold


def test_lifting_exactness_fails_on_inexact_lift(monkeypatch):
    # lifted fields off by a relative 1e-12, thousands of ulp
    lift = verify.lift

    def inexact(data, nf, t0):
        report = lift(data, nf, t0)
        return dataclasses.replace(report, lifted=report.lifted * (1.0 + 1e-12))

    monkeypatch.setattr(verify, "lift", inexact)
    gate = _failing_gate(verify.check_lifting_exact, "max_entry_ulp")
    assert gate.statistic > gate.threshold


def test_estimator_sanity_fails_on_squared_data(monkeypatch):
    # squared standard Pareto data has gamma 2, not 1
    estimate = verify.estimate_norming
    monkeypatch.setattr(verify, "estimate_norming",
                        lambda data, k: estimate(verify.FieldSample(data.grid, data.values**2), k))
    gate = _failing_gate(verify.check_estimator_sanity, "median_gamma_error_pareto")
    assert gate.statistic >= gate.threshold


def test_estimator_sanity_fails_on_reciprocal_data(monkeypatch):
    # reciprocal data swaps the two laws: 1/Y is uniform (gamma -1) and 1/U
    # standard Pareto (gamma 1), so both gates miss by about 2. (Squared
    # uniform data would not do: U^2 keeps gamma -1 at its endpoint 1.)
    estimate = verify.estimate_norming
    monkeypatch.setattr(verify, "estimate_norming",
                        lambda data, k: estimate(verify.FieldSample(data.grid, 1.0 / data.values), k))
    result = verify.run_check(verify.check_estimator_sanity, quick=True)
    assert [g.name for g in result.checks if not g.passed] == [
        "median_gamma_error_pareto", "median_gamma_error_uniform"]


def test_storm_scenario_fails_when_lifting_by_one(monkeypatch):
    # t0 = 1 leaves the selected fields at the base threshold, below the lifted one
    scenario = verify.run_storm_scenario
    monkeypatch.setattr(verify, "run_storm_scenario",
                        lambda n, k, t0, rng: scenario(n, k, 1.0, rng))
    gate = _failing_gate(verify.check_storm_scenario, "min_lifted_sup")
    assert gate.statistic <= gate.threshold


def test_generalized_stability_fails_on_doubled_scale(monkeypatch):
    # renormalizing by (u(r), 2 s(r)) halves the excesses: the renormalized
    # arm is no longer the base law
    norming = verify.stability_norming

    def doubled(p, r):
        u, s = norming(p, r)
        return u, verify.Field(s.grid, 2.0 * s.values)

    monkeypatch.setattr(verify, "stability_norming", doubled)
    gate = _failing_gate(verify.check_generalized_stability, "min_ks_p")
    assert gate.statistic <= gate.threshold


def test_max_stable_construction_fails_on_coarse_truncation(monkeypatch):
    # dropping every Poisson point below 0.5 leaves a law that is neither
    # standard Frechet nor max-stable
    checks = verify.construction_checks
    monkeypatch.setattr(verify, "construction_checks",
                        lambda cfg, n, seed: checks(dataclasses.replace(cfg, truncation=0.5), n, seed))
    result = verify.run_check(verify.check_max_stable, quick=True)
    assert [g.name for g in result.checks if not g.passed] == [
        "marginal_frechet_ks", "mmax_self_similarity_p"]


def test_lifting_exactness_fails_on_stretched_lift(monkeypatch):
    # lifted fields 1.5 times too large: their sup law is 1.5 times the base one
    lift = verify.lift

    def stretched(data, nf, t0):
        report = lift(data, nf, t0)
        return dataclasses.replace(report, lifted=1.5 * report.lifted)

    monkeypatch.setattr(verify, "lift", stretched)
    gate = _failing_gate(verify.check_lifting_exact, "lifted_sup_ks_p")
    assert gate.statistic <= gate.threshold


def test_lifting_exactness_fails_on_halved_fields(monkeypatch):
    # halved Pareto fields exceed t = 2 with probability 1/4, not 1/2: about
    # 375 of 1,500 fields are selected, fewer than 500
    lift = verify.lift
    monkeypatch.setattr(verify, "lift",
                        lambda data, nf, t0: lift(verify.FieldSample(data.grid, data.values / 2.0), nf, t0))
    gate = _failing_gate(verify.check_lifting_exact, "n_selected")
    assert gate.statistic < gate.threshold


@pytest.mark.parametrize("factor, name", [
    pytest.param(0.01, "mean_selected_above", id="shrunk"),
    pytest.param(10.0, "mean_selected_below", id="grown"),
])
def test_storm_scenario_fails_on_rescaled_fields(monkeypatch, factor, name):
    # fields rescaled against the norming estimated before: shrunk ones
    # hardly ever exceed it, grown ones nearly always do
    scenario = verify.run_storm_scenario

    def rescaled(n, k, t0, rng):
        report = scenario(n, k, t0, rng)
        data = report.source
        return verify.lift(verify.FieldSample(data.grid, factor * data.values), report.norming, t0)

    monkeypatch.setattr(verify, "run_storm_scenario", rescaled)
    gate = _failing_gate(verify.check_storm_scenario, name)
    assert not gate.passed
