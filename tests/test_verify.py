"""The verification checks fail when fed a wrong law."""

import dataclasses

from paretoproc import dfeval, verify


def test_sup_pareto_law_fails_on_squared_radii(monkeypatch):
    # sup W / omega0 becomes Y^2, whose tail 1/sqrt(x) is not standard Pareto
    sample = verify.sample_simple_pareto_batch

    def squared_radii(spec, grid, n, rng):
        y, v, w = sample(spec, grid, n, rng)
        return y * y, v, w * y[:, None]

    monkeypatch.setattr(verify, "sample_simple_pareto_batch", squared_radii)
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
    # the stability arm draws bumps of bandwidth 0.3, the rejection arm 0.1
    sample = verify.pot_conditional_batch

    def wider(spec, grid, r, n, rng, method):
        if method == "stability":
            spec = verify.SpectralProfileSpec(spec.kind, bandwidth=0.3)
        return sample(spec, grid, r, n, rng, method=method)

    monkeypatch.setattr(verify, "pot_conditional_batch", wider)
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
    # 1 - 1/sqrt(2), not 1/2. The arm is drawn inside dfeval, so its name there
    # is patched.
    sample = dfeval.sample_simple_pareto_batch

    def squared_radii(spec, grid, n, rng):
        y, v, w = sample(spec, grid, n, rng)
        return y * y, v, w * y[:, None]

    monkeypatch.setattr(dfeval, "sample_simple_pareto_batch", squared_radii)
    gate = _failing_gate(verify.check_formula_vs_empirical, "pass_fraction")
    assert gate.statistic < gate.threshold


def test_max_stable_findim_fails_on_doubled_fields(monkeypatch):
    # the empirical arm draws 2 * eta, Frechet with scale 2: P(2 eta <= x) is
    # the formula at x / 2
    sample = verify.sample_max_stable_batch
    monkeypatch.setattr(verify, "sample_max_stable_batch",
                        lambda cfg, n, rng: 2.0 * sample(cfg, n, rng))
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
