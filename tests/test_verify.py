"""The verification checks fail when fed a wrong law."""

from paretoproc import verify


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
