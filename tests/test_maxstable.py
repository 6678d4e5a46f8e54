import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoproc.gof import (
    ks_critical_value,
    ks_statistic,
    standard_frechet_cdf,
    two_sample_ks_pvalue,
)
from paretoproc import maxstable, spectral
from paretoproc.grid import Grid
from paretoproc.maxstable import (
    PenroseConfig,
    construction_checks,
    doa_empirical_check,
    findim_evd,
    mmax_self_similarity_pvalue,
    sample_max_stable,
    sample_max_stable_batch,
    sample_moving_maximum_batch,
)
from paretoproc.rng import make_rng
from paretoproc.spectral import SpectralProfileSpec, exact_profile_mean, sample_profiles


@pytest.fixture(scope="module")
def const_cfg():
    return PenroseConfig(SpectralProfileSpec("constant"), Grid.regular(5), truncation=1e-4)


@pytest.fixture(scope="module")
def gmm_cfg():
    return PenroseConfig(
        SpectralProfileSpec("gaussian_moving_max"), Grid.regular(51), truncation=1e-4
    )


def test_truncation_validation():
    with pytest.raises(ValueError):
        PenroseConfig(SpectralProfileSpec("constant"), Grid.regular(3), truncation=0.0)


def test_constant_profile_df_at_one(const_cfg):
    # flat profiles make eta the plain Poisson-point maximum: P(eta <= x) = exp(-1/x)
    n = 20_000
    eta = sample_max_stable_batch(const_cfg, n, make_rng(0, "cdf"))
    p_hat = (eta[:, 0] <= 1.0).mean()
    expected = np.exp(-1.0)
    assert abs(p_hat - expected) <= 3.0 * np.sqrt(expected * (1 - expected) / n)


def test_marginal_frechet_ks(gmm_cfg):
    # the first and last sites see half the middle site's mean field
    n = 10_000
    eta = sample_max_stable_batch(gmm_cfg, n, make_rng(1, "marg"))
    for site in (0, 25, 50):
        stat = ks_statistic(eta[:, site], standard_frechet_cdf)
        assert stat < ks_critical_value(n, alpha=0.01), site


def test_marginal_frechet_ks_with_omega0_above_one():
    # profiles peak at omega0 = 2.5, so the stopping bound is 2.5, not 1
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max", omega0=2.5), Grid.regular(51))
    n = 10_000
    eta = sample_max_stable_batch(cfg, n, make_rng(15, "marg_omega0"))
    for site in (0, 25, 50):
        stat = ks_statistic(eta[:, site], standard_frechet_cdf)
        assert stat < ks_critical_value(n, alpha=0.01), site


def _uncompacted_poisson_max(n, m, scale, bound, draw, rng, truncation=0.0):
    """The Poisson-max loop as it was before the live rows were compacted:
    it gathers and scatters the running maxima of every live row each round."""
    out = np.zeros((n, m))
    gamma_sum = np.zeros(n)
    active = np.arange(n)
    while active.size:
        gamma_sum[active] += rng.standard_exponential(active.size)
        z = scale / gamma_sum[active]
        live = z > truncation
        active = active[live]
        if not active.size:
            break
        z = z[live]
        best = draw(active.size, rng)
        best *= z[:, None]
        out[active] = np.maximum(out[active], best, out=best)
        undecided = z * bound > best.min(axis=1)
        active = active[undecided]
    return out


def test_compacted_loop_matches_the_uncompacted_one_bitwise(monkeypatch):
    grid = Grid.regular(41)
    compacted = sample_moving_maximum_batch(grid, 2_000, make_rng(16, "compact"))
    monkeypatch.setattr(maxstable, "_poisson_max", _uncompacted_poisson_max)
    assert np.array_equal(compacted, sample_moving_maximum_batch(grid, 2_000, make_rng(16, "compact")))
    # a high truncation ends rows at the truncation too, some before any draw
    args = (500, 7, 1.0, 1.0, lambda k, rng: rng.random((k, 7)))
    assert np.array_equal(maxstable._poisson_max(*args, make_rng(17, "trunc"), 0.5),
                          _uncompacted_poisson_max(*args, make_rng(17, "trunc"), 0.5))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(m=st.integers(2, 150), truncation=st.sampled_from([0.0, 0.5]), moving_max=st.booleans(),
       data=st.data())
def test_blocked_loop_matches_the_uncompacted_one_bitwise(m, truncation, moving_max, data):
    # one to three row blocks, some ending in a one-row tail that joins the block before it
    rows = max(2, spectral.BLOCK_CELLS // m)
    n = data.draw(st.integers(1, 3 * rows) | st.sampled_from([rows + 1, 2 * rows + 1]), label="n")
    if moving_max:
        spec, grid = SpectralProfileSpec("gaussian_moving_max"), Grid.regular(m)
        draw = lambda k, rng: sample_profiles(spec, grid, k, rng)  # noqa: E731
    else:
        draw = lambda k, rng: rng.random((k, m))  # noqa: E731
    blocked, one_shot = make_rng(m, "any_blocks"), make_rng(m, "any_blocks")
    expected = _uncompacted_poisson_max(n, m, 1.0, 1.0, draw, one_shot, truncation)
    assert np.array_equal(maxstable._poisson_max(n, m, 1.0, 1.0, draw, blocked, truncation),
                          expected)
    assert blocked.random() == one_shot.random()


def test_poisson_max_peak_memory_is_the_result_and_one_block():
    # the compacted loop held the running maxima, their compaction copies and
    # the round's draw beside the result: 62.5 MB here
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(101))
    sample_max_stable_batch(cfg, 10, make_rng(0, "warm"))  # the cached set-up is not counted
    n = 20_000
    tracemalloc.start()
    try:
        sample_max_stable_batch(cfg, n, make_rng(0, "peak"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * cfg.grid.n_sites * 8 + (4 << 20)


def test_sitewise_bound_draws_few_profiles_per_field(monkeypatch):
    # the bound omega0 / min_s E V(s) drew 25.4 profiles per field here; the
    # sitewise bound omega0 on the raw profiles draws about 16.4
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(101))
    drawn, sample = [], maxstable.sample_profiles

    def counted(spec, grid, k, rng):
        drawn.append(k)
        return sample(spec, grid, k, rng)

    monkeypatch.setattr(maxstable, "sample_profiles", counted)
    n = 2_000
    sample_max_stable_batch(cfg, n, make_rng(18, "per_field"))
    assert sum(drawn) / n <= 18.0


def test_sample_max_stable_single_field(gmm_cfg):
    f = sample_max_stable(gmm_cfg, make_rng(2, "one"))
    assert np.all(f.values > 0.0)


def test_findim_evd_constant_profile(const_cfg):
    est = findim_evd(const_cfg, [2.0], [0], n_mc=1_000)
    np.testing.assert_allclose(est, np.exp(-0.5), rtol=1e-12)
    # large arguments push the df to one
    est = findim_evd(const_cfg, [1e9], [0], n_mc=1_000)
    assert est == pytest.approx(1.0, abs=1e-8)


def test_findim_evd_monotone_and_bounded(gmm_cfg):
    sites = [10, 25, 40]
    rng = make_rng(3, "mono")
    smaller = findim_evd(gmm_cfg, [1.0, 1.0, 1.0], sites, n_mc=20_000, rng=rng)
    larger = findim_evd(gmm_cfg, [2.0, 2.0, 2.0], sites, n_mc=20_000, rng=make_rng(3, "mono"))
    assert 0.0 < smaller < larger <= 1.0


def test_bernoulli_bivariate_independence_copula():
    # two-site zero-or-peak profiles rescale to disjoint unit masses, so the
    # joint df factorizes: G(1,1) = exp(-2)
    cfg = PenroseConfig(SpectralProfileSpec("bernoulli_pair"), Grid.regular(2))
    n = 20_000
    eta = sample_max_stable_batch(cfg, n, make_rng(4, "bp"))
    p_hat = np.all(eta <= 1.0, axis=1).mean()
    expected = np.exp(-2.0)
    assert abs(p_hat - expected) <= 3.0 * np.sqrt(expected * (1 - expected) / n)
    formula = findim_evd(cfg, [1.0, 1.0], [0, 1], n_mc=50_000, rng=make_rng(5, "bpf"))
    assert formula == pytest.approx(expected, abs=1e-2)


def test_findim_matches_empirical_df(gmm_cfg):
    sites = np.array([10, 25, 40])
    x = np.array([1.5, 1.0, 2.0])
    n = 20_000
    eta = sample_max_stable_batch(gmm_cfg, n, make_rng(6, "fd"))[:, sites]
    emp = np.all(eta <= x, axis=1).mean()
    est, se = findim_evd(gmm_cfg, x, sites, n_mc=100_000, rng=make_rng(7, "fdf"), return_se=True)
    pooled = np.hypot(se, np.sqrt(emp * (1 - emp) / n))
    assert abs(est - emp) <= 3.0 * pooled


def test_mmax_self_similarity(gmm_cfg):
    pval = mmax_self_similarity_pvalue(gmm_cfg, m=4, n=4_000, rng=make_rng(8, "mm"))
    assert pval > 0.01


def test_moving_maximum_marginals_frechet():
    grid = Grid.regular(41)
    n = 10_000
    z = sample_moving_maximum_batch(grid, n, make_rng(9, "m3"))
    assert np.all(z > 0)
    stat = ks_statistic(z[:, 20], standard_frechet_cdf)
    assert stat < ks_critical_value(n, alpha=0.01)


def test_moving_maximum_kernel_matches_normal_density_bitwise():
    # the shared bump kernel at h = 1, divided by sqrt(2 pi), is the normal
    # density the sampler was written with
    grid = Grid.regular(41)
    coords = grid.coords()
    lo, hi = coords.min() - 4.0, coords.max() + 4.0

    def kernels(k, rng):
        centers = lo + (hi - lo) * rng.random(k)
        return np.exp(-0.5 * (coords[None, :] - centers[:, None]) ** 2) / np.sqrt(2.0 * np.pi)

    reference = maxstable._poisson_max(500, 41, hi - lo, 1.0 / np.sqrt(2.0 * np.pi),
                                       kernels, make_rng(10, "mk"))
    assert np.array_equal(sample_moving_maximum_batch(grid, 500, make_rng(10, "mk")), reference)


def test_doa_pareto_input(gmm_cfg):
    report = doa_empirical_check(gmm_cfg, n_block=50, n_rep=40_000,
                                 rng=make_rng(10, "doa"), input_kind="pareto")
    assert report["n_exceedances"] > 1_000
    by_name = {c.name: c for c in report["checks"]}
    assert by_name["sup_ratio_x2"].passed
    assert by_name["sup_ratio_x5"].passed
    assert by_name["angle_two_sample_ks"].passed


def test_doa_maxstable_input(gmm_cfg):
    report = doa_empirical_check(gmm_cfg, n_block=50, n_rep=40_000,
                                 rng=make_rng(11, "doam"), input_kind="maxstable")
    by_name = {c.name: c for c in report["checks"]}
    assert by_name["sup_ratio_x2"].passed
    assert by_name["sup_ratio_x5"].passed
    assert "angle_two_sample_ks" not in by_name


def test_tied_two_sample_ks_falls_back_to_the_asymptotic_pvalue_quietly():
    # two-point samples like the bernoulli_pair angles: scipy's exact p-value
    # does not converge here and it warns before switching to the asymptotic one
    from scipy import stats

    a, b = np.repeat([0.0, 1.0], [12, 11]), np.repeat([0.0, 1.0], [11, 12])
    assert two_sample_ks_pvalue(a, b) == stats.ks_2samp(a, b, method="asymp").pvalue


def test_doa_rejects_low_threshold(gmm_cfg):
    with pytest.raises(ValueError):
        doa_empirical_check(gmm_cfg, n_block=2, n_rep=100, rng=make_rng(12, "low"))


def test_construction_checks_fail_on_wrong_mean_field():
    # halving the mean field doubles every field, so the fields are Frechet
    # with scale 2, not standard Frechet
    cfg = PenroseConfig(SpectralProfileSpec("constant"), Grid.regular(5), truncation=1e-4)
    cfg.mean_field = cfg.mean_field / 2.0
    marginal, _ = construction_checks(cfg, 2_000, 13)
    assert marginal.name == "marginal_frechet_ks" and not marginal.passed
    assert marginal.statistic > marginal.threshold


@pytest.mark.parametrize("spec, grid", [
    pytest.param(SpectralProfileSpec("constant", omega0=2.0), Grid.regular(5), id="constant"),
    pytest.param(SpectralProfileSpec("bernoulli_pair"), Grid.regular(2), id="bernoulli_pair"),
    pytest.param(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(51),
                 id="gaussian_moving_max"),
])
def test_mean_field_exact_with_zero_se(spec, grid):
    cfg = PenroseConfig(spec, grid)
    assert np.array_equal(cfg.mean_field, exact_profile_mean(spec, grid))
    assert np.all(cfg.mean_field_se == 0.0)


def test_mean_field_monte_carlo_on_scattered_grid():
    spec = SpectralProfileSpec("gaussian_moving_max", bandwidth=0.3)
    sites = np.random.default_rng(2).random((6, 2))
    cache = maxstable._mean_field
    cache.cache_clear()
    cfg = PenroseConfig(spec, Grid(sites))
    assert np.all(cfg.mean_field_se > 0.0)
    # a fresh, equal grid finds the estimate by its sites
    again = PenroseConfig(SpectralProfileSpec("gaussian_moving_max", bandwidth=0.3), Grid(sites))
    assert cache.cache_info()[:3] == (1, 1, 16)  # one hit, one miss, 16 kept at most
    assert again.mean_field is cfg.mean_field


@pytest.mark.parametrize("spec, sites", [
    pytest.param(SpectralProfileSpec("gaussian_moving_max", bandwidth=0.3),
                 np.random.default_rng(2).random((6, 2)), id="monte_carlo"),
    pytest.param(SpectralProfileSpec("gaussian_moving_max"), np.linspace(0.0, 1.0, 11),
                 id="exact"),
])
def test_mean_field_is_read_only(spec, sites):
    # the Monte Carlo mean is cached and shared by every config on an equal grid
    cfg = PenroseConfig(spec, Grid(sites))
    mean, sup_bound = cfg.mean_field.copy(), cfg.sup_bound
    with pytest.raises(ValueError, match="read-only"):
        cfg.mean_field *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        cfg.mean_field_se[0] = 1.0
    fresh = PenroseConfig(spec, Grid(sites.copy()))
    assert np.array_equal(fresh.mean_field, mean) and fresh.sup_bound == sup_bound


def test_findim_evd_equals_the_one_shot_draw_bitwise():
    # the blocked reduction keeps the one-shot draw's stream and its two divisions
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(101))
    sites, x = np.array([3, 50, 97]), np.array([0.7, 1.0, 2.5])
    n = 3 * (spectral.BLOCK_CELLS // cfg.grid.n_sites) + 7
    est, se = findim_evd(cfg, x, sites, n_mc=n, rng=make_rng(4, "fd"), return_se=True)
    v = sample_profiles(cfg.spec, cfg.grid, n, make_rng(4, "fd"))
    exponent = ((v / cfg.mean_field)[:, sites] / x).max(axis=1)
    assert est == np.exp(-exponent.mean())
    assert se == est * exponent.std(ddof=1) / np.sqrt(n)


def test_findim_evd_peak_memory_is_set_by_the_block():
    # 200,000 draws at 101 sites would take 162 MB in one array
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(101))
    findim_evd(cfg, [1.0], [50], n_mc=10)  # the cached set-up is not counted
    tracemalloc.start()
    try:
        findim_evd(cfg, [1.0, 2.0, 1.5], [0, 50, 100], n_mc=200_000, rng=make_rng(0, "peak"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20
