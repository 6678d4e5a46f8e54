import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoproc import spectral
from paretoproc.errors import SpecGridMismatch
from paretoproc.gof import two_sample_ks_pvalue
from paretoproc.grid import Grid
from paretoproc.rng import make_rng
from paretoproc.spectral import (
    SpectralProfileSpec,
    exact_profile_mean,
    gaussian_bump,
    profile_mean,
    profile_mean_se,
    sample_profile,
    sample_profiles,
)

ALL_KINDS = ["constant", "gaussian_moving_max", "rescaled_positive_field", "bernoulli_pair"]


def grid_for(kind, n=101):
    return Grid.regular(2) if kind == "bernoulli_pair" else Grid.regular(n)


def test_constant_profile_is_identically_omega0():
    spec = SpectralProfileSpec("constant", omega0=1.0)
    p = sample_profiles(spec, Grid.regular(7), 50, make_rng(0, "t"))
    assert np.all(p == 1.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_profiles_nonnegative_with_sup_exactly_omega0(kind):
    spec = SpectralProfileSpec(kind, omega0=2.5)
    p = sample_profiles(spec, grid_for(kind, 31), 500, make_rng(1, kind))
    assert np.all(p >= 0.0)
    assert np.all(p.max(axis=1) == 2.5)


def test_bernoulli_pair_outcomes_and_frequency():
    spec = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
    n = 10_000
    p = sample_profiles(spec, Grid.regular(2), n, make_rng(2, "bp"))
    # every draw is exactly (1, 0) or (0, 1)
    assert np.all((p == 1.0).sum(axis=1) == 1)
    assert np.all((p == 0.0).sum(axis=1) == 1)
    freq = (p[:, 0] == 1.0).mean()
    assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / n)


def test_bernoulli_pair_needs_two_sites():
    spec = SpectralProfileSpec("bernoulli_pair")
    with pytest.raises(SpecGridMismatch):
        sample_profiles(spec, Grid.regular(3), 1, make_rng(0, "x"))


def test_gaussian_moving_max_mean_strictly_positive_everywhere():
    spec = SpectralProfileSpec("gaussian_moving_max", omega0=1.0)
    grid = Grid.regular(101)
    mean = profile_mean(spec, grid, 100_000, make_rng(3, "gmm_mean"))
    assert np.all(mean.values > 0.0)


def test_profile_mean_constant_exact():
    spec = SpectralProfileSpec("constant", omega0=2.0)
    mean = profile_mean(spec, Grid.regular(5), 10, make_rng(0, "m"))
    assert np.all(mean.values == 2.0)


def test_profile_mean_bernoulli_within_three_se():
    spec = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
    for n in (40_000, 250_000):  # one block, and several blocks
        mean = profile_mean(spec, Grid.regular(2), n, make_rng(4, "bp_mean"))
        se = 0.5 / np.sqrt(n)
        assert np.all(np.abs(mean.values - 0.5) <= 3.0 * se)


def test_profile_mean_n1_equals_single_profile():
    spec = SpectralProfileSpec("rescaled_positive_field")
    grid = Grid.regular(11)
    mean = profile_mean(spec, grid, 1, make_rng(5, "one"))
    single = sample_profile(spec, grid, make_rng(5, "one"))
    assert np.array_equal(mean.values, single.values)


def test_sampling_is_reproducible_per_stream():
    spec = SpectralProfileSpec("rescaled_positive_field", corr_length=0.2)
    grid = Grid.regular(21)
    a = sample_profiles(spec, grid, 10, make_rng(9, "s"))
    b = sample_profiles(spec, grid, 10, make_rng(9, "s"))
    assert np.array_equal(a, b)


def test_spec_validation():
    # above OMEGA0_MAX, W = Y V overflows for the largest radius, 2^53; below
    # OMEGA0_MIN, omega0 is subnormal
    for omega0 in (0.0, np.inf, np.nan, 1e308, 5e-324, 2e-323, 1e-308):
        with pytest.raises(ValueError, match="omega0"):
            SpectralProfileSpec("constant", omega0=omega0)
    assert np.isfinite(2.0**53 * SpectralProfileSpec("constant", spectral.OMEGA0_MAX).omega0)
    with pytest.raises(ValueError):
        SpectralProfileSpec("gaussian_moving_max", bandwidth=0.0)
    with pytest.raises(ValueError):
        SpectralProfileSpec("no_such_kind")
    for corr_length in (0.0, 1e-170, 1e200):
        with pytest.raises(ValueError, match="corr_length"):
            SpectralProfileSpec("rescaled_positive_field", corr_length=corr_length)


def test_spec_kind_aliases_and_config():
    assert SpectralProfileSpec("ConstantProfile").kind == "constant"
    assert SpectralProfileSpec("GaussianMovingMax").kind == "gaussian_moving_max"
    spec = SpectralProfileSpec("RescaledPositiveField", omega0=2.0, corr_length=0.4)
    assert spec.kind == "rescaled_positive_field"
    assert spec.omega0 == 2.0
    assert spec.corr_length == 0.4


def _tensor_grid_2d():
    # 11 x 7 sites on different ranges, rows shuffled so site order differs
    # from axis order
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 11), np.linspace(-1.0, 2.0, 7), indexing="ij")
    sites = np.column_stack([x.ravel(), y.ravel()])
    return Grid(sites[np.random.default_rng(0).permutation(len(sites))])


@pytest.mark.parametrize("grid, spec", [
    pytest.param(Grid.regular(101), SpectralProfileSpec("gaussian_moving_max", bandwidth=0.03),
                 id="1d_h0.03"),
    pytest.param(Grid.regular(101), SpectralProfileSpec("gaussian_moving_max", bandwidth=0.1),
                 id="1d_h0.1"),
    pytest.param(Grid.regular(101), SpectralProfileSpec("gaussian_moving_max", bandwidth=0.3),
                 id="1d_h0.3"),
    pytest.param(_tensor_grid_2d(),
                 SpectralProfileSpec("gaussian_moving_max", omega0=2.0, bandwidth=0.2),
                 id="2d_tensor"),
])
def test_exact_bump_mean_agrees_with_monte_carlo(grid, spec):
    exact = exact_profile_mean(spec, grid)
    mean, se = profile_mean_se(spec, grid, 100_000, make_rng(6, "exact_mean"))
    assert np.all(se > 0.0)
    assert np.all(np.abs(mean - exact) <= 4.5 * se)


@pytest.mark.parametrize("cells", [1, 1 << 10])
def test_exact_bump_mean_does_not_depend_on_the_block(monkeypatch, cells):
    # each block holds whole rows of (site, cell) pairs, and a row's sum is
    # the same in any block
    grids = (Grid.regular(1001), _tensor_grid_2d())
    specs = [SpectralProfileSpec("gaussian_moving_max", bandwidth=h) for h in (1e-3, 0.03, 2.0)]
    expected = [exact_profile_mean(spec, g) for spec in specs for g in grids]
    monkeypatch.setattr(spectral, "BLOCK_CELLS", cells)
    blocked = [exact_profile_mean(spec, g) for spec in specs for g in grids]
    assert all(np.array_equal(a, b) for a, b in zip(blocked, expected))


def test_profile_mean_peak_memory_is_set_by_the_block():
    # 200,000 draws at 101 sites would take 162 MB in one array
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(101)
    sample_profiles(spec, grid, 1, make_rng(0, "warm"))  # the cached set-up is not counted
    tracemalloc.start()
    try:
        profile_mean_se(spec, grid, 200_000, make_rng(0, "mean_peak"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


def test_profile_mean_of_the_largest_omega0_is_finite():
    # V * V overflows from omega0 of about 1.3e154; the moments are of V / omega0
    grid = Grid.regular(11)
    top = SpectralProfileSpec("rescaled_positive_field", omega0=spectral.OMEGA0_MAX)
    with np.errstate(all="raise"):
        mean, se = profile_mean_se(top, grid, 2_000, make_rng(3, "top"))
    unit_mean, unit_se = profile_mean_se(SpectralProfileSpec("rescaled_positive_field"), grid,
                                         2_000, make_rng(3, "top"))
    assert np.allclose(mean / top.omega0, unit_mean, rtol=1e-12, atol=0.0)
    assert np.allclose(se / top.omega0, unit_se, rtol=1e-9, atol=0.0)


def test_exact_mean_constant_and_bernoulli():
    mean = exact_profile_mean(SpectralProfileSpec("constant", omega0=2.5), Grid.regular(7))
    assert np.array_equal(mean, np.full(7, 2.5))
    bernoulli = SpectralProfileSpec("bernoulli_pair", omega0=3.0)
    assert np.array_equal(exact_profile_mean(bernoulli, Grid.regular(2)), [1.5, 1.5])
    with pytest.raises(SpecGridMismatch):
        exact_profile_mean(bernoulli, Grid.regular(3))


def test_no_exact_mean_without_closed_form():
    scattered = Grid(np.random.default_rng(1).random((12, 2)))
    assert exact_profile_mean(SpectralProfileSpec("gaussian_moving_max"), scattered) is None
    spec = SpectralProfileSpec("rescaled_positive_field")
    assert exact_profile_mean(spec, Grid.regular(11)) is None


def test_factor_cache_drops_least_recently_used():
    cache = spectral._sq_exp_factor
    maxsize = 4  # the bound: a scattered grid's factor can take megabytes
    lengths = [0.11 + 0.01 * i for i in range(maxsize + 1)]

    def draw(corr_length):
        # a fresh grid object per call: the cache is keyed by the grid's sites
        spec = SpectralProfileSpec("rescaled_positive_field", corr_length=corr_length)
        sample_profiles(spec, Grid.regular(5), 1, make_rng(0, "factor"))

    cache.cache_clear()
    for c in lengths[:-1]:
        draw(c)
    draw(lengths[0])  # a hit, and the first entry is now the most recently used
    draw(lengths[-1])  # a miss that drops lengths[1]
    assert cache.cache_info()[:] == (1, maxsize + 1, maxsize, maxsize)
    for c in [lengths[0], *lengths[2:]]:
        draw(c)
    assert cache.cache_info().hits == 1 + maxsize
    draw(lengths[1])
    assert cache.cache_info().misses == maxsize + 2


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("h", [0.1, 0.03])
def test_gaussian_bump_matches_summed_squares_bitwise(dim, h):
    rng = np.random.default_rng(dim)
    sites, centers = rng.random((37, dim)), rng.random((500, dim))
    diff = sites[None, :, :] - centers[:, None, :]
    reference = np.exp(-0.5 * np.sum(diff * diff, axis=-1) / h**2)
    assert np.array_equal(gaussian_bump(sites, centers, h), reference)


def test_gaussian_bump_profiles_allocate_little_beyond_output():
    # the bump is built in its output buffer: no (n, m, d) difference and no
    # second (n, m) temporary
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(101)
    tracemalloc.start()
    try:
        p = sample_profiles(spec, grid, 20_000, make_rng(0, "alloc"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * p.nbytes


def _reference_rescaled_profiles(spec, grid, n, rng):
    # the dense sampler, the reference in law for the low-rank one: covariance
    # from the (m, m, d) difference array, Cholesky factor, row-max shift and
    # exp, then division by the row max and multiplication by omega0
    diff = grid.sites[:, None, :] - grid.sites[None, :, :]
    cov = np.exp(-0.5 * np.sum(diff**2, axis=-1) / spec.corr_length**2)
    cov += 1e-10 * np.eye(grid.n_sites)
    z = rng.standard_normal((n, grid.n_sites)) @ np.linalg.cholesky(cov).T
    z = np.exp(z - z.max(axis=1, keepdims=True))
    return z / z.max(axis=1, keepdims=True) * spec.omega0


def _full_factor(grid, corr_length):
    # the (m, rank) factor the sampler applies: the Kronecker product of the
    # per-axis factors in site order on a tensor grid, else the one factor
    tensor = spectral._tensor_axes(grid)
    if tensor is None:
        return spectral._sq_exp_factor(grid, corr_length)
    axes, flat = tensor
    factors = [spectral._sq_exp_factor(Grid(u), corr_length) for u in axes if u.size > 1]
    return functools.reduce(np.kron, factors)[flat]


SCATTERED_3D = Grid(np.random.default_rng(2).random((40, 3)))


@pytest.mark.parametrize("corr_length", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("grid", [
    pytest.param(Grid.regular(101), id="1d_101"),
    pytest.param(_tensor_grid_2d(), id="2d_tensor"),
    pytest.param(SCATTERED_3D, id="3d_scattered"),
])
def test_low_rank_factor_reproduces_covariance(grid, corr_length):
    factor = _full_factor(grid, corr_length)
    cov = np.exp(-0.5 * np.sum((grid.sites[:, None] - grid.sites[None]) ** 2, -1) / corr_length**2)
    assert np.abs(factor @ factor.T - cov).max() <= 1e-9


def test_rescaled_field_follows_site_order():
    # the same draws on a shuffled tensor grid land on the same coordinates
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 11), np.linspace(-1.0, 2.0, 7), indexing="ij")
    sites = np.column_stack([x.ravel(), y.ravel()])
    perm = np.random.default_rng(0).permutation(len(sites))
    spec = SpectralProfileSpec("rescaled_positive_field", omega0=2.5)
    natural = sample_profiles(spec, Grid(sites), 200, make_rng(7, "order"))
    shuffled = sample_profiles(spec, Grid(sites[perm]), 200, make_rng(7, "order"))
    assert np.array_equal(shuffled, natural[:, perm])


@pytest.mark.parametrize("grid", [
    pytest.param(Grid.regular(51), id="1d_51"),
    pytest.param(_tensor_grid_2d(), id="2d_tensor"),
    pytest.param(SCATTERED_3D, id="3d_scattered"),
])
def test_rescaled_field_agrees_with_dense_reference_in_law(grid):
    spec = SpectralProfileSpec("rescaled_positive_field", omega0=2.5)
    n = 20_000
    new = sample_profiles(spec, grid, n, make_rng(8, "low_rank"))
    old = _reference_rescaled_profiles(spec, grid, n, make_rng(8, "dense"))
    se = np.sqrt((new.var(axis=0) + old.var(axis=0)) / n)
    assert np.all(np.abs(new.mean(axis=0) - old.mean(axis=0)) <= 4.5 * se)
    for site in (0, grid.n_sites // 2, grid.n_sites - 1):
        assert two_sample_ks_pvalue(new[:, site], old[:, site]) > 1e-3


def test_rescaled_field_on_tensor_grid_allocates_no_dense_covariance():
    # a (1681, 1681) covariance or factor would take 22.6 MB; the draw needs
    # its output, two rank-sized intermediates and the 41 x 12 axis factor
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41), indexing="ij")
    grid = Grid(np.column_stack([x.ravel(), y.ravel()]))
    spec = SpectralProfileSpec("rescaled_positive_field")
    spectral._sq_exp_factor.cache_clear()
    tracemalloc.start()
    try:
        p = sample_profiles(spec, grid, 50, make_rng(0, "alloc"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    factor = spectral._sq_exp_factor(Grid(x[:, 0]), 0.3)
    assert peak <= 2.0 * (p.nbytes + factor.nbytes)


def _blocked_grids():
    x = np.linspace(0.0, 1.0, 5)
    return {"1d": Grid.regular(11), "2d_tensor": Grid(np.array([(a, b) for a in x for b in x])),
            "scattered": Grid(np.random.default_rng(4).random((30, 2))),
            "two_sites": Grid.regular(2)}


@pytest.mark.parametrize("kind, layout", [
    *((k, layout) for k in ALL_KINDS[:3] for layout in ("1d", "2d_tensor", "scattered")),
    ("bernoulli_pair", "two_sites"),
])
def test_blocked_draws_concatenate_to_the_one_shot_draw(kind, layout):
    grid = _blocked_grids()[layout]
    spec = SpectralProfileSpec(kind, omega0=1.5)
    block = spectral.BLOCK_CELLS // grid.n_sites
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        one, blocked = make_rng(5, "blocks"), make_rng(5, "blocks")
        expected = sample_profiles(spec, grid, n, one)
        starts, parts = zip(*spectral.profile_blocks(spec, grid, n, blocked))
        assert np.array_equal(np.concatenate(parts), expected)
        assert list(starts) == [block * i for i in range(len(parts))]
        assert one.random() == blocked.random()  # the stream ends in the same state
        # at most BLOCK_CELLS cells a block; a one-row tail joins the block before it
        assert [p.shape[0] for p in parts[:-1]] == [block] * (len(parts) - 1)
        assert parts[-1].shape[0] <= block + 1 and (n == 1 or parts[-1].shape[0] > 1)


def test_draw_setup_is_cached_and_checks_the_grid_every_call():
    spec = SpectralProfileSpec("gaussian_moving_max")
    spectral._draw_setup.cache_clear()
    for _ in range(3):
        sample_profiles(spec, Grid.regular(5), 1, make_rng(0, "setup"))
    info = spectral._draw_setup.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (2, 1, 16)
    bernoulli = SpectralProfileSpec("bernoulli_pair")
    for _ in range(2):  # a rejected grid is not cached
        with pytest.raises(SpecGridMismatch):
            sample_profiles(bernoulli, Grid.regular(3), 1, make_rng(0, "setup"))


def _log_uniform(lo, hi):
    # both ends, and values spread evenly in log scale between them
    spread = st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: float(np.clip(10.0**e, lo, hi)))
    return st.sampled_from([lo, hi]) | spread


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bandwidth=_log_uniform(1e-4, 10.0),
       omega0=_log_uniform(spectral.OMEGA0_MIN, spectral.OMEGA0_MAX),
       sites=st.integers(2, 150))
def test_moving_max_rows_peak_at_omega0_at_any_bandwidth(bandwidth, omega0, sites):
    # a bump far narrower than the site spacing underflows at every site;
    # shifted in log space, each row still peaks at omega0
    spec = SpectralProfileSpec("gaussian_moving_max", omega0=omega0, bandwidth=bandwidth)
    p = sample_profiles(spec, Grid.regular(sites), 200, make_rng(sites, "any_bandwidth"))
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    assert np.all(p.max(axis=1) == omega0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), sites=st.integers(2, 199), scattered=st.booleans(),
       data=st.data())
def test_blocked_draws_equal_the_one_shot_draw_for_any_n(kind, sites, scattered, data):
    if kind == "bernoulli_pair":
        sites = 2
    grid = (Grid(np.random.default_rng(sites).random((sites, 2))) if scattered
            else Grid.regular(sites))
    n = data.draw(st.integers(1, 3 * (spectral.BLOCK_CELLS // sites)), label="n")
    spec = SpectralProfileSpec(kind, omega0=1.5)
    one, blocked = make_rng(n, "any_n"), make_rng(n, "any_n")
    expected = sample_profiles(spec, grid, n, one)
    parts = [p for _, p in spectral.profile_blocks(spec, grid, n, blocked)]
    assert np.array_equal(np.concatenate(parts), expected)
    assert one.random() == blocked.random()
