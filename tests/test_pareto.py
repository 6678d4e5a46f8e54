import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoproc.errors import ZeroField
from paretoproc.gof import ks_critical_value, ks_statistic, standard_pareto_cdf, two_sample_ks_pvalue
from paretoproc.grid import Field, Grid, sup_field
from paretoproc.pareto import (
    decompose,
    per_field_blocks,
    pot_conditional_batch,
    pot_conditional_sample,
    recombine,
    sample_simple_pareto,
    sample_simple_pareto_batch,
    sample_simple_pareto_vector,
    vector_grid,
)
from paretoproc.rng import make_rng
from paretoproc.spectral import BLOCK_CELLS, KINDS, SpectralProfileSpec


def test_sup_is_standard_pareto_constant_profile():
    spec = SpectralProfileSpec("constant", omega0=1.0)
    grid = Grid.regular(5)
    n = 20_000
    _, _, w = sample_simple_pareto_batch(spec, grid, n, make_rng(0, "ks"))
    stat = ks_statistic(w.max(axis=1), standard_pareto_cdf)
    assert stat < ks_critical_value(n, alpha=0.01)


def test_sample_decomposition_sup_exact():
    spec = SpectralProfileSpec("gaussian_moving_max", omega0=1.5)
    s = sample_simple_pareto(spec, Grid.regular(11), make_rng(1, "d"))
    assert sup_field(s.v).value == 1.5
    assert s.y >= 1.0
    assert np.array_equal(s.w.values, s.y * s.v.values)


def test_bernoulli_pair_samples_are_zero_or_radius():
    spec = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
    grid = Grid.regular(2)
    _, _, w = sample_simple_pareto_batch(spec, grid, 200, make_rng(2, "bp"))
    nonzero_per_row = (w > 0).sum(axis=1)
    assert np.all(nonzero_per_row == 1)
    assert np.all(w.max(axis=1) >= 1.0)


def test_decompose_examples():
    g = Grid.regular(2)
    y, v = decompose(Field(g, [2.0, 4.0]), omega0=1.0)
    assert y == 4.0
    assert np.array_equal(v.values, [0.5, 1.0])
    y, v = decompose(Field(g, [3.0, 3.0]), omega0=3.0)
    assert y == 1.0
    assert np.array_equal(v.values, [3.0, 3.0])
    with pytest.raises(ZeroField):
        decompose(Field(g, [0.0, 0.0]), omega0=1.0)


def test_decompose_recombine_identity_within_one_ulp():
    spec = SpectralProfileSpec("rescaled_positive_field")
    grid = Grid.regular(31)
    _, _, w = sample_simple_pareto_batch(spec, grid, 200, make_rng(3, "rt"))
    for row in w:
        f = Field(grid, row)
        y, v = decompose(f, omega0=1.0)
        back = recombine(y, v)
        np.testing.assert_array_max_ulp(back.values, f.values, maxulp=1)


def test_pot_conditional_sups_exceed_threshold():
    spec = SpectralProfileSpec("constant", omega0=1.0)
    grid = Grid.regular(3)
    for method in ("stability", "rejection"):
        samples = pot_conditional_sample(spec, grid, r=2.0, n=50,
                                         rng=make_rng(4, method), method=method)
        assert all(sup_field(s.w).value > 2.0 for s in samples)


def test_pot_conditional_angle_law_matches_between_paths():
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(51)
    site = 25
    n = 5_000
    _, v_rej, _ = pot_conditional_batch(spec, grid, 2.0, n, make_rng(5, "rej"), "rejection")
    _, v_stab, _ = pot_conditional_batch(spec, grid, 2.0, n, make_rng(5, "stab"), "stability")
    assert two_sample_ks_pvalue(v_rej[:, site], v_stab[:, site]) > 0.01


def test_pot_conditional_near_one_reduces_to_unconditional():
    spec = SpectralProfileSpec("constant", omega0=1.0)
    grid = Grid.regular(3)
    r = 1.0 + 1e-12
    y, v, w = pot_conditional_batch(spec, grid, r, 100, make_rng(6, "eps"), "stability")
    y0 = 1.0 / (1.0 - make_rng(6, "eps").random(100))
    np.testing.assert_allclose(y, r * y0, rtol=0)
    assert np.all(w.max(axis=1) > 1.0)


def test_vector_single_coordinate_is_plain_pareto():
    spec = SpectralProfileSpec("constant", omega0=1.0)
    rng = make_rng(7, "v1")
    n = 20_000
    draws = np.array([sample_simple_pareto_vector(spec, 1, rng)[0] for _ in range(n)])
    stat = ks_statistic(draws, standard_pareto_cdf)
    assert stat < ks_critical_value(n, alpha=0.01)


@pytest.mark.parametrize("kind, d", [
    ("constant", 4), ("gaussian_moving_max", 7), ("rescaled_positive_field", 3), ("bernoulli_pair", 2),
])
def test_vector_of_several_coordinates_is_one_batch_row(kind, d):
    spec = SpectralProfileSpec(kind, omega0=1.5)
    w = sample_simple_pareto_vector(spec, d, make_rng(d, "vector"))
    assert w.shape == (d,) and w.max() / spec.omega0 >= 1.0
    _, _, batch = sample_simple_pareto_batch(spec, vector_grid(d), 1, make_rng(d, "vector"))
    assert np.array_equal(w, batch[0])


def test_vector_bernoulli_max_is_standard_pareto():
    spec = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
    grid = vector_grid(2)
    n = 20_000
    _, _, w = sample_simple_pareto_batch(spec, grid, n, make_rng(8, "v2"))
    stat = ks_statistic(w.max(axis=1), standard_pareto_cdf)
    assert stat < ks_critical_value(n, alpha=0.01)


def test_joint_radius_angle_probability_factorizes():
    # P(max W > r*omega0, angle hits the first axis) = rho(first axis)/r
    spec = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
    grid = vector_grid(2)
    n, r = 40_000, 2.0
    _, v, w = sample_simple_pareto_batch(spec, grid, n, make_rng(9, "v3"))
    event = (w.max(axis=1) > r) & (v[:, 0] == 1.0)
    p_hat = event.mean()
    expected = 0.5 / r
    se = np.sqrt(expected * (1 - expected) / n)
    assert abs(p_hat - expected) <= 3.0 * se


def test_homogeneity_of_threshold_events():
    # r * P(W in rA) == P(W in A) for A = {f(s0) > c}, c above omega0
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(51)
    site, c, n = 25, 1.5, 60_000
    _, _, w = sample_simple_pareto_batch(spec, grid, n, make_rng(10, "hom"))
    p_a = (w[:, site] > c).mean()
    se_a = np.sqrt(p_a * (1 - p_a) / n)
    for r in (2.0, 5.0):
        p_ra = (w[:, site] > r * c).mean()
        se_ra = np.sqrt(p_ra * (1 - p_ra) / n)
        pooled = np.hypot(r * se_ra, se_a)
        assert abs(r * p_ra - p_a) <= 3.0 * pooled


def test_radius_independent_of_angle():
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(51)
    n = 50_000
    y, v, _ = sample_simple_pareto_batch(spec, grid, n, make_rng(11, "ind"))
    corr = np.corrcoef(np.log(y), v[:, 25])[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_no_joint_exceedance_for_disjoint_profiles():
    # zero-or-peak profiles: joint exceedance above omega0 is impossible while
    # each marginal exceedance has positive probability
    spec = SpectralProfileSpec("bernoulli_pair", omega0=1.0)
    grid = vector_grid(2)
    n, c = 30_000, 1.5
    _, _, w = sample_simple_pareto_batch(spec, grid, n, make_rng(12, "noind"))
    assert np.sum((w[:, 0] > c) & (w[:, 1] > c)) == 0
    assert (w[:, 0] > c).mean() > 0
    assert (w[:, 1] > c).mean() > 0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), sites=st.integers(2, 199), scattered=st.booleans(),
       data=st.data())
def test_per_field_blocks_reduce_the_one_shot_batch_bitwise(kind, sites, scattered, data):
    # one to three row blocks, some ending in a one-row tail that joins the block before it
    if kind == "bernoulli_pair":
        sites = 2
    grid = (Grid(np.random.default_rng(sites).random((sites, 2))) if scattered
            else Grid.regular(sites))
    rows = max(2, BLOCK_CELLS // sites)
    n = data.draw(st.integers(1, 3 * rows) | st.sampled_from([rows + 1, 2 * rows + 1]), label="n")
    spec = SpectralProfileSpec(kind, omega0=1.5)
    blocked, one_shot = make_rng(n, "per_field"), make_rng(n, "per_field")
    sup = per_field_blocks(spec, grid, n, blocked, lambda w: w.max(axis=1))
    _, _, w = sample_simple_pareto_batch(spec, grid, n, one_shot)
    assert np.array_equal(sup, w.max(axis=1))
    assert blocked.random() == one_shot.random()


def test_per_field_blocks_peak_memory_is_two_floats_a_draw_and_one_block():
    # 200,000 fields at 101 sites would take 162 MB in one array
    spec, grid = SpectralProfileSpec("gaussian_moving_max"), Grid.regular(101)
    per_field_blocks(spec, grid, 10, make_rng(0, "warm"), lambda w: w.max(axis=1))  # cached set-up
    n = 200_000
    tracemalloc.start()
    try:
        per_field_blocks(spec, grid, n, make_rng(0, "peak"), lambda w: w.max(axis=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n + (4 << 20)
