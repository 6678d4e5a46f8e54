import numpy as np
import pytest

from paretoproc.errors import DomainError, GridMismatch, OutOfSupportWarning
from paretoproc.gof import ks_critical_value, ks_statistic, standard_pareto_cdf
from paretoproc.grid import Field, Grid
from paretoproc.pareto import sample_simple_pareto, sample_simple_pareto_batch
from paretoproc.rng import make_rng
from paretoproc.spectral import SpectralProfileSpec
from paretoproc.transforms import (
    LEVEL_CEILING,
    GpParams,
    NormingFunctions,
    apply_T,
    from_generalized,
    inv_power_transform_values,
    invert_T,
    power_transform_values,
    record_to_json,
    stability_norming,
    to_generalized,
)


@pytest.fixture
def grid2():
    return Grid.regular(2)


def test_to_generalized_gamma_one(grid2):
    p = GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=1.0)
    out = to_generalized(Field(grid2, [2.0, 3.0]), p)
    assert np.array_equal(out.values, [1.0, 2.0])


def test_to_generalized_log_limit(grid2):
    p = GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=0.0)
    out = to_generalized(Field(grid2, [np.e, np.e**2]), p)
    np.testing.assert_allclose(out.values, [1.0, 2.0], rtol=1e-15)


def test_to_generalized_direct_evaluation(grid2):
    p = GpParams.constant(grid2, mu=5.0, sigma=2.0, gamma=0.5)
    out = to_generalized(Field(grid2, [4.0, 4.0]), p)
    np.testing.assert_allclose(out.values, [9.0, 9.0], rtol=1e-15)


def test_to_generalized_accepts_sample(grid2):
    spec = SpectralProfileSpec("constant")
    s = sample_simple_pareto(spec, grid2, make_rng(0, "s"))
    p = GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=1.0)
    out = to_generalized(s, p)
    np.testing.assert_allclose(out.values, s.w.values - 1.0, rtol=1e-15)


def test_roundtrip_generalized_up_to_rounding():
    grid = Grid.regular(21)
    rng = make_rng(1, "rt")
    w = Field(grid, 0.2 + 5.0 * rng.random(21))
    s = grid.coords()
    p = GpParams(
        Field(grid, 1.0 + s),
        Field(grid, 0.5 + s),
        Field(grid, -0.5 + 1.5 * s),  # mixes negative, ~zero and positive
    )
    back = from_generalized(to_generalized(w, p), p)
    np.testing.assert_allclose(back.values, w.values, rtol=1e-12)


def test_from_generalized_gamma_one(grid2):
    p = GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=1.0)
    out = from_generalized(Field(grid2, [1.0, 2.0]), p)
    assert np.array_equal(out.values, [2.0, 3.0])


def test_from_generalized_clamps_beyond_upper_endpoint(grid2):
    p = GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=-0.5)
    # upper endpoint is mu - sigma/gamma = 2
    with pytest.warns(OutOfSupportWarning):
        out = from_generalized(Field(grid2, [3.0, 1.0]), p)
    assert out.values[0] == 0.0
    assert out.values[1] > 0.0
    out, mask = from_generalized(Field(grid2, [3.0, 1.0]), p, return_clamped=True)
    assert mask.tolist() == [True, False]


def test_apply_T_examples(grid2):
    nf = NormingFunctions.constant(grid2, gamma=1.0, a_t=2.0, b_t=3.0, t=10.0)
    out = apply_T(Field(grid2, [5.0, 5.0]), nf)
    assert np.array_equal(out.values, [2.0, 2.0])
    out = apply_T(Field(grid2, [3.0, 3.0]), nf)  # x == b maps to 1
    assert np.array_equal(out.values, [1.0, 1.0])
    out = apply_T(Field(grid2, [-100.0, -100.0]), nf)  # far below: positive part
    assert np.array_equal(out.values, [0.0, 0.0])


@pytest.mark.parametrize("gamma", [0.3, 0.0])
def test_a_level_too_large_for_a_float_is_the_ceiling_without_a_warning(grid2, gamma):
    # (x - b) / a overflows to inf under the suite's error::RuntimeWarning filter
    x = Field(grid2, [1e308, 1.0])
    nf = NormingFunctions.constant(grid2, gamma, 1e-10, 0.0, 10.0)
    p = GpParams.constant(grid2, 0.0, 1e-10, gamma)
    for out in (apply_T(x, nf), from_generalized(x, p)):
        assert out.values[0] == LEVEL_CEILING


def test_invert_T_examples(grid2):
    nf = NormingFunctions.constant(grid2, gamma=1.0, a_t=2.0, b_t=3.0, t=10.0)
    out = invert_T(Field(grid2, [2.0, 2.0]), nf)
    assert np.array_equal(out.values, [5.0, 5.0])
    out = invert_T(Field(grid2, [1.0, 1.0]), nf)
    assert np.array_equal(out.values, [3.0, 3.0])
    nf0 = NormingFunctions.constant(grid2, gamma=0.0, a_t=2.0, b_t=3.0, t=10.0)
    out = invert_T(Field(grid2, [np.e, np.e]), nf0)
    np.testing.assert_allclose(out.values, [5.0, 5.0], rtol=1e-15)


def test_apply_invert_roundtrip_on_nonclamped_set():
    grid = Grid.regular(21)
    s = grid.coords()
    nf = NormingFunctions(
        Field(grid, 0.2 + 0.5 * s),
        Field(grid, 1.0 + s),
        Field(grid, 2.0 * np.ones(21)),
        t=20.0,
    )
    rng = make_rng(2, "ti")
    x = Field(grid, 2.0 + 10.0 * rng.random(21))  # above b, never clamped
    back = invert_T(apply_T(x, nf), nf)
    np.testing.assert_allclose(back.values, x.values, rtol=1e-12)


def test_grid_mismatch_raised(grid2):
    p = GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=1.0)
    other = Field(Grid.regular(3), [1.0, 2.0, 3.0])
    with pytest.raises(GridMismatch):
        to_generalized(other, p)
    # the same number of sites at other coordinates is another grid
    with pytest.raises(GridMismatch):
        to_generalized(Field(Grid([0.0, 2.0]), [1.0, 2.0]), p)


@pytest.mark.parametrize("omega0", [0.0, np.inf, np.nan])
def test_gp_params_omega0_must_be_positive_and_finite(grid2, omega0):
    with pytest.raises(ValueError, match="omega0"):
        GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=1.0, omega0=omega0)


def test_to_generalized_zero_with_nonpositive_gamma_raises(grid2):
    p = GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=-0.5)
    with pytest.raises(DomainError):
        to_generalized(Field(grid2, [0.0, 1.0]), p)


def test_stability_norming_values(grid2):
    p = GpParams.constant(grid2, mu=0.0, sigma=1.0, gamma=1.0)
    u, s = stability_norming(p, 10.0)
    assert np.array_equal(u.values, [9.0, 9.0])
    assert np.array_equal(s.values, [10.0, 10.0])
    u, s = stability_norming(p, 1.0)  # r = 1 limit: identity norming
    assert np.array_equal(u.values, p.mu.values)
    assert np.array_equal(s.values, p.sigma.values)
    p0 = GpParams.constant(grid2, mu=2.0, sigma=3.0, gamma=0.0)
    u, s = stability_norming(p0, 10.0)
    np.testing.assert_allclose(u.values, 2.0 + 3.0 * np.log(10.0), rtol=1e-15)
    assert np.array_equal(s.values, [3.0, 3.0])


def test_continuity_across_gamma_zero_switch():
    w = np.array([[0.5, 2.0, 7.0]])
    just_above = power_transform_values(w, np.full(3, 1e-7))
    at_limit = power_transform_values(w, np.zeros(3))
    np.testing.assert_allclose(just_above, at_limit, rtol=1e-6)


def test_generalized_sup_is_standard_pareto():
    # recovering the normalized level from the generalized process leaves the
    # sup law standard Pareto
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(31)
    s = grid.coords()
    p = GpParams(Field(grid, 1.0 + s), Field(grid, 0.5 + s), Field(grid, 0.3 - 0.6 * s))
    n = 100_000
    _, _, w = sample_simple_pareto_batch(spec, grid, n, make_rng(3, "gp"))
    g = p.mu.values + p.sigma.values * power_transform_values(w, p.gamma.values)
    recovered, clamped = inv_power_transform_values(
        (g - p.mu.values) / p.sigma.values, p.gamma.values
    )
    assert not clamped.any()
    stat = ks_statistic(recovered.max(axis=1), standard_pareto_cdf)
    assert stat < ks_critical_value(n, alpha=0.01)
    # the field-level operation agrees with the batch kernel
    one = from_generalized(Field(grid, g[0]), p)
    np.testing.assert_array_equal(one.values, recovered[0])


def test_generalized_homogeneity_of_threshold_events():
    spec = SpectralProfileSpec("gaussian_moving_max")
    grid = Grid.regular(31)
    p = GpParams.constant(grid, mu=0.5, sigma=2.0, gamma=0.4)
    site, c, n = 15, 1.5, 60_000
    _, _, w = sample_simple_pareto_batch(spec, grid, n, make_rng(4, "gh"))
    # the recovered normalized level is w itself, so threshold events on it
    # scale like 1/r
    p_a = (w[:, site] > c).mean()
    se_a = np.sqrt(p_a * (1 - p_a) / n)
    for r in (2.0, 5.0):
        p_ra = (w[:, site] > r * c).mean()
        se_ra = np.sqrt(p_ra * (1 - p_ra) / n)
        assert abs(r * p_ra - p_a) <= 3.0 * np.hypot(r * se_ra, se_a)


@pytest.mark.parametrize("numpy_record, python_record", [
    pytest.param(lambda g: NormingFunctions.constant(g, 0.3, 1.0, 0.0, np.float32(2.0)),
                 lambda g: NormingFunctions.constant(g, 0.3, 1.0, 0.0, 2.0), id="norming_t"),
    pytest.param(lambda g: GpParams.constant(g, 0.0, 1.0, 0.5, np.float32(1.5)),
                 lambda g: GpParams.constant(g, 0.0, 1.0, 0.5, 1.5), id="gp_omega0"),
])
def test_a_numpy_scalar_field_serializes_as_its_python_number(grid2, numpy_record, python_record):
    # a numpy float scalar was accepted, then raised TypeError in json.dumps
    # 2.0 and 1.5 are exact in float32, so both records write the same bytes
    assert record_to_json(numpy_record(grid2)) == record_to_json(python_record(grid2))
