import numpy as np
import pytest

from paretoproc.errors import SpecGridMismatch
from paretoproc.grid import Grid
from paretoproc.rng import make_rng
from paretoproc.spectral import (
    SpectralProfileSpec,
    profile_mean,
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
    with pytest.raises(ValueError):
        SpectralProfileSpec("constant", omega0=0.0)
    with pytest.raises(ValueError):
        SpectralProfileSpec("gaussian_moving_max", bandwidth=0.0)
    with pytest.raises(ValueError):
        SpectralProfileSpec("no_such_kind")


def test_spec_kind_aliases_and_config():
    assert SpectralProfileSpec("ConstantProfile").kind == "constant"
    assert SpectralProfileSpec("GaussianMovingMax").kind == "gaussian_moving_max"
    spec = SpectralProfileSpec.from_config(
        {"kind": "RescaledPositiveField", "omega0": 2.0, "corr_length": 0.4}
    )
    assert spec.kind == "rescaled_positive_field"
    assert spec.omega0 == 2.0
    assert spec.corr_length == 0.4
