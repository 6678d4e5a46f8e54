import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoproc.gof import (
    ks_critical_value,
    ks_statistic,
    standard_frechet_cdf,
    two_sample_ks_pvalue,
)
from paretoproc import maxstable, spectral, verify
from paretoproc.grid import Grid
from paretoproc.pareto import sample_radii
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
from paretoproc.rng import fill_rows, make_rng
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


def _kept_width(m, bound):
    return m if np.ndim(bound) == 0 else len(bound)


def _uncompacted_poisson_max(n, m, scale, bound, draw, rng, truncation=0.0):
    """The round-major Poisson-max loop as it was before the live rows were
    compacted: every field enters in round one, and each round gathers and
    scatters the running maxima of every live row. A row stays while z * bound
    beats its maximum in some column."""
    out = np.zeros((n, _kept_width(m, bound)))
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
        undecided = (z[:, None] * bound > best).any(axis=1)
        active = active[undecided]
    return out


def _uniform_or_bump(m, moving_max):
    if moving_max:
        spec, grid = SpectralProfileSpec("gaussian_moving_max"), Grid.regular(m)
        return lambda k, rng: sample_profiles(spec, grid, k, rng)
    return lambda k, rng: rng.random((k, m))


REDUCERS = {
    "identity": lambda rows: rows,
    "middle_column": lambda rows: rows[:, rows.shape[1] // 2],
    "row_max": lambda rows: rows.max(axis=1),
    "three_columns": lambda rows: rows[:, [0, rows.shape[1] // 2, -1]],
}


def _reduced_draw(m, moving_max, reducer):
    """(draw, bound) of profiles on m sites, each bounded by one, times fixed column
    weights as V / E V is, then reduced by ``reducer``; the reduced weights bound the
    kept columns. ``reducer`` None keeps every column under the one bound 1.0."""
    base = _uniform_or_bump(m, moving_max)
    if reducer is None:
        return base, 1.0
    weights, reduce = 0.5 + np.random.default_rng(m).random(m), REDUCERS[reducer]
    return (lambda k, rng: reduce(base(k, rng) * weights).reshape(k, -1),
            reduce(weights[None, :]).reshape(-1))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=st.integers(2, 150), truncation=st.sampled_from([0.0, 0.5]), moving_max=st.booleans(),
       reducer=st.sampled_from([None, *sorted(REDUCERS)]), data=st.data())
def test_one_block_of_fields_is_the_round_major_loop_bitwise(m, truncation, moving_max, reducer,
                                                             data):
    # up to one row block, including the one-row tail that joins it, every field
    # enters in round one and the refill loop draws what the round-major loop drew
    rows = max(2, spectral.BLOCK_CELLS // m)
    n = data.draw(st.integers(1, rows + 1) | st.sampled_from([rows, rows + 1]), label="n")
    draw, bound = _reduced_draw(m, moving_max, reducer)
    refill, round_major = make_rng(m, "one_block"), make_rng(m, "one_block")
    expected = _uncompacted_poisson_max(n, m, 1.0, bound, draw, round_major, truncation)
    assert np.array_equal(maxstable._poisson_max(n, m, 1.0, bound, draw, refill, truncation),
                          expected)
    assert refill.random() == round_major.random()


def test_one_block_of_moving_maxima_is_the_round_major_loop_bitwise(monkeypatch):
    # 1,599 fields at 41 sites are one 1,598-row block and its one-row tail
    grid = Grid.regular(41)
    n = spectral.BLOCK_CELLS // 41 + 1
    refill = sample_moving_maximum_batch(grid, n, make_rng(16, "compact"))
    monkeypatch.setattr(maxstable, "_poisson_max", _uncompacted_poisson_max)
    assert np.array_equal(refill, sample_moving_maximum_batch(grid, n, make_rng(16, "compact")))


def _refill_poisson_max(n, m, scale, bound, draw, rng, truncation, cap):
    """The refill loop written field by field, a list of at most ``cap`` fields in
    flight in slot order. Rows whose point falls to ``truncation`` leave before the
    draw and the rest close up. After the draw the rows that z * bound beats in no
    column leave; if the queue fills them all, the next fields take their places, then
    join at the end, else the staying rows close up and the next fields follow. Each
    field is stored once."""
    c = _kept_width(m, bound)
    bounds = np.broadcast_to(bound, c)
    out = np.full((n, c), np.nan)
    queue = iter(range(n))
    flight = [(f, 0.0, np.zeros(c)) for f in itertools.islice(queue, cap)]

    def store(rows):
        for f, _, top in rows:
            assert np.isnan(out[f]).all(), f"field {f} stored twice"
            out[f] = top

    while flight:
        sums = rng.standard_exponential(len(flight))
        flight = [(f, g + e, top) for (f, g, top), e in zip(flight, sums)]
        store([row for row in flight if not scale / row[1] > truncation])
        flight = [row for row in flight if scale / row[1] > truncation]
        settled = []
        if flight:
            best = draw(len(flight), rng)
            flight = [(f, g, np.maximum(top, scale / g * b))
                      for (f, g, top), b in zip(flight, best)]
            settled = [bool(np.all(scale / g * bounds <= top)) for f, g, top in flight]
        store([row for row, done in zip(flight, settled) if done])
        fresh = [(f, 0.0, np.zeros(c))
                 for f in itertools.islice(queue, sum(settled) + cap - len(flight))]
        if len(fresh) >= sum(settled):
            refill = iter(fresh)
            flight = [next(refill) if done else row for row, done in zip(flight, settled)]
            flight += list(refill)
        else:
            flight = [row for row, done in zip(flight, settled) if not done] + fresh
    return out


@settings(derandomize=True, max_examples=50, deadline=None)
@given(m=st.integers(spectral.BLOCK_CELLS // 4, spectral.BLOCK_CELLS // 2)
       | st.integers(spectral.BLOCK_CELLS // 40, spectral.BLOCK_CELLS // 4) | st.integers(100, 150),
       truncation=st.sampled_from([0.0, 0.5]), moving_max=st.booleans(),
       reducer=st.sampled_from([None, *sorted(REDUCERS)]), data=st.data())
def test_refill_loop_matches_a_field_by_field_reference(m, truncation, moving_max, reducer, data):
    # two to three blocks of fields; from 16,384 sites a block is 2 to 4 fields, so at
    # truncation 0.5 every row in flight often leaves before the draw. The kept
    # columns have their own bounds (all m of them under the identity), or share one
    cap = max(2, spectral.BLOCK_CELLS // m)
    n = data.draw(st.integers(cap + 2, max(3 * cap, 64))
                  | st.sampled_from([cap + 2, 2 * cap + 1, 3 * cap]), label="n")
    draw, bound = _reduced_draw(m, moving_max, reducer)
    refill, reference = make_rng(m, "field_by_field"), make_rng(m, "field_by_field")
    expected = _refill_poisson_max(n, m, 1.0, bound, draw, reference, truncation, cap)
    assert np.array_equal(maxstable._poisson_max(n, m, 1.0, bound, draw, refill, truncation),
                          expected)
    assert refill.random() == reference.random()


@pytest.mark.parametrize("reducer", [None, *sorted(REDUCERS)])
@pytest.mark.parametrize("n", [5, 6, 40])
@pytest.mark.parametrize("moving_max", [False, True])
def test_two_field_blocks_at_truncation_half_match_the_field_by_field_reference(reducer, n,
                                                                                moving_max):
    # 30,000 sites make a block of two fields: n = 5 and 6 are up to three blocks
    m = 30_000
    draw, bound = _reduced_draw(m, moving_max, reducer)
    refill, reference = make_rng(n, "two_field_blocks"), make_rng(n, "two_field_blocks")
    expected = _refill_poisson_max(n, m, 1.0, bound, draw, reference, 0.5, 2)
    assert np.array_equal(maxstable._poisson_max(n, m, 1.0, bound, draw, refill, 0.5), expected)
    assert refill.random() == reference.random()


def test_a_block_the_truncation_empties_still_refills():
    # at 40,000 sites a block is two fields, and a fresh row falls to 0.5 in round
    # one with probability e^-2: both rows in flight leave before the draw, often.
    # A row keeps one column of ones: it settles at its first point z, or falls to
    # the truncation at maxima 0
    n, m = 1_000, 40_000
    ones = lambda k, rng: np.ones((k, 1))  # noqa: E731
    got = maxstable._poisson_max(n, m, 1.0, np.ones(1), ones, make_rng(0, "emptied_block"), 0.5)
    expected = _refill_poisson_max(n, m, 1.0, np.ones(1), ones, make_rng(0, "emptied_block"),
                                   0.5, 2)
    assert np.array_equal(got, expected)
    assert (got == 0.0).any() and (got[got != 0.0] > 0.5).all()


def _two_sample_pvalues(a, b):
    return [two_sample_ks_pvalue(x, y) for x, y in zip(a.reshape(len(a), -1).T,
                                                         b.reshape(len(b), -1).T)]


@pytest.mark.parametrize("reducer", ["middle_column", "row_max", "three_columns"])
def test_reduced_draws_keep_the_law_of_the_identity_columns(reducer):
    # the reduced loop stops on the kept columns alone, so it draws another stream;
    # what it keeps has the law of the same columns of the whole fields. 101 sites
    # take 648 fields a block: eight blocks here
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(101))
    n, reduce = 5_000, REDUCERS[reducer]
    got = sample_max_stable_batch(cfg, n, make_rng(5, "reduced_law"), reduce)
    whole = reduce(sample_max_stable_batch(cfg, n, make_rng(6, "identity_law")))
    assert got.shape == whole.shape
    assert min(_two_sample_pvalues(got, whole)) > 0.01
    if reducer == "three_columns":  # the joint df at one point, within 3 pooled SE
        x = np.array([1.5, 1.0, 2.0])
        p, q = np.all(got <= x, axis=1).mean(), np.all(whole <= x, axis=1).mean()
        assert abs(p - q) <= 3.0 * np.sqrt((p * (1 - p) + q * (1 - q)) / n)


@pytest.mark.parametrize("reduce, shape", [
    (None, (0, 7)), (REDUCERS["row_max"], (0,)), (REDUCERS["three_columns"], (0, 3)),
])
def test_no_fields_is_an_empty_draw_that_moves_no_stream(reduce, shape):
    rng = make_rng(0, "no_fields")
    width = shape[1] if len(shape) > 1 else 1
    got = maxstable._poisson_max(0, 7, 1.0, np.ones(width),
                                 lambda k, rng: rng.random((k, width)), rng, 0.5)
    assert got.shape == (0, width)
    assert sample_max_stable_batch(PenroseConfig(SpectralProfileSpec("constant"), Grid.regular(7)),
                                   0, rng, reduce).shape == shape
    assert rng.random() == make_rng(0, "no_fields").random()


@pytest.fixture(scope="module")
def package_reducers():
    """Every reducer the package passes to ``sample_max_stable_batch``, as (reducer, sites
    of the grid it reads) by what it keeps, caught at each caller."""
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(21))
    found = {}

    def spy(kept):
        def recorded(cfg, n, rng, reduce=None):
            found.setdefault(kept, []).append((reduce, cfg.grid.n_sites))
            return sample_max_stable_batch(cfg, n, rng, reduce)
        return recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maxstable, "sample_max_stable_batch", spy("middle_column"))
        construction_checks(cfg, 20, 1)
        mp.setattr(maxstable, "sample_max_stable_batch", spy("row_max"))
        doa_empirical_check(cfg, 50, 20, make_rng(0, "reducer_spy"), "maxstable")
        mp.setattr(verify, "sample_max_stable_batch", spy("three_columns"))
        mp.setattr(verify, "construction_checks", lambda cfg, n, seed: [None, None])
        mp.setattr(verify, "findim_evd", lambda *args, **kwargs: (0.5, 0.1))
        verify.check_max_stable(quick=True)
    return found


def _commutes(reduce, a, b, c):
    """Whether ``reduce`` commutes, bit for bit, with the sitewise maximum of a and b and
    with scaling a by c > 0."""
    return (np.array_equal(reduce(np.maximum(a, b)), np.maximum(reduce(a), reduce(b)))
            and np.array_equal(reduce(c * a), c * reduce(a)))


def test_the_package_passes_a_column_three_columns_and_a_sup(package_reducers):
    # construction_checks passes three: the marginal draw and the two m-max draws
    widths = {kept: [np.shape(reduce(np.ones((4, m)))) for reduce, m in found]
              for kept, found in package_reducers.items()}
    assert widths == {"middle_column": [(4,)] * 3, "row_max": [(4,)], "three_columns": [(4, 3)]}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kept=st.sampled_from(["middle_column", "row_max", "three_columns"]), k=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1),
       c=st.floats(1e-100, 1e100) | st.sampled_from([1.0, 0.5, 3.0, 1e-300, 1e300]))
def test_every_package_reducer_commutes_with_the_maximum_and_positive_scaling(
        package_reducers, kept, k, seed, c):
    for reduce, m in package_reducers[kept]:
        rng = np.random.default_rng(seed)
        a, b = rng.standard_exponential((2, k, m)) * rng.choice([1e-3, 1.0, 1e3], (2, k, m))
        assert _commutes(reduce, a, b, c)


def test_a_row_mean_is_not_a_reducer():
    # the negative control: a mean neither commutes with the sitewise maximum nor,
    # in floating point, with scaling
    mean = lambda rows: rows.mean(axis=1)  # noqa: E731
    assert not _commutes(mean, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 2.0)
    rows = np.array([[0.7, 0.2, 0.9]])  # 3 * mean(rows) rounds to 1.8, mean(3 * rows) above it
    assert not _commutes(mean, rows, rows, 3.0)


@pytest.mark.parametrize("reduce", [
    lambda rows: rows.mean(axis=1),  # misses the maximum
    lambda rows: rows[:, 3] ** 2,  # misses the scaling
    lambda rows: rows.max(axis=0),  # the sup over fields, not over sites
    lambda rows: rows[:, 3] + rows[:, 4],  # two sites summed
])
def test_a_reducer_that_misses_the_contract_fails_before_any_draw(reduce):
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(9))
    rng = make_rng(0, "bad_reducer")
    with pytest.raises(ValueError, match="reduce"):
        sample_max_stable_batch(cfg, 10, rng, reduce)
    assert rng.random() == make_rng(0, "bad_reducer").random()


def test_whole_fields_are_raw_maxima_divided_by_the_mean_field():
    # no reducer: raw profiles under the one bound omega0, divided once as they finish
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max", omega0=2.5), Grid.regular(101))
    n = spectral.BLOCK_CELLS // 101
    raw = _uncompacted_poisson_max(n, 101, 1.0, 2.5,
                                   lambda k, rng: sample_profiles(cfg.spec, cfg.grid, k, rng),
                                   make_rng(3, "whole"), cfg.truncation)
    assert np.array_equal(sample_max_stable_batch(cfg, n, make_rng(3, "whole")),
                          raw / cfg.mean_field)


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


def _profiles_per_field(monkeypatch, reduce):
    cfg = PenroseConfig(SpectralProfileSpec("gaussian_moving_max"), Grid.regular(101))
    drawn, sample = [], maxstable.sample_profiles

    def counted(spec, grid, k, rng):
        drawn.append(k)
        return sample(spec, grid, k, rng)

    monkeypatch.setattr(maxstable, "sample_profiles", counted)
    n = 2_000
    sample_max_stable_batch(cfg, n, make_rng(18, "per_field"), reduce)
    return sum(drawn) / n


def test_sitewise_bound_draws_few_profiles_per_field(monkeypatch):
    # the bound omega0 / min_s E V(s) drew 25.4 profiles per field here; the
    # sitewise bound omega0 on the raw profiles draws about 16.4
    assert _profiles_per_field(monkeypatch, None) <= 18.0


@pytest.mark.parametrize("reducer, most", [("middle_column", 6.0), ("row_max", 3.5),
                                           ("three_columns", 15.0)])
def test_a_reduced_field_settles_on_the_columns_kept(monkeypatch, reducer, most):
    # every site settling took 16.4 profiles a field; the middle column takes 5.0 and
    # the sup 2.7. The end sites see half the middle's mean field, so their bound
    # omega0 / E V is twice as high: the columns 0, 50 and 100 take 13.5
    assert _profiles_per_field(monkeypatch, REDUCERS[reducer]) <= most


def test_sample_max_stable_single_field(gmm_cfg):
    f = sample_max_stable(gmm_cfg, make_rng(2, "one"))
    assert np.all(f.values > 0.0)


def test_findim_evd_constant_profile(const_cfg):
    est = findim_evd(const_cfg, [2.0], [0], n_mc=1_000)
    np.testing.assert_allclose(est, np.exp(-0.5), rtol=1e-12)
    # large arguments push the df to one
    est = findim_evd(const_cfg, [1e9], [0], n_mc=1_000)
    assert est == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("x, n_mc, message", [
    ([2.0], 0, "n_mc must be an integer >= 1"),
    ([np.nan], 100, "evaluation points must be positive"),
])
def test_findim_evd_rejects_no_draws_or_a_nan_point_before_drawing(x, n_mc, message):
    cfg = PenroseConfig(SpectralProfileSpec("constant"), Grid.regular(3))
    rng = make_rng(0, "findim_checks")
    with pytest.raises(ValueError, match=message):
        findim_evd(cfg, x, [1], n_mc=n_mc, rng=rng, return_se=True)
    assert rng.random() == make_rng(0, "findim_checks").random()  # nothing was drawn


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


@pytest.mark.parametrize("m, n, name", [(0, 100, "m"), (-1, 100, "m"), (2.5, 100, "m"),
                                        (True, 100, "m"), (4, 0, "n"), (4, -3, "n")])
def test_mmax_self_similarity_rejects_a_count_by_its_name_before_drawing(const_cfg, m, n, name):
    # m = 0 reached numpy's empty-reduction error, m = -1 and 2.5 were blamed on n, and
    # n = 0 reached scipy's small-sample warning
    rng = make_rng(0, "mmax_counts")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            mmax_self_similarity_pvalue(const_cfg, m, n, rng)
    assert rng.random() == make_rng(0, "mmax_counts").random()  # nothing was drawn


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


def test_moving_maximum_rejects_a_grid_too_wide_for_its_kernel(monkeypatch):
    # the unit kernel's exponent overflows at the far site, no field's running minimum
    # leaves 0 and the Poisson-max loop never stops: rejected before it starts
    def drew(*args, **kwargs):
        raise AssertionError("the Poisson-max loop ran")

    monkeypatch.setattr(maxstable, "_poisson_max", drew)
    rng = make_rng(0, "wide")
    with pytest.raises(ValueError, match=r"grid of extent 1e\+300 is too wide"):
        sample_moving_maximum_batch(Grid(np.array([0.0, 1e300])), 1, rng)
    assert rng.random() == make_rng(0, "wide").random()  # the stream did not move


def test_doa_pareto_input(gmm_cfg):
    report = doa_empirical_check(gmm_cfg, n_block=50, n_rep=40_000,
                                 rng=make_rng(10, "doa"), input_kind="pareto")
    assert report["n_exceedances"] > 1_000
    by_name = {c.name: c for c in report["checks"]}
    assert by_name["sup_ratio_x2"].passed
    assert by_name["sup_ratio_x5"].passed
    assert by_name["angle_two_sample_ks"].passed


def _full_row_angles(cfg, n, rng):
    """The angle sampler as it drew whole batches of V / E V and kept every
    accepted row whole."""

    def draw(size):
        scaled = sample_profiles(cfg.spec, cfg.grid, size, rng) / cfg.mean_field
        sup = scaled.max(axis=1)
        accept = rng.random(size) < sup / cfg.sup_bound
        return (scaled[accept] / sup[accept, None],)

    return fill_rows(n, lambda remaining: max(2048, 2 * remaining), draw)[0]


@pytest.mark.parametrize("site", [0, 25])
def test_sup_weighted_angle_sample_is_the_site_column_of_the_full_rows(gmm_cfg, site):
    column, rows = make_rng(7, "angle"), make_rng(7, "angle")
    got = maxstable._sup_weighted_angle_sample(gmm_cfg, 3_000, site, column)
    assert np.array_equal(got, _full_row_angles(gmm_cfg, 3_000, rows)[:, site])
    assert column.random() == rows.random()


@pytest.fixture(scope="module")
def cfg_101():
    return {kind: PenroseConfig(SpectralProfileSpec(kind), Grid.regular(101))
            for kind in ("gaussian_moving_max", "rescaled_positive_field")}


@pytest.mark.parametrize("kind", ["gaussian_moving_max", "rescaled_positive_field"])
def test_doa_pareto_report_equals_the_whole_batch_draw_bitwise(cfg_101, kind):
    # 2,000 replicates at 101 sites are four 648-row profile blocks
    cfg, n_block, n_rep = cfg_101[kind], 50, 2_000
    report = doa_empirical_check(cfg, n_block, n_rep, make_rng(6, "doa101"), "pareto")
    # the Pareto arm as it drew one (n_rep, m) batch of T_t X = (V / E V) y / t
    rng, t, site = make_rng(6, "doa101"), float(n_block), 50
    y = sample_radii(n_rep, rng)
    normalized = sample_profiles(cfg.spec, cfg.grid, n_rep, rng) / cfg.mean_field
    normalized *= y[:, None]
    normalized /= t
    radius = normalized.max(axis=1)
    exceed = radius > 1.0
    ratios = [float(np.mean(radius[exceed] > x)) for x in (2.0, 5.0)]
    angle = normalized[exceed, site] / radius[exceed]
    reference = _full_row_angles(cfg, int(exceed.sum()), rng)[:, site]
    assert report["n_exceedances"] == exceed.sum() > 0
    assert [c.statistic for c in report["checks"]] == ratios + [
        two_sample_ks_pvalue(angle, reference)]


@pytest.mark.parametrize("n_block", [2, 50])
@pytest.mark.parametrize("kind", ["gaussian_moving_max", "rescaled_positive_field"])
def test_doa_maxstable_report_equals_the_whole_batch_normalization_bitwise(cfg_101, kind, n_block,
                                                                          monkeypatch):
    # the arm normalizes each field's sup alone. With the sup read off whole fields (the
    # reduced loop stops on the sup and draws another stream, in law the same), that is
    # the normalization of the whole (n_rep, m) batch, then its sup
    cfg, n_rep = cfg_101[kind], 2_000
    monkeypatch.setattr(maxstable, "sample_max_stable_batch",
                        lambda cfg, n, rng, reduce: reduce(sample_max_stable_batch(cfg, n, rng)))
    report = doa_empirical_check(cfg, n_block, n_rep, make_rng(8, "doams101"), "maxstable")
    t = float(n_block)
    normalized = sample_max_stable_batch(cfg, n_rep, make_rng(8, "doams101"))
    b_t = -1.0 / np.log1p(-1.0 / t)
    b_2t = -1.0 / np.log1p(-1.0 / (2.0 * t))
    normalized -= b_t
    normalized /= b_2t - b_t
    normalized += 1.0
    np.maximum(normalized, 0.0, out=normalized)
    radius = normalized.max(axis=1)
    exceed = radius > 1.0
    n_exc = int(exceed.sum())
    ratios = [float(np.mean(radius[exceed] > x)) for x in (2.0, 5.0)]
    bounds = [maxstable.DOA_SE_FACTOR * float(np.sqrt(q * (1.0 - q) / n_exc)) for q in ratios]
    assert report["n_exceedances"] == n_exc > 0
    assert [(c.statistic, c.threshold) for c in report["checks"]] == list(zip(ratios, bounds))


def test_doa_pareto_peak_memory_is_set_by_the_block(cfg_101):
    # the whole-batch draw held (n_rep, 101) floats: 46.7 MiB traced here
    cfg = cfg_101["gaussian_moving_max"]
    doa_empirical_check(cfg, 50, 100, make_rng(0, "warm"), "pareto")  # cached set-up
    tracemalloc.start()
    try:
        doa_empirical_check(cfg, 50, 50_000, make_rng(0, "peak"), "pareto")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


def test_construction_and_doa_peak_grows_by_a_few_floats_a_field(cfg_101):
    # the round-major loop kept the (n, m), (4n, m) and (n_rep, m) maxima whole for
    # one column or one sup a field: 6.13 MB traced at n = 1,000 and 41.1 MB at 8,000
    cfg = cfg_101["gaussian_moving_max"]

    def peak(n):
        tracemalloc.start()
        try:
            construction_checks(cfg, n, 1)
            doa_empirical_check(cfg, 50, 4 * n, make_rng(1, "doa_peak"), "maxstable")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # the cached set-ups are not counted
    assert peak(8_000) - peak(1_000) <= 16 * 8 * 7_000  # 16 floats a field, against m = 101


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
