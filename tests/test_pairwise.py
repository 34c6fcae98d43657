"""Tests for the all-pairwise-difference quantile tests."""

import bisect
import itertools
import math
import multiprocessing
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qshift.pairwise as pairwise_mod

from qshift import (
    DECILES,
    BootstrapConfig,
    FactorialSample,
    IBAND_QUANTILES,
    decinter,
    estimate_quantiles,
    hd_quantile,
    iband,
    median_diff_test,
    pairwise_differences,
    ph_probability,
    stream,
)
from qshift.bootstrap import _cell_resample_matrices, _resample_indices
from qshift.rng import derive_seed

from oracles import (
    bootstrap_statistic,
    hd_from_counts_dense,
    pairwise_quantiles_by_subtraction,
    transposed,
    type7_quantile,
)

# 10-20 draws from at most five points of a lattice with step 1 or 0.5,
# negative values included: V1*V2 <= 25 <= n1*n2/4, few enough to count
_lattice_cell = st.tuples(
    st.sampled_from([1.0, 0.5]),
    st.lists(st.integers(-2, 2), min_size=10, max_size=20),
).map(lambda c: c[0] * np.array(c[1], dtype=float))


def _drawn_level(x, ix, y, iy):
    """``pairwise._level`` of x and y, replicate b drawing ``x[ix[b]]`` and
    ``y[iy[b]]``, reduced with one estimator."""
    level = pairwise_mod._level(x, y, ix.shape[0], lambda i, n: (ix, iy)[i])
    return lambda quantiles, estimator: level(quantiles, (estimator,))[0]


def _by_block(mx, my, quantiles, estimator):
    """``pairwise._diff_quantiles_by_block`` with one estimator."""
    return pairwise_mod._diff_quantiles_by_block(mx, my, quantiles, (estimator,))[0]


class TestPairwiseDifferences:
    def test_row_major_enumeration(self):
        assert pairwise_differences([1, 2], [1, 2]).tolist() == [0.0, -1.0, 1.0, 0.0]

    def test_single_pair(self):
        assert pairwise_differences([3.5], [3.5]).tolist() == [0.0]

    def test_one_sided(self):
        assert pairwise_differences([5, 7, 9], [1]).tolist() == [4.0, 6.0, 8.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pairwise_differences([], [1.0])
        with pytest.raises(ValueError):
            pairwise_differences([1.0], [])

    def test_exchange_negates(self):
        rng = stream(1, "pairs")
        x, y = rng.normal(size=7), rng.normal(size=5)
        d = pairwise_differences(x, y)
        d_swapped = pairwise_differences(y, x)
        # same multiset with signs flipped
        assert sorted(d_swapped.tolist()) == sorted((-d).tolist())


@pytest.mark.filterwarnings("ignore:smallest cell:UserWarning")
@pytest.mark.parametrize("estimator", ["hd", "t7"])
def test_one_observation_per_cell(estimator):
    """With N = 1 every replicate holds the one difference of each level,
    and each estimate is that difference.  A sample's -0.0 is read as
    +0.0, so the difference -0.0 - 0.0 is +0.0 for either estimator."""
    config = BootstrapConfig(n_boot=40, seed=2, estimator=estimator)
    rows = iband(FactorialSample.from_cells([3.0], [0.5], [-0.0], [0.0]), config)
    assert [r.q for r in rows] == list(IBAND_QUANTILES)
    for r in rows:
        assert (r.est_lev1, r.dif, r.ci_low, r.ci_high, r.p_value, r.p_adjusted) == (
            2.5, 2.5, 2.5, 2.5, 0.0, 0.0)
        assert math.copysign(1.0, r.est_lev2) == 1.0 and r.est_lev2 == 0.0
    for (x, y), expected in [(([1.5], [4.0]), (-2.5, -2.5, -2.5, 0.0)),
                             (([-0.0], [0.0]), (0.0, 0.0, 0.0, 1.0))]:
        result = astuple(median_diff_test(x, y, config))
        assert result == expected
        assert [math.copysign(1.0, v) for v in result] == [math.copysign(1.0, v) for v in expected]


# 1-12 (value, flip) draws: integer ties with zeros, or continuous values
# with zeros; a flipped zero is given as -0.0
_flip_cell = (st.lists(st.tuples(st.integers(-2, 2).map(float), st.booleans()),
                       min_size=1, max_size=12)
              | st.lists(st.tuples(st.just(0.0) | st.floats(-5.0, 5.0), st.booleans()),
                         min_size=1, max_size=12))


@pytest.mark.filterwarnings("ignore:smallest cell:UserWarning")
@pytest.mark.parametrize("estimator", ["hd", "t7"])
@settings(max_examples=30, deadline=None)
@given(cells=st.lists(_flip_cell, min_size=4, max_size=4))
@example(cells=[[(3.0, False)], [(0.5, False)], [(0.0, True)], [(0.0, False)]])
# tied levels, counted from the cells' distinct values
@example(cells=[[(0.0, True), (1.0, False)] * 6, [(0.0, False), (1.0, False)] * 6] * 2)
def test_negative_zero_reads_as_zero(estimator, cells):
    """A sample with some zeros given as -0.0 gives the bytes of the same
    sample with +0.0 everywhere: decinter, iband, median_diff_test,
    estimate_quantiles and the resampled iband levels a simulation reads."""
    plus = [np.array([v for v, _ in c]) + 0.0 for c in cells]
    minus = [np.array([-0.0 if v == 0.0 and flip else v for v, flip in c]) for c in cells]
    config = BootstrapConfig(n_boot=40, seed=1, estimator=estimator)

    def results(cells):
        sample = FactorialSample.from_cells(*cells)
        return pickle.dumps((
            decinter(sample, config=config), iband(sample, config),
            [median_diff_test(cells[i], cells[i + 1], config) for i in (0, 2)],
            [estimate_quantiles(c, DECILES, estimator) for c in cells],
            pairwise_mod._iband_star(cells, replace(config, quantiles=IBAND_QUANTILES),
                                     ("hd", "t7")),
        ))

    assert results(minus) == results(plus)


@pytest.mark.parametrize("bad", [[], [1.0, np.nan], [np.inf, 1.0]], ids=["empty", "nan", "inf"])
@pytest.mark.parametrize("test", [
    pairwise_differences,
    lambda x, y: median_diff_test(x, y, BootstrapConfig(n_boot=40)),
], ids=["pairwise_differences", "median_diff_test"])
def test_rejects_empty_or_non_finite_sample(test, bad):
    with pytest.raises(ValueError, match=r"^x (must be non-empty|contains NaN)"):
        test(bad, [1.0, 2.0])
    with pytest.raises(ValueError, match=r"^y (must be non-empty|contains NaN)"):
        test([1.0, 2.0], bad)


class TestPHProbability:
    def test_all_below(self):
        assert ph_probability(pairwise_differences([1, 2], [3, 4])) == 1.0

    def test_all_above(self):
        assert ph_probability(pairwise_differences([3, 4], [1, 2])) == 0.0

    def test_empty_difference_set_rejected(self):
        with pytest.raises(ValueError, match="difference set must be non-empty"):
            ph_probability([])

    def test_nan_difference_rejected(self):
        # a NaN is not negative, so it would count as a tie
        with pytest.raises(ValueError, match="difference set contains NaN"):
            ph_probability([np.nan, np.nan, -1.0])

    def test_tie_not_counted(self):
        assert ph_probability(pairwise_differences([1], [1])) == 0.0

    def test_exchange_complements_up_to_ties(self):
        rng = stream(2, "ph")
        x, y = rng.normal(size=9), rng.normal(size=6)
        d = pairwise_differences(x, y)
        # continuous data: no ties, so P(X<Y) + P(Y<X) = 1
        assert ph_probability(d) + ph_probability(-d) == pytest.approx(1.0)


def test_huge_values_rejected_by_name():
    # beyond max/4, a difference of two level differences overflows
    cells = [np.linspace(-1.0, 1.0, 20) for _ in range(4)]
    cells[2] = cells[2] * 1e308
    with pytest.raises(ValueError, match=r"^cell \(2,1\) holds a value beyond 4.494e\+307"):
        iband(FactorialSample.from_cells(*cells), BootstrapConfig(n_boot=200))
    with pytest.raises(ValueError, match=r"^y holds a value beyond 4.494e\+307"):
        median_diff_test(cells[0], cells[2], BootstrapConfig(n_boot=200))


def test_values_at_the_bound_give_finite_results():
    # the level differences near 2 * 4.49e307 and the contrast 4 * 4.49e307
    x = np.linspace(0.5, 1.0, 20) * 4.49e307
    sample = FactorialSample.from_cells(x, -x, -x, x)
    for estimator in ("hd", "t7"):
        config = BootstrapConfig(n_boot=200, seed=3, estimator=estimator)
        for row in iband(sample, config):
            assert np.isfinite([row.est_lev1, row.est_lev2, row.dif, row.ci_low, row.ci_high]).all()
    res = median_diff_test(x, -x, BootstrapConfig(n_boot=200, seed=3))
    assert np.isfinite([res.estimate, res.ci_low, res.ci_high]).all()


class TestIband:
    def test_identical_constant_cells(self):
        sample = FactorialSample.from_cells(*([[2.0] * 25] * 4))
        rows = iband(sample, BootstrapConfig(n_boot=400, seed=1, quantiles=IBAND_QUANTILES))
        for row in rows:
            assert row.dif == 0.0
            assert row.p_value == 1.0

    def test_default_quantiles(self):
        rng = stream(3, "ib")
        sample = FactorialSample.from_cells(*(rng.normal(size=25) for _ in range(4)))
        rows = iband(sample)
        assert [row.q for row in rows] == [0.1, 0.25, 0.5, 0.75, 0.9]

    def test_config_without_quantiles_tests_iband_family(self):
        rng = stream(3, "ib")
        sample = FactorialSample.from_cells(*(rng.normal(size=25) for _ in range(4)))
        rows = iband(sample, BootstrapConfig(n_boot=200, seed=1))
        assert tuple(row.q for row in rows) == IBAND_QUANTILES

    def test_estimates_are_diff_quantiles(self):
        rng = stream(4, "ib")
        cells = [rng.normal(size=20) for _ in range(4)]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            sample = FactorialSample.from_cells(*cells)
            rows = iband(sample, BootstrapConfig(
                n_boot=200, seed=2, estimator="t7", quantiles=(0.5,)
            ))
        d1 = pairwise_differences(cells[0], cells[1])
        d2 = pairwise_differences(cells[2], cells[3])
        assert rows[0].est_lev1 == pytest.approx(type7_quantile(d1, 0.5), abs=1e-12)
        assert rows[0].est_lev2 == pytest.approx(type7_quantile(d2, 0.5), abs=1e-12)

    def test_orientation_changes_result(self):
        """Normal cells on level 1, lognormal on level 2: transposing the
        design changes the pairing, so the median estimates differ."""
        differs = 0
        for s in range(20):
            rng = stream(100 + s, "orient")
            sample = FactorialSample.from_cells(
                rng.normal(size=50), rng.normal(size=50),
                np.exp(rng.normal(size=50)), np.exp(rng.normal(size=50)),
            )
            config = BootstrapConfig(n_boot=100, seed=3, quantiles=(0.5,))
            direct = iband(sample, config)[0].dif
            flipped = iband(transposed(sample), config)[0].dif
            differs += direct != flipped
        assert differs >= 18

    def test_t7_median_negates_exactly_for_odd_diff_count(self):
        # (n-1)q + 1 integral at q=.5 for odd n: the estimate is one order statistic
        rng = stream(5, "odd")
        x, y = rng.normal(size=5), rng.normal(size=5)  # 25 diffs
        d = pairwise_differences(x, y)
        assert type7_quantile(-d, 0.5) == -type7_quantile(d, 0.5)

    def test_block_size_does_not_change_results(self, monkeypatch):
        """Replicates processed in tiny blocks give the same rows as one pass."""
        rng = stream(7, "blocks")
        sample = FactorialSample.from_cells(*(rng.normal(size=24) for _ in range(4)))
        config = BootstrapConfig(n_boot=150, seed=4, quantiles=IBAND_QUANTILES)
        full = iband(sample, config)
        monkeypatch.setattr(pairwise_mod, "_BLOCK_ELEMENTS", 24 * 24)  # one replicate per block
        # each replicate's estimates are reduced on their own, in an order
        # fixed by the window, so the block shape changes no bit
        assert iband(sample, config) == full

        # tied cells are counted, not sorted; the counts of one replicate
        # never meet another's, so every row is identical
        tied = FactorialSample.from_cells(*(rng.poisson(3.0, 24).astype(float) for _ in range(4)))
        cells = tied.flat_cells()
        assert pairwise_mod._tied_cells(cells[0], cells[1]) is not None
        assert pairwise_mod._tied_cells(cells[2], cells[3]) is not None
        blocks = []
        original = pairwise_mod._from_cumulative_counts
        monkeypatch.setattr(pairwise_mod, "_from_cumulative_counts",
                            lambda *a: blocks.append(a[1].shape[1]) or original(*a))
        full = iband(tied, config)
        assert blocks == [1, 1, 150, 150]  # point estimates, then one block a level
        blocks.clear()
        monkeypatch.setattr(pairwise_mod, "_COUNT_ELEMENTS", 1)  # one replicate per block
        assert iband(tied, config) == full
        assert blocks == [1, 1] + [1] * 300


@pytest.mark.parametrize("estimator", ["hd", "t7"])
@settings(max_examples=40, deadline=None)
@given(x=_lattice_cell, y=_lattice_cell)
@example(x=np.full(12, 1.5), y=np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0] * 3))
@example(x=np.arange(-2.0, 3.0).repeat(2), y=np.arange(-1.0, 1.5, 0.5).repeat(4))
def test_counting_path_matches_sort_path_and_oracle(estimator, x, y):
    """On tied cells the quantiles counted from the resample indices equal
    the sorted ones: type 7 bit for bit, Harrell-Davis up to summation
    order, and with the same exact-zero replicates."""
    config = BootstrapConfig(n_boot=40, seed=9, estimator=estimator,
                             quantiles=IBAND_QUANTILES)
    ix, iy = _resample_indices(config, 0, x.size), _resample_indices(config, 1, y.size)
    assert pairwise_mod._tied_cells(x, y) is not None
    counted = _drawn_level(x, ix, y, iy)(IBAND_QUANTILES, estimator)
    by_sort = _by_block(x[ix], y[iy], IBAND_QUANTILES, estimator)
    est = {"hd": hd_quantile, "t7": type7_quantile}[estimator]
    by_oracle = np.column_stack([
        bootstrap_statistic((x, y), lambda c: est(pairwise_differences(c[0], c[1]), q),
                            config).values
        for q in IBAND_QUANTILES
    ])
    if estimator == "t7":
        np.testing.assert_array_equal(counted, by_sort)
        np.testing.assert_array_equal(np.sort(counted, axis=0), by_oracle)
    else:
        scale = np.abs(pairwise_differences(x, y)).max()
        np.testing.assert_allclose(counted, by_sort, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(np.sort(counted, axis=0), by_oracle,
                                   rtol=1e-12, atol=1e-12 * scale)
    zeros = np.count_nonzero(counted == 0.0, axis=0)
    np.testing.assert_array_equal(zeros, np.count_nonzero(by_sort == 0.0, axis=0))
    np.testing.assert_array_equal(zeros, np.count_nonzero(by_oracle == 0.0, axis=0))


@settings(max_examples=60, deadline=None)
@given(x=_lattice_cell, y=_lattice_cell)
@example(x=np.array([0.0] * 9 + [-1.0]), y=np.zeros(10))
@example(x=np.array([1.0, 0, 0, 0, 0, 0, 0, 0, -1.0, 0]), y=np.zeros(10))
def test_tied_replicates_share_one_exact_zero_rule(x, y):
    """On tied cells the counting path, the sort path and the HD quantile
    of each replicate's differences are exactly zero for the same
    replicates and levels: a window of zeros, or of values mirrored about
    zero under the median's mirrored weights, sums to exactly zero on
    every path."""
    config = BootstrapConfig(n_boot=40, seed=9, quantiles=IBAND_QUANTILES)
    ix, iy = _resample_indices(config, 0, x.size), _resample_indices(config, 1, y.size)
    mx, my = x[ix], y[iy]
    assert pairwise_mod._tied_cells(x, y) is not None
    counted = _drawn_level(x, ix, y, iy)(IBAND_QUANTILES, "hd")
    by_sort = _by_block(mx, my, IBAND_QUANTILES, "hd")
    by_replicate = np.array([[hd_quantile(pairwise_differences(rx, ry), q) for q in IBAND_QUANTILES]
                             for rx, ry in zip(mx, my)])
    np.testing.assert_array_equal(counted == 0.0, by_sort == 0.0)
    np.testing.assert_array_equal(counted == 0.0, by_replicate == 0.0)


# 16 draws on a lattice plus one singleton each (3.5 and 0.5), so two
# replicates often miss a value: at seed 4 they miss y's 0.5, at seeds 5
# and 6 x's 3.5
_SINGLETON_X = np.array([-1.0] * 5 + [0.0] * 5 + [1.0] * 5 + [3.5])
_SINGLETON_Y = np.array([0.0] * 6 + [1.0] * 5 + [-2.0] * 4 + [0.5])


@pytest.mark.parametrize("estimator", ["hd", "t7"])
@pytest.mark.parametrize("seed", [4, 5, 6])
def test_values_no_replicate_draws_change_no_bit(estimator, seed):
    """Counting over the cells' distinct values gives the bits of counting
    over only the values the replicates draw, and of the sort path where
    the counting path matches it bit for bit."""
    x, y = _SINGLETON_X, _SINGLETON_Y
    config = BootstrapConfig(n_boot=2000, seed=seed)
    ix, iy = _resample_indices(config, 0, x.size)[:2], _resample_indices(config, 1, y.size)[:2]
    mx, my = x[ix], y[iy]
    drawn_x, drawn_y = np.unique(mx), np.unique(my)
    assert drawn_x.size * drawn_y.size < np.unique(x).size * np.unique(y).size
    counted = _drawn_level(x, ix, y, iy)(IBAND_QUANTILES, estimator)
    # an element of a value no replicate draws gets some index into the
    # drawn values, but no row lists it
    only_drawn = pairwise_mod._diff_quantiles_by_count(
        drawn_x, np.searchsorted(drawn_x, x), ix, drawn_y, np.searchsorted(drawn_y, y), iy,
        IBAND_QUANTILES, (estimator,))[0]
    np.testing.assert_array_equal(counted, only_drawn)
    by_sort = _by_block(mx, my, IBAND_QUANTILES, estimator)
    if estimator == "t7":
        np.testing.assert_array_equal(counted, by_sort)
    else:
        np.testing.assert_allclose(counted, by_sort, rtol=1e-12, atol=1e-12 * 5.5)
        np.testing.assert_array_equal(counted == 0.0, by_sort == 0.0)


# 2-24 draws from at most five lattice points: the smallest cells give a
# few differences, where every window spans every value
_small_lattice_cell = st.tuples(
    st.sampled_from([1.0, 0.5]),
    st.lists(st.integers(-2, 2), min_size=2, max_size=24),
).map(lambda c: c[0] * np.array(c[1], dtype=float))


@pytest.mark.parametrize("quantiles", [DECILES, IBAND_QUANTILES], ids=["deciles", "iband"])
@settings(max_examples=80, deadline=None)
@given(x=_small_lattice_cell, y=_small_lattice_cell, mirrored=st.booleans(),
       undrawn=st.sampled_from([None, -7.5, 0.25, 7.5]),
       rows=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@example(x=np.array([-1.0, 0.0, 0.0, 1.0] * 3), y=np.zeros(6),
         mirrored=False, undrawn=7.5, rows=8, seed=0)
# the differences are -m * 5e-324 for m = 1..7, and 1.0: the lowest
# window reaches only negative ones, and weights each by less than 1/(2m),
# so every kept term underflows to -0.0; the sum over every value is +0.0,
# and so is the kept terms' sum from +0.0
@example(x=np.array([0.0, 1.0]), y=5e-324 * np.array([1.0] * 38 + [2, 3, 4, 5, 6] + [7] * 5),
         mirrored=False, undrawn=None, rows=1, seed=0)
def test_counted_hd_sums_only_the_values_its_windows_reach(quantiles, x, y, mirrored,
                                                           undrawn, rows, seed):
    """Each Harrell-Davis window of the counting path, summed over only the
    distinct differences some row's window reaches, gives the bits of the
    sum over every distinct difference, signs of exact zeros included: on
    cells mirrored about zero, with a value no row draws, for the one row
    of a point estimate, and where every kept term underflows to -0.0."""
    if mirrored:
        y = x.copy()
    rng = np.random.default_rng(seed)
    n1, n2 = x.size, y.size
    if rows == 1:
        ix, iy = np.arange(n1)[None, :], np.arange(n2)[None, :]
    else:
        ix, iy = rng.integers(0, n1, (rows, n1)), rng.integers(0, n2, (rows, n2))
    if undrawn is not None:
        x = np.append(x, undrawn)  # an element no row lists
    ux, vx = np.unique(x, return_inverse=True)
    uy, vy = np.unique(y, return_inverse=True)
    calls = []
    original = pairwise_mod._from_cumulative_counts

    def checked(values, cum, levels, estimator):
        out = original(values, cum, levels, estimator)
        dense = hd_from_counts_dense(values, cum, levels)
        assert out.tobytes() == dense.tobytes(), np.flatnonzero(out.ravel() != dense.ravel())
        np.testing.assert_array_equal(np.signbit(out), np.signbit(dense))
        calls.append(cum.shape[1])
        return out

    with mock.patch.object(pairwise_mod, "_from_cumulative_counts", checked):
        pairwise_mod._diff_quantiles_by_count(ux, vx, ix, uy, vy, iy, quantiles, ("hd",))
    assert sum(calls) == rows


def test_counts_past_int32_stay_exact():
    """Type-7 iband on four cells of 46,400 values in {0, 1, 2}: their
    46,400^2 differences pass 2^31, so counts and cumulative counts are
    int64, and every estimate equals the one ranked with exact integer
    counts.  Each level's estimate lies strictly inside the range of the
    differences, where a wrapped int32 total would rank every order
    statistic at the lowest value."""
    n = 46_400
    assert n * n >= 1 << 31
    cells = [(np.arange(n) // (c + 1)) % 3.0 for c in range(4)]
    quantiles = (0.2, 0.5, 0.8)
    config = BootstrapConfig(n_boot=40, seed=1, estimator="t7", quantiles=quantiles)
    h = (n * n - 1) * np.array(quantiles)
    j = np.floor(h)

    def estimate(cx, cy):
        """Type 7 of the differences of a sample holding value v cx[v] times
        and one holding it cy[v] times, ranked with Python integers."""
        counts = {}
        for a, b in itertools.product(range(3), repeat=2):
            counts[a - b] = counts.get(a - b, 0) + int(cx[a]) * int(cy[b])
        values = sorted(counts)
        cum = list(itertools.accumulate(counts[v] for v in values))
        lo, hi = (np.array([values[bisect.bisect_right(cum, r + up)] for r in j.astype(int)],
                           dtype=float) for up in (0, 1))
        return lo + (h - j) * (hi - lo)

    def counts(c, index):
        """Per value of {0, 1, 2}, its count in each row of cell c's ``index``."""
        return [np.count_nonzero(cells[c][index] == v, axis=-1) for v in range(3)]

    rows = iband(FactorialSample.from_cells(*cells), config)
    star = pairwise_mod._iband_star(cells, config, ("t7",))[0]
    points, replicates = [], []
    for level in (0, 2):
        points.append(estimate(counts(level, np.arange(n)), counts(level + 1, np.arange(n))))
        assert np.all((points[-1] > -2.0) & (points[-1] < 2.0))
        cx = counts(level, _resample_indices(config, level, n))
        cy = counts(level + 1, _resample_indices(config, level + 1, n))
        replicates.append(np.array([estimate([c[b] for c in cx], [c[b] for c in cy])
                                    for b in range(config.n_boot)]))
    assert [(r.est_lev1, r.est_lev2) for r in rows] == list(zip(*(p.tolist() for p in points)))
    assert star.tobytes() == (replicates[0] - replicates[1]).tobytes()


@pytest.mark.parametrize("x,y,seed", [
    (_SINGLETON_X, _SINGLETON_Y, 5),
    # 8 * 9 distinct values, above 16 * 16 / 4: the two replicates of seed 3
    # draw only 7 * 8, which their own matrices would have counted
    (np.repeat(np.arange(8.0), 2), np.array([0.0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8]), 3),
], ids=["counted", "sorted"])
def test_tie_rule_does_not_depend_on_replicates(monkeypatch, x, y, seed):
    """The same cells take the same path at B = 2 and at B = 2,000, however
    few of their values the replicates draw."""
    paths = []
    for name in ("_diff_quantiles_by_count", "_diff_quantiles_by_block"):
        original = getattr(pairwise_mod, name)
        monkeypatch.setattr(pairwise_mod, name,
                            lambda *a, name=name, original=original:
                            paths.append(name) or original(*a))
    config = BootstrapConfig(n_boot=2000, seed=seed)
    ix, iy = _resample_indices(config, 0, x.size), _resample_indices(config, 1, y.size)
    _drawn_level(x, ix, y, iy)(IBAND_QUANTILES, "hd")
    _drawn_level(x, ix[:2], y, iy[:2])(IBAND_QUANTILES, "hd")
    assert paths[0] == paths[1]
    assert paths[0].endswith("count") == (pairwise_mod._tied_cells(x, y) is not None)
    drawn = np.unique(x[ix[:2]]).size * np.unique(y[iy[:2]]).size
    assert drawn <= x.size * y.size // pairwise_mod._TIE_RATIO


@pytest.mark.parametrize("x,y,counted", [
    # few values: counted at any size
    (np.repeat([0.0, 1.0, 2.0, 5.0], 4), np.repeat([1.0, 3.0], 8), True),
    (np.repeat([0.0, 1.0], 2), np.repeat([0.0, 1.0], 2), True),
    # 2 * 2 distinct values among 3 * 3 differences: above a quarter, sorted
    (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]), False),
    # 16 * 16 distinct values among 32 * 32 differences: a quarter, counted
    (np.repeat(np.arange(16.0), 2), np.repeat(np.arange(16.0), 2), True),
    # one more distinct value: sorted
    (np.append(np.repeat(np.arange(16.0), 2)[:-1], 99.0), np.repeat(np.arange(16.0), 2), False),
    (np.linspace(0.0, 1.0, 100), np.linspace(0.0, 2.0, 100), False),
], ids=["few", "few-small", "small-above-quarter", "quarter", "above-quarter", "continuous"])
def test_tie_rule(x, y, counted):
    """Counted where the V1*V2 distinct pairs number at most a quarter of
    the n1*n2 differences."""
    tied = pairwise_mod._tied_cells(x, y)
    assert (tied is not None) == counted
    if counted:
        ux, vx, uy, vy = tied
        np.testing.assert_array_equal(ux[vx], x)
        np.testing.assert_array_equal(uy[vy], y)


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs and a sort thread for every two replicates;
    returns the sizes of the thread pools the sort path starts."""
    started = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(pairwise_mod, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(pairwise_mod, "_THREAD_ELEMENTS", 1)
    monkeypatch.setattr(pairwise_mod, "ThreadPoolExecutor", RecordedPool)
    return started


def _on_one_thread(fn, *args):
    with mock.patch.object(pairwise_mod, "_usable_cpus", lambda: 1):
        return fn(*args)


class _BlockRecorder:
    """numpy as ``pairwise`` sees it, keeping the scratch view that each
    block of differences is built into, and the name of the operation
    that built it: the product, or a subtraction."""

    def __init__(self):
        self.blocks, self.ops = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def _build(self, op, *args, out):
        self.blocks.append(out)
        self.ops.append(op.__name__)
        return op(*args, out=out)

    def matmul(self, *args, out):
        return self._build(np.matmul, *args, out=out)

    def subtract(self, *args, out):
        return self._build(np.subtract, *args, out=out)


class TestSortThreads:
    @pytest.mark.parametrize("estimator", ["hd", "t7"])
    @pytest.mark.parametrize("n,n_boot", [(30, 200), (31, 7), (30, 2), (30, 1), (10, 400)],
                             ids=["windowed", "windowed-B7", "B2", "B1", "dense"])
    @pytest.mark.parametrize("blocks", ["one", "several"])
    def test_threads_change_no_bit(self, three_cpus, monkeypatch, estimator, n, n_boot, blocks):
        """Each thread's part of the replicates gives the rows of one pass.
        Every block is built in one shared scratch buffer holding at most
        ``_BLOCK_ELEMENTS`` differences per thread, or one row.  No block
        holds a lone row of several: the dense product would reduce it with
        matrix-vector bits.  A Harrell-Davis level with dense weights starts
        no pool and is one block of all rows, since the dense product's
        bits depend on its row count.  Harrell-Davis reduces each block as
        it is sorted; type 7 reads its order statistics with no call per
        block."""
        if blocks == "several":
            # nine rows per block on every thread
            monkeypatch.setattr(pairwise_mod, "_BLOCK_ELEMENTS", 9 * n * (n + 1))
        rng = stream(12, "threads", n)
        config = BootstrapConfig(n_boot=max(n_boot, 200), seed=5)
        mx, my = _cell_resample_matrices((rng.normal(size=n), rng.lognormal(size=n + 1)), config)
        args = (mx[:n_boot], my[:n_boot], IBAND_QUANTILES, (estimator,))
        expected = _on_one_thread(pairwise_mod._diff_quantiles_by_block, *args)
        assert three_cpus == []

        recorder, reduced = _BlockRecorder(), []
        reduce = pairwise_mod._from_sorted_rows
        monkeypatch.setattr(pairwise_mod, "np", recorder)
        monkeypatch.setattr(pairwise_mod, "_from_sorted_rows",
                            lambda d, *a: reduced.append(d) or reduce(d, *a))
        got = pairwise_mod._diff_quantiles_by_block(*args)
        np.testing.assert_array_equal(got, expected)
        n_pairs = n * (n + 1)
        dense = (estimator == "hd"
                 and pairwise_mod._hd_weight_matrix(n_pairs, IBAND_QUANTILES).dense is not None)
        assert dense == (estimator == "hd" and n == 10)
        threads = 1 if dense else max(1, min(3, n_boot // 2))
        assert three_cpus == ([threads] if threads > 1 else [])
        built = recorder.blocks
        assert set(recorder.ops) == {"matmul"}
        assert sum(b.shape[0] for b in built) == n_boot
        scratch = {id(b.base): b.base.size for b in built}
        assert len(scratch) == 1
        if dense:
            assert len(built) == 1 and scratch.popitem()[1] == n_boot * n_pairs
        else:
            assert min(b.shape[0] for b in built) >= min(2, n_boot)
            if blocks == "several" and n_boot >= 200:
                assert len(built) > 3 * threads
            assert max(b.size for b in built) <= max(pairwise_mod._BLOCK_ELEMENTS, n_pairs)
            assert scratch.popitem()[1] <= threads * max(pairwise_mod._BLOCK_ELEMENTS, n_pairs)
        shapes = sorted((b.shape[0], n_pairs) for b in built) if estimator == "hd" else []
        assert sorted(d.shape for d in reduced) == shapes

    @pytest.mark.parametrize("estimator", ["hd", "t7"])
    def test_iband_and_median_diff_test_change_no_bit(self, three_cpus, estimator):
        rng = stream(13, "threads")
        sample = FactorialSample.from_cells(*(rng.lognormal(size=30) for _ in range(4)))
        config = BootstrapConfig(n_boot=101, seed=6, estimator=estimator)
        x, y = rng.normal(size=32), rng.normal(size=29)
        expected = (_on_one_thread(iband, sample, config),
                    _on_one_thread(median_diff_test, x, y, config))
        # three threads on fewer cores, switched often: a thread writing
        # into another's rows of the output or scratch would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert (iband(sample, config), median_diff_test(x, y, config)) == expected
        finally:
            sys.setswitchinterval(interval)
        # one pool per replicate call; the one-row point estimates stay serial
        assert three_cpus == [3] * 3

    def test_thread_count(self, monkeypatch):
        monkeypatch.setattr(pairwise_mod, "_usable_cpus", lambda: 3)
        threads = pairwise_mod._sort_threads
        per_thread = pairwise_mod._THREAD_ELEMENTS
        # one row never starts a pool: a point estimate, or median_diff_test
        # at n = 1,500 per sample
        assert threads(1, 1500 * 1500) == 1
        # and every part has two rows or more
        assert threads(3, 100 * per_thread) == 1
        assert threads(4, 100 * per_thread) == 2
        assert threads(6, per_thread // 2) == 3
        assert threads(5, per_thread // 2) == 2
        assert threads(2000, 100 * 100) == 3
        # n = 30, B = 600: 5.4e5 differences stay on one thread
        assert threads(600, 30 * 30) == 1
        monkeypatch.setattr(pairwise_mod, "_usable_cpus", lambda: 1)
        assert threads(2000, 100 * 100) == 1

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patched CPU count reaches the worker only by fork")
    def test_pool_worker_sorts_on_one_thread(self, three_cpus):
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(pairwise_mod._sort_threads, 600, 100 * 100).result(60) == 1
        assert pairwise_mod._sort_threads(600, 100 * 100) == 3

    def test_counting_path_stays_serial(self, three_cpus):
        rng = stream(14, "threads")
        config = BootstrapConfig(n_boot=200, seed=7)
        cells = tuple(rng.poisson(3.0, 40).astype(float) for _ in range(2))
        assert pairwise_mod._tied_cells(*cells) is not None
        pairwise_mod._resampled_level(cells, 0, config)(IBAND_QUANTILES, ("hd",))
        assert three_cpus == []

    @pytest.mark.parametrize("tied", [False, True], ids=["sorted", "counted"])
    def test_one_sort_reduced_with_each_estimator(self, three_cpus, tied):
        """A level reduced with both estimators at once gives the bits of
        each estimator alone, on the sort path (three threads here) and on
        the counting path, and times each estimator's reductions."""
        rng = stream(15, "estimators")
        if tied:
            x, y = rng.poisson(3.0, 40).astype(float), rng.poisson(4.0, 35).astype(float)
        else:
            x, y = rng.normal(size=30), rng.lognormal(size=31)
        assert (pairwise_mod._tied_cells(x, y) is not None) == tied
        level = pairwise_mod._resampled_level((x, y), 0, BootstrapConfig(n_boot=200, seed=8))
        seconds = [0.0, 0.0]
        both = level(IBAND_QUANTILES, ("hd", "t7"), seconds)
        for got, estimator in zip(both, ("hd", "t7")):
            assert got.tobytes() == level(IBAND_QUANTILES, (estimator,))[0].tobytes()
        assert all(s > 0.0 for s in seconds)
        assert three_cpus == ([] if tied else [3] * 3)


_MAX4 = sys.float_info.max / 4
# zeros, subnormals, values near the sample bound and integer ties; no
# -0.0, which a sample reads as +0.0 where it enters
_edge_value = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, _MAX4, -_MAX4,
                     np.nextafter(_MAX4, 0.0), -np.nextafter(_MAX4, 0.0)]),
    st.integers(-3, 3).map(float),
    st.floats(-_MAX4, _MAX4),
)
_edge_cell = st.lists(_edge_value, min_size=1, max_size=24).map(lambda c: np.array(c) + 0.0)


@settings(max_examples=150, deadline=None)
@given(x=_edge_cell, y=_edge_cell,
       n_boot=st.sampled_from([1, 2]) | st.integers(1, 20).map(lambda k: 2 * k + 1),
       estimators=st.sampled_from([("hd",), ("t7",), ("hd", "t7")]),
       threads=st.sampled_from([1, 3]), several=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(x=np.array([0.0]), y=np.array([0.0]), n_boot=1, estimators=("hd", "t7"),
         threads=1, several=False, seed=0)
@example(x=np.array([0.0]), y=np.array([0.0, 0.0]), n_boot=7, estimators=("t7",),
         threads=3, several=True, seed=0)
@example(x=np.array([0.0, 5e-324, _MAX4]), y=np.array([0.0, -_MAX4, 1.0]), n_boot=41,
         estimators=("hd", "t7"), threads=3, several=True, seed=1)
@example(x=np.array([0.0, 3.0]), y=np.array([0.0, 3.0]), n_boot=7,
         estimators=("t7",), threads=3, several=True, seed=2)
# a dense Harrell-Davis level of many rows: its blocks would hold three,
# whose product rows differ in the last bits from those of one product
@example(x=np.arange(12.0), y=np.linspace(0.0, 1.0, 12), n_boot=41,
         estimators=("hd",), threads=3, several=True, seed=3)
def test_blocked_build_matches_subtraction(x, y, n_boot, estimators, threads, several, seed):
    """Every replicate's estimates are those of differences built by one
    broadcast subtraction of the whole level, byte for byte, with one or
    three threads and one or several blocks, each of two rows or more
    unless B = 1."""
    rng = np.random.default_rng(seed)
    mx = x[rng.integers(0, x.size, (n_boot, x.size))]
    my = y[rng.integers(0, y.size, (n_boot, y.size))]
    expected = pairwise_quantiles_by_subtraction(mx, my, IBAND_QUANTILES, estimators)
    block = 4 * x.size * y.size if several else pairwise_mod._BLOCK_ELEMENTS
    with mock.patch.object(pairwise_mod, "_usable_cpus", lambda: threads), \
            mock.patch.object(pairwise_mod, "_THREAD_ELEMENTS", 1), \
            mock.patch.object(pairwise_mod, "_BLOCK_ELEMENTS", block):
        got = pairwise_mod._diff_quantiles_by_block(mx, my, IBAND_QUANTILES, estimators)
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


@pytest.mark.parametrize("x0, y0, built_by", [
    (-0.0, 0.0, "matmul"), (-0.0, -0.0, "matmul"), (0.0, 0.0, "matmul"), (0.0, -0.0, "matmul"),
])
def test_signed_zero_rule(monkeypatch, x0, y0, built_by):
    """A level handed a -0.0 straight, not through ``_as_sample``, is still
    built by the product, whose sum starts at +0.0: each difference has the
    bits of the subtraction of the cells with +0.0, so a difference of
    equal values is +0.0."""
    x, y = np.array([x0, 1.5, -2.0]), np.array([y0, 1.5, 4.0])
    config = BootstrapConfig(n_boot=40, seed=3)
    ix, iy = _resample_indices(config, 0, x.size), _resample_indices(config, 1, y.size)
    mx, my = (x + 0.0)[ix], (y + 0.0)[iy]
    assert ((mx == 0.0).any(axis=1) & (my == 0.0).any(axis=1)).any()
    expected = pairwise_quantiles_by_subtraction(mx, my, IBAND_QUANTILES, ("hd", "t7"))
    recorder = _BlockRecorder()
    monkeypatch.setattr(pairwise_mod, "np", recorder)
    got = pairwise_mod._resampled_level((x, y), 0, config)(IBAND_QUANTILES, ("hd", "t7"))
    assert recorder.ops == [built_by]
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
    built = recorder.blocks[0].reshape(40, -1)  # the sorted differences
    assert built.tobytes() == np.sort((mx[:, :, None] - my[:, None, :]).reshape(40, -1)).tobytes()


class TestMedianDiffTest:
    def test_tied_estimate_is_hd_median_of_differences(self):
        rng = stream(8, "tied-median")
        x, y = rng.poisson(4.0, 30).astype(float), rng.poisson(5.0, 25).astype(float)
        assert pairwise_mod._tied_cells(x, y) is not None
        result = median_diff_test(x, y, BootstrapConfig(n_boot=200, seed=3))
        assert result.estimate == pytest.approx(
            hd_quantile(pairwise_differences(x, y), 0.5), rel=1e-12, abs=1e-12)

    def test_quantiles_must_name_the_median(self):
        rng = stream(9, "median-levels")
        x, y = rng.normal(size=30), rng.normal(size=30)
        config = BootstrapConfig(n_boot=200, seed=3)
        assert (median_diff_test(x, y, replace(config, quantiles=(0.5,)))
                == median_diff_test(x, y, config))
        for quantiles in ((0.25, 0.75), (0.25,), (0.25, 0.5)):
            with pytest.raises(ValueError, match=r"median only; config.quantiles must be None"):
                median_diff_test(x, y, replace(config, quantiles=quantiles))

    def test_identical_constants(self):
        result = median_diff_test([3.0] * 25, [3.0] * 25, BootstrapConfig(n_boot=400, seed=1))
        assert result.estimate == 0.0
        assert result.p_value == 1.0
        assert (result.ci_low, result.ci_high) == (0.0, 0.0)

    def test_detects_large_shift(self):
        rng = stream(6, "shift")
        x = rng.normal(size=40) + 5.0
        y = rng.normal(size=40)
        result = median_diff_test(x, y, BootstrapConfig(n_boot=600, seed=2))
        assert result.p_value < 0.01
        assert result.ci_low > 0.0
        assert result.estimate == pytest.approx(5.0, abs=1.0)

    def test_null_distribution_symmetric_about_zero(self):
        """Mean of estimated medians of D over 500 null simulations is ~0."""
        medians = []
        for s in range(500):
            rng = stream(300 + s, "sym")
            x, y = rng.normal(size=30), rng.normal(size=30)
            medians.append(
                median_diff_test(x, y, BootstrapConfig(n_boot=48, seed=0, alpha=0.05)).estimate
            )
        assert abs(float(np.mean(medians))) <= 0.05

    def test_type_one_error_rate(self):
        """Rejection rate at the .05 level stays near nominal under the null."""
        rejections = 0
        n_runs = 500
        for s in range(n_runs):
            rng = stream(700 + s, "t1")
            x, y = rng.normal(size=30), rng.normal(size=30)
            config = BootstrapConfig(n_boot=500, seed=derive_seed(700 + s, "t1boot"))
            rejections += median_diff_test(x, y, config).p_value <= 0.05
        assert 0.02 <= rejections / n_runs <= 0.08
