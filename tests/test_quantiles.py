"""Tests for the quantile estimators and the incomplete-beta numerics."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc
from scipy.stats import f as f_dist

import qshift
from qshift import (
    DECILES,
    IBAND_QUANTILES,
    estimate_quantiles,
    hd_quantile,
)
from qshift.quantiles import (
    _HD_TAIL_MASS,
    _beta_tails,
    _betacf,
    _f_sf,
    _from_cumulative_counts,
    _from_sorted_rows,
    _hd_bracket,
    _hd_weight_matrix,
    _log_beta_norm,
    _value_ranks,
)
from qshift.simulation import anova_f_statistics, anova_f_test

from oracles import (
    beta_cdf_quad,
    counted_value_ranks,
    hd_quantile_quad,
    hd_weights_mp,
    type7_quantile,
)

# computed with oracles.beta_cdf_quad (adaptive quadrature of the density)
BETAINC_ORACLE_X03_A255_B255 = 0.0015007606871103277
# computed with oracles.hd_quantile_quad on the sample 1..20
HD_ORACLE_1_TO_20_Q03 = 6.5000002471016565


def _hd_weights(n: int, q: float) -> np.ndarray:
    """The full weight vector of one level, zero outside its window."""
    (lo, w), = _hd_weight_matrix(n, (q,)).windows
    out = np.zeros(n)
    out[lo:lo + w.size] = w
    return out


def _ibeta(x: float, a: float, b: float) -> float:
    """I_x(a, b) through ``_beta_tails``, in the tail the split point picks."""
    lognorm = _log_beta_norm(a, b)
    if x >= (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_tails(np.array([1.0 - x]), np.array([x]), b, a, lognorm)[0]
    return _beta_tails(np.array([x]), np.array([1.0 - x]), a, b, lognorm)[0]


class TestRegularizedIncompleteBeta:
    def test_lower_endpoint(self):
        assert _ibeta(0.0, 2.0, 3.0) == 0.0

    def test_upper_endpoint(self):
        assert _ibeta(1.0, 2.0, 3.0) == 1.0

    def test_beta11_is_uniform(self):
        assert _ibeta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_against_quadrature_oracle(self):
        value = _ibeta(0.3, 25.5, 25.5)
        assert value == pytest.approx(BETAINC_ORACLE_X03_A255_B255, abs=1e-10)

    @pytest.mark.parametrize("x,a,b", [
        (0.02, 0.6, 5.4),     # singular density at 0
        (0.97, 4.0, 0.5),     # singular density at 1
        (0.5, 500.0, 500.0),  # sharp interior spike
        (0.12, 1001.0, 9009.0),
    ])
    def test_random_regimes_vs_oracle(self, x, a, b):
        assert _ibeta(x, a, b) == pytest.approx(beta_cdf_quad(x, a, b), abs=1e-10)

    def test_nonconvergence_names_a_live_element(self, monkeypatch):
        """The error names the shapes of an element still iterating, not
        those of one that converged."""
        monkeypatch.setattr("qshift.quantiles._CF_MAXITER", 3)
        with pytest.raises(ArithmeticError, match=r"a=4000\.0, b=4000\.0"):
            _betacf(np.array([1e-9, 0.49]), np.array([1.5, 4000.0]), np.array([2.5, 4000.0]))

    def test_symmetry_relation(self):
        # I_x(a,b) + I_{1-x}(b,a) = 1
        v1 = _ibeta(0.73, 12.0, 5.0)
        v2 = _ibeta(0.27, 5.0, 12.0)
        assert v1 + v2 == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n,bound", [(900, 1e-12), (10_000, 2e-11), (90_000, 1.4e-10)])
    def test_hd_grid_against_scipy(self, n, bound):
        """Every beta tail behind the HD weights of the iband levels and the
        deciles at n, over the bracket the build evaluates, within twice the
        largest error measured there: the lower CDF below each split point
        against scipy's betainc, the upper tail above it against betaincc."""
        worst = 0.0
        for q in sorted(set(IBAND_QUANTILES) | set(DECILES)):
            a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
            j0, j1 = _hd_bracket(n, q)
            j = np.arange(j0, j1 + 1)
            x = j / n
            upper = x >= (a + 1.0) / (a + b + 2.0)
            lognorm = _log_beta_norm(a, b)
            tails = np.where(upper, _beta_tails((n - j) / n, x, b, a, lognorm),
                             _beta_tails(x, (n - j) / n, a, b, lognorm))
            reference = np.where(upper, betaincc(a, b, x), betainc(a, b, x))
            worst = max(worst, float(np.max(np.abs(tails - reference))))
        assert worst <= bound


class TestAnovaFTail:
    @pytest.mark.parametrize("d", [4, 164, 396])
    def test_matches_scipy_near_zero_and_beyond(self, d):
        """P(F(1, d) > f) within 1e-14 absolute of scipy, including f just
        above 0, where forming 1 - d/(d + f) would lose the digits."""
        n = d // 4 + 1
        for f in (0.0, 4.5e-10, 1e-6, 1.0, 10.0, 1e3):
            assert abs(float(_f_sf(f, d)) - f_dist.sf(f, 1, d)) <= 1e-14, (f, d)
        assert float(_f_sf(math.inf, d)) == 0.0
        # the same tails through the ANOVA itself
        rng = np.random.default_rng(d)
        cells = [rng.normal(size=n) for _ in range(4)]
        stats, df_w = anova_f_statistics(cells)
        assert df_w == d
        np.testing.assert_allclose(anova_f_test(cells), [f_dist.sf(v, 1, d) for v in stats],
                                   rtol=0, atol=1e-14)


def _hd_tails(n: int, q: float, j: np.ndarray) -> tuple:
    """The ``_beta_tails`` arguments a Harrell-Davis build of level q at n
    passes for grid points j: the lower tail of Beta(a, b) at j/n below
    the split point, that of Beta(b, a) at (n - j)/n from it up."""
    a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
    upper = j / n >= (a + 1.0) / (a + b + 2.0)
    k = np.where(upper, n - j, j)
    return (k / n, (n - k) / n, np.where(upper, b, a), np.where(upper, a, b),
            np.full(j.size, _log_beta_norm(a, b)))


@st.composite
def tail_sets(draw):
    """Either a few chunks of (iterations, 3) F statistics at one of the
    within degrees of freedom of the desk grids' ANOVA, or a few sets of
    grid points of Harrell-Davis brackets at one n, each set at its own
    level."""
    if draw(st.booleans()):
        d = draw(st.sampled_from((4, 76, 396)))
        f = st.one_of(st.sampled_from((0.0, 4.5e-10, math.inf)),
                      st.floats(min_value=0.0, max_value=1e6))
        chunks = draw(st.lists(st.lists(st.tuples(f, f, f), max_size=14), min_size=1, max_size=5))
        return "f", d, [np.array(c, dtype=float).reshape(-1, 3) for c in chunks]
    n = draw(st.sampled_from((30, 100, 900)))
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        q = draw(st.sampled_from(sorted(set(IBAND_QUANTILES) | set(DECILES))))
        j0, j1 = _hd_bracket(n, q)
        sets.append(_hd_tails(n, q, np.array(draw(st.lists(st.integers(j0, j1), max_size=40)),
                                              dtype=np.intp)))
    return "hd", None, sets


@settings(max_examples=150, deadline=None)
@given(tail_sets())
@example(("f", 76, [np.array([[0.0, 4.5e-10, math.inf]]),
                    np.linspace(0.0, 40.0, 90).reshape(30, 3)]))
def test_betainc_of_concatenated_sets_keeps_every_bit(case):
    """One evaluation over the concatenation of several tail sets equals
    the separate ones bit for bit: a simulation chunk's (iterations, 3) F
    tails equal each statistic's own, and a Harrell-Davis build's tails
    those of each level alone.  Sets of up to 210 points also cover the
    continued fraction dropping its converged elements mid-loop."""
    kind, d, sets = case
    if kind == "f":
        together = _f_sf(np.concatenate(sets), d)
        assert together.shape == (sum(len(c) for c in sets), 3)
        apart = np.array([_f_sf(f, d) for c in sets for f in c.ravel()])
    else:
        together = _beta_tails(*(np.concatenate(parts) for parts in zip(*sets)))
        apart = np.concatenate([_beta_tails(*args) for args in sets])
    assert together.tobytes() == apart.tobytes()


class TestHDWeights:
    def test_single_observation(self):
        assert _hd_weights(1, 0.5).tolist() == [1.0]

    def test_sum_to_one(self):
        for n in (2, 7, 50, 333, 1000):
            for q in (0.1, 0.5, 0.9):
                assert abs(_hd_weights(n, q).sum() - 1.0) < 1e-10

    def test_median_weights_symmetric(self):
        w = _hd_weights(50, 0.5)
        assert np.max(np.abs(w - w[::-1])) < 1e-10

    def test_first_decile_peak_location(self):
        # unimodal profile peaking near i = 5 for n = 50, q = .1
        w = _hd_weights(50, 0.1)
        peak = int(np.argmax(w)) + 1  # 1-based order-statistic index
        assert peak in (4, 5, 6)
        rising = np.diff(w[: peak - 1])
        falling = np.diff(w[peak:])
        assert np.all(rising >= -1e-15) and np.all(falling <= 1e-15)

    def test_non_negative(self):
        for q in (0.05, 0.5, 0.95):
            assert np.all(_hd_weights(200, q) >= 0.0)

    @pytest.mark.parametrize("n,q", [
        (10_000, 0.0005), (10_000, 0.9999), (5_000, 0.999), (200, 0.001),
    ])
    def test_extreme_levels_at_large_n(self, n, q):
        # shape parameters in the thousands push the continued fraction to
        # its slowest-converging regime near the symmetry split
        w = _hd_weights(n, q)
        assert abs(w.sum() - 1.0) < 1e-10
        assert np.all(w >= 0.0)

    def test_bad_arguments(self):
        for q in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="strictly in"):
                _hd_weight_matrix(10, (q,))


class TestHDQuantile:
    def test_constant_sample(self):
        for q in (0.1, 0.5, 0.87):
            assert hd_quantile([3.25] * 17, q) == pytest.approx(3.25, abs=1e-12)

    def test_two_point_median(self):
        assert hd_quantile([0.0, 1.0], 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_oracle_value(self):
        assert hd_quantile(np.arange(1, 21), 0.3) == pytest.approx(
            HD_ORACLE_1_TO_20_Q03, abs=1e-10
        )

    def test_matches_quadrature_oracle_random_samples(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            n = int(rng.integers(5, 60))
            xs = rng.normal(size=n)
            q = float(rng.choice(np.arange(1, 10) / 10))
            assert hd_quantile(xs, q) == pytest.approx(hd_quantile_quad(xs, q), abs=1e-8)

    def test_is_the_batch_estimate(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 17, 245, 246, 3000):
            xs = rng.lognormal(size=n)
            for q in (0.01, 0.3, 0.5, 0.9):
                assert hd_quantile(xs, q) == estimate_quantiles(xs, (q,), "hd")[0]

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ValueError):
            hd_quantile([], 0.5)
        with pytest.raises(ValueError):
            hd_quantile([1.0, np.nan, 2.0], 0.5)
        with pytest.raises(ValueError):
            hd_quantile([1.0, np.inf], 0.5)
        for estimator in ("hd", "t7"):
            with pytest.raises(ValueError, match="quantile set must be non-empty"):
                estimate_quantiles([1.0, 2.0], (), estimator)


class TestType7Quantile:
    def test_constant_sample(self):
        assert type7_quantile([2.5] * 9, 0.77) == 2.5

    def test_midpoint_interpolation(self):
        # h = 2.5 for n=4, q=.5: midpoint of the 2nd and 3rd order statistics
        assert type7_quantile([1, 2, 3, 4], 0.5) == pytest.approx(2.5)

    def test_exact_order_statistic(self):
        # h = 2 exactly for n=3, q=.5
        assert type7_quantile([10, 20, 30], 0.5) == 20.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            type7_quantile([], 0.5)

    def test_single_observation_at_every_level(self):
        levels = (0.01, 0.1, 0.5, 0.9, 0.99)
        assert estimate_quantiles([4.25], levels, "t7").tolist() == [4.25] * len(levels)


@st.composite
def sample_and_quantile(draw):
    xs = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=60,
    ))
    q = draw(st.floats(min_value=0.01, max_value=0.99))
    return np.array(xs), q


class TestEstimatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(sample_and_quantile(), st.floats(min_value=-100, max_value=100))
    def test_translation_equivariance(self, sq, c):
        xs, q = sq
        for est in (hd_quantile, type7_quantile):
            assert est(xs + c, q) == pytest.approx(est(xs, q) + c, abs=1e-9 * (1 + abs(c)))

    @settings(max_examples=60, deadline=None)
    @given(sample_and_quantile(), st.floats(min_value=0.01, max_value=100))
    def test_scale_equivariance(self, sq, c):
        xs, q = sq
        for est in (hd_quantile, type7_quantile):
            expected = c * est(xs, q)
            assert est(c * xs, q) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(sample_and_quantile(), st.floats(min_value=0.01, max_value=0.99))
    def test_monotone_in_q(self, sq, q2):
        xs, q1 = sq
        lo, hi = sorted((q1, q2))
        assert hd_quantile(xs, lo) <= hd_quantile(xs, hi) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(sample_and_quantile())
    def test_range_containment(self, sq):
        xs, q = sq
        for est in (hd_quantile, type7_quantile):
            v = est(xs, q)
            assert xs.min() - 1e-9 <= v <= xs.max() + 1e-9


def test_sorted_rows_fast_path_matches_scalar_api():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.normal(size=40))
    quantiles = (0.1, 0.25, 0.5, 0.75, 0.9)
    hd_row = _from_sorted_rows(xs[None, :], quantiles, "hd")[0]
    t7_row = _from_sorted_rows(xs[None, :], quantiles, "t7")[0]
    for i, q in enumerate(quantiles):
        assert hd_row[i] == pytest.approx(hd_quantile(xs, q), abs=1e-12)
        assert t7_row[i] == pytest.approx(type7_quantile(xs, q), abs=1e-12)


_LEVEL_SETS = (DECILES, IBAND_QUANTILES, (0.5,), (0.01, 0.99), (0.05, 0.5, 0.95))


@functools.lru_cache(maxsize=None)
def _mp_weights(n: int, q: float) -> tuple:
    """(start, weights): the multiprecision weights of every order
    statistic whose weight exceeds 1e-40, which leaves out less than 1e-39
    of the level's weight."""
    (lo, w), = _hd_weight_matrix(n, (q,)).windows
    start, stop = lo, lo + w.size
    while start > 0 and hd_weights_mp(n, q, start - 1, start)[0] > 1e-40:
        start -= 1
    while stop < n and hd_weights_mp(n, q, stop, stop + 1)[0] > 1e-40:
        stop += 1
    return start, tuple(hd_weights_mp(n, q, start, stop))


@st.composite
def hd_reduction_case(draw):
    """Sorted rows and a level set on one chosen side of the coverage rule:
    every set keeps the dense product up to n = 52 and windows from 258."""
    windowed = draw(st.booleans())
    if windowed:
        n = draw(st.sampled_from((258, 400, 900)))
    else:
        n = draw(st.integers(min_value=1, max_value=52))
    levels = draw(st.sampled_from(_LEVEL_SETS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("normal", "lognormal", "rounded")))
    rows = {"normal": rng.normal, "lognormal": rng.lognormal,
            "rounded": lambda size: np.round(rng.normal(size=size), 1)}[kind](size=(3, n))
    loc = draw(st.floats(min_value=-1e6, max_value=1e6))
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    return windowed, levels, np.sort(loc + scale * rows, axis=1)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(hd_reduction_case())
def test_windowed_reduction_matches_dense_product(case):
    """Each window drops at most the tail mass it names and no more, each
    estimate lies within 2 eps max|x| plus rounding of the sum weighted by
    the full multiprecision weights, and the coverage rule picks the side
    the case was drawn for.  The allowance past 2 eps is the weights' own
    error (the lgamma prefactor), twice the largest L1 distance measured
    between a level's weights and the multiprecision ones at n, plus
    rounding."""
    windowed, levels, rows = case
    n = rows.shape[1]
    rounding = {258: 1.5e-12, 400: 1.5e-12, 900: 4e-12}.get(n, 1.1e-13) + 1e-15
    hd = _hd_weight_matrix(n, levels)
    assert (hd.dense is None) == windowed
    estimates = _from_sorted_rows(rows, levels, "hd")
    for j, (q, (lo, w)) in enumerate(zip(levels, hd.windows)):
        hi = lo + w.size
        start, exact = _mp_weights(n, q)
        with mpmath.workdps(30):
            below, above = sum(exact[:lo - start], mpmath.mpf(0)), sum(exact[hi - start:], mpmath.mpf(0))
            assert below <= _HD_TAIL_MASS and above <= _HD_TAIL_MASS
            # the window is no longer than the bound needs
            assert below + exact[lo - start] > _HD_TAIL_MASS
            assert above + exact[hi - 1 - start] > _HD_TAIL_MASS
            for row, estimate in zip(rows, estimates[:, j]):
                full = math.fsum(row[start + k] * float(v) for k, v in enumerate(exact))
                bound = (2 * _HD_TAIL_MASS + rounding) * np.max(np.abs(row))
                assert abs(estimate - full) <= bound, (n, q, estimate, full)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 120), n_rows=st.integers(1, 12), n_values=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, n_rows=1, n_values=1, seed=0)  # a constant cell: one difference
@example(n=120, n_rows=1, n_values=1, seed=0)
@example(n=120, n_rows=12, n_values=1, seed=0)
@example(n=2, n_rows=5, n_values=12, seed=1)  # most values drawn by no row
def test_counted_type7_search_matches_comparison_oracle(n, n_rows, n_values, seed):
    """The single search over row-offset cumulative counts ranks every
    order statistic as comparing every count with every rank does, and
    type 7 read from the counts is bit-identical to the same ranks
    interpolated by hand.  Rows hold n elements over n_values distinct
    values, some of which a row (or every row) does not hold."""
    rng = np.random.default_rng(seed)
    held = rng.random(n_values) < 0.7
    held[rng.integers(n_values)] = True
    weights = rng.dirichlet(np.ones(n_values)) * held
    cum = rng.multinomial(n, weights / weights.sum(), size=n_rows).T.cumsum(axis=0)
    ranks = np.arange(n)
    expected = counted_value_ranks(cum, ranks)
    got = _value_ranks(cum, ranks)
    assert got.shape == (n_rows, n)
    np.testing.assert_array_equal(got, expected)

    values = np.cumsum(rng.uniform(0.5, 1.5, n_values)) - n_values
    h = (n - 1) * np.array(IBAND_QUANTILES)
    j = np.floor(h).astype(int)
    lo = values[counted_value_ranks(cum, j)]
    by_hand = lo + (h - j) * (values[counted_value_ranks(cum, j + 1)] - lo)
    counted = _from_cumulative_counts(values, cum, IBAND_QUANTILES, "t7")
    assert counted.tobytes() == by_hand.tobytes()


class TestWindows:
    @pytest.mark.parametrize("n", [400, 900, 10_000])
    def test_weights_against_multiprecision(self, n):
        """In-window weights of the iband levels agree with mpmath in both
        halves of every window, ten at each end, nine spread between and
        three around the split point: the upper tail, taken from its own
        argument (n - i)/n, is as accurate as the lower.  The one or two
        weights whose interval touches the split point take up the common
        error of the prefactor, so the column sums to 1; they are held to
        an absolute bound.  Bounds are twice the largest error measured at
        n (the lgamma prefactor dominates)."""
        rel_bound, abs_bound = {400: (1.1e-12, 7.4e-13), 900: (2.6e-12, 2e-12),
                                10_000: (1.2e-10, 3.4e-11)}[n]
        hd = _hd_weight_matrix(n, IBAND_QUANTILES)
        for q, (lo, w) in zip(IBAND_QUANTILES, hd.windows):
            a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
            split = (a + 1.0) / (a + b + 2.0)
            k = w.size
            near = math.floor(split * n) - lo
            picks = {*range(10), *range(k - 10, k), *np.linspace(0, k - 1, 9).astype(int).tolist(),
                     near - 1, near, near + 1}
            for i in sorted(picks):
                exact = hd_weights_mp(n, q, lo + i, lo + i + 1)[0]
                if (lo + i) / n <= split <= (lo + i + 1) / n:
                    assert abs(float(w[i] - exact)) <= abs_bound, (q, i, w[i])
                else:
                    assert abs(float((w[i] - exact) / exact)) <= rel_bound, (q, i, w[i])

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 51, 400, 401, 10_000])
    def test_median_column_is_its_mirror_image(self, n):
        hd = _hd_weight_matrix(n, (0.5,))
        (lo, w), = hd.windows
        assert 2 * lo + w.size == n
        assert np.array_equal(w, w[::-1])
        assert hd.mirrored == (0,)

    @pytest.mark.parametrize("n", [1, 7, 30, 100, 246, 900, 10_000])
    def test_level_weights_do_not_depend_on_the_level_set(self, n):
        """A level's window is bit-identical whatever set it is built in,
        so where both sets reduce by windows the estimates are too."""
        rng = np.random.default_rng(n)
        xs = np.sort(rng.lognormal(size=n))
        deciles = _hd_weight_matrix(n, DECILES)
        batch = estimate_quantiles(xs, DECILES)
        for j, q in enumerate(DECILES):
            (lo, w), = _hd_weight_matrix(n, (q,)).windows
            assert deciles.windows[j][0] == lo
            assert deciles.windows[j][1].tobytes() == w.tobytes()
            if deciles.dense is None and _hd_weight_matrix(n, (q,)).dense is None:
                assert hd_quantile(xs, q) == batch[j]
            else:
                assert hd_quantile(xs, q) == pytest.approx(batch[j], rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 126, 400, 10_000, 90_000])
    def test_bracket_tails_within_tail_mass(self, n):
        """Neither tail beyond a level's bracket holds more than the tail
        mass (by scipy), skewed levels at small n included.  The window the
        build keeps lies inside the bracket, leaves at most the tail mass
        beyond each end, and sums to 1."""
        levels = tuple(np.linspace(0.0005, 0.9995, 41))
        windows = _hd_weight_matrix(n, levels).windows
        for q, (lo, w) in zip(levels, windows):
            j0, j1 = _hd_bracket(n, q)
            hi = lo + w.size
            a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
            assert betainc(a, b, j0 / n) <= _HD_TAIL_MASS, q
            assert betaincc(a, b, j1 / n) <= _HD_TAIL_MASS, q
            assert j0 <= lo and hi <= j1
            assert betainc(a, b, lo / n) <= _HD_TAIL_MASS, q
            assert betaincc(a, b, hi / n) <= _HD_TAIL_MASS, q
            assert abs(w.sum() - 1.0) < 1e-12


_REPLICATES_SCRIPT = """
import sys
from qshift import DECILES, IBAND_QUANTILES, BootstrapConfig
from qshift.contrasts import _cell_thetas, contrast_value
from qshift.pairwise import _iband_star
from qshift.rng import stream

with open(sys.argv[1], "wb") as fh:
    for seed in range(6):
        cells = [stream(seed, "blas", c).normal(size=30) for c in range(4)]
        config = BootstrapConfig(n_boot=600, seed=seed, quantiles=IBAND_QUANTILES)
        fh.write(_iband_star(cells, config, ("hd",))[0].tobytes())
    cells = [stream(6, "blas", c).lognormal(size=100) for c in range(4)]
    config = BootstrapConfig(n_boot=2000, seed=6, quantiles=DECILES)
    fh.write(contrast_value(_cell_thetas(cells, config, ("hd",))[0], "interaction")[2].tobytes())
"""


def test_replicates_do_not_depend_on_blas_threads(tmp_path):
    """Harrell-Davis replicates of iband (windowed, n1*n2 = 900) and of
    decinter (dense, n = 100) are byte-equal at 1 and 2 OpenBLAS threads."""
    src = str(Path(qshift.__file__).resolve().parents[1])
    replicates = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.bin"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-c", _REPLICATES_SCRIPT, str(out)],
                       env=env, check=True, timeout=120)
        replicates.append(np.fromfile(out))
    one, two = replicates
    assert one.size == 6 * 600 * len(IBAND_QUANTILES) + 2000 * len(DECILES)
    assert one.tobytes() == two.tobytes(), f"{np.count_nonzero(one != two)} of {one.size} replicates differ"
