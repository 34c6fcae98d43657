"""Tests for the quantile estimators and the incomplete-beta numerics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

import qshift
from qshift import (
    DECILES,
    IBAND_QUANTILES,
    estimate_quantiles,
    hd_quantile,
)
from qshift.quantiles import (
    _HD_TAIL_MASS,
    _betainc_grid,
    _from_sorted_rows,
    _hd_weight_matrix,
    _hd_windows,
    _tail_windows,
    _windowed_product,
)

from oracles import beta_cdf_quad, hd_quantile_quad, type7_quantile

# computed with oracles.beta_cdf_quad (adaptive quadrature of the density)
BETAINC_ORACLE_X03_A255_B255 = 0.0015007606871103277
# computed with oracles.hd_quantile_quad on the sample 1..20
HD_ORACLE_1_TO_20_Q03 = 6.5000002471016565


def _hd_weights(n: int, q: float) -> np.ndarray:
    return _hd_weight_matrix(n, (q,))[:, 0]


class TestRegularizedIncompleteBeta:
    def test_lower_endpoint(self):
        assert _betainc_grid([0.0], 2.0, 3.0)[0] == 0.0

    def test_upper_endpoint(self):
        assert _betainc_grid([1.0], 2.0, 3.0)[0] == 1.0

    def test_beta11_is_uniform(self):
        assert _betainc_grid([0.5], 1.0, 1.0)[0] == pytest.approx(0.5, abs=1e-14)

    def test_against_quadrature_oracle(self):
        value = _betainc_grid([0.3], 25.5, 25.5)[0]
        assert value == pytest.approx(BETAINC_ORACLE_X03_A255_B255, abs=1e-10)

    @pytest.mark.parametrize("x,a,b", [
        (0.02, 0.6, 5.4),     # singular density at 0
        (0.97, 4.0, 0.5),     # singular density at 1
        (0.5, 500.0, 500.0),  # sharp interior spike
        (0.12, 1001.0, 9009.0),
    ])
    def test_random_regimes_vs_oracle(self, x, a, b):
        assert _betainc_grid([x], a, b)[0] == pytest.approx(beta_cdf_quad(x, a, b), abs=1e-10)

    def test_symmetry_relation(self):
        # I_x(a,b) + I_{1-x}(b,a) = 1
        v1 = _betainc_grid([0.73], 12.0, 5.0)[0]
        v2 = _betainc_grid([0.27], 5.0, 12.0)[0]
        assert v1 + v2 == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n,bound", [(900, 1e-12), (10_000, 2e-11)])
    def test_hd_grid_against_scipy(self, n, bound):
        """Every CDF value behind the HD weights of the iband levels and the
        deciles at n, within twice the largest error measured there."""
        grid = np.arange(n + 1) / n
        worst = 0.0
        for q in sorted(set(IBAND_QUANTILES) | set(DECILES)):
            a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
            worst = max(worst, float(np.max(np.abs(_betainc_grid(grid, a, b) - betainc(a, b, grid)))))
        assert worst <= bound


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


@st.composite
def hd_reduction_case(draw):
    """Sorted rows and a level set on one chosen side of the coverage rule:
    every set keeps the dense product up to n = 52 and windows from 246."""
    windowed = draw(st.booleans())
    if windowed:
        n = int(10 ** draw(st.floats(min_value=math.log10(246), max_value=math.log10(30_000))))
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


@settings(max_examples=40, deadline=None)
@given(hd_reduction_case())
def test_windowed_reduction_matches_dense_product(case):
    """Each window drops at most the tail mass it names and no more, its
    estimates agree with the dense product within 1e-14 of the largest
    |x|, and the coverage rule picks the side the case was drawn for."""
    windowed, levels, rows = case
    n = rows.shape[1]
    weights = _hd_weight_matrix(n, levels)
    windows = _tail_windows(weights)
    for j, (lo, w) in enumerate(windows):
        hi = lo + w.size
        assert math.fsum(weights[:lo, j]) <= _HD_TAIL_MASS
        assert math.fsum(weights[hi:, j]) <= _HD_TAIL_MASS
        # the window is no longer than the bound needs
        assert math.fsum(weights[:lo + 1, j]) > _HD_TAIL_MASS
        assert math.fsum(weights[hi - 1:, j]) > _HD_TAIL_MASS
    dense = rows @ weights
    by_window = _windowed_product(rows, windows, weights)
    floor = 1e-14 * np.max(np.abs(rows), axis=1, keepdims=True)
    assert np.all(np.abs(by_window - dense) <= np.maximum(1e-14 * np.abs(dense), floor))
    assert (_hd_windows(n, levels) is not None) == windowed
    chosen = by_window if windowed else dense
    assert _from_sorted_rows(rows, levels, "hd").tobytes() == chosen.tobytes()


_REPLICATES_SCRIPT = """
import sys
from qshift import DECILES, IBAND_QUANTILES, BootstrapConfig
from qshift.contrasts import _psi_star
from qshift.pairwise import _iband_star
from qshift.rng import stream

with open(sys.argv[1], "wb") as fh:
    for seed in range(6):
        cells = [stream(seed, "blas", c).normal(size=30) for c in range(4)]
        config = BootstrapConfig(n_boot=600, seed=seed, quantiles=IBAND_QUANTILES)
        fh.write(_iband_star(cells, config).tobytes())
    cells = [stream(6, "blas", c).lognormal(size=100) for c in range(4)]
    config = BootstrapConfig(n_boot=2000, seed=6, quantiles=DECILES)
    fh.write(_psi_star(cells, "interaction", config).tobytes())
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
