"""Tests for the all-pairwise-difference quantile tests."""

import numpy as np
import pytest

from qshift import (
    BootstrapConfig,
    FactorialSample,
    IBAND_QUANTILES,
    iband,
    median_diff_test,
    pairwise_differences,
    ph_probability,
    stream,
)
from qshift.rng import derive_seed

from oracles import type7_quantile


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


class TestPHProbability:
    def test_all_below(self):
        assert ph_probability(pairwise_differences([1, 2], [3, 4])) == 1.0

    def test_all_above(self):
        assert ph_probability(pairwise_differences([3, 4], [1, 2])) == 0.0

    def test_tie_not_counted(self):
        assert ph_probability(pairwise_differences([1], [1])) == 0.0

    def test_exchange_complements_up_to_ties(self):
        rng = stream(2, "ph")
        x, y = rng.normal(size=9), rng.normal(size=6)
        d = pairwise_differences(x, y)
        # continuous data: no ties, so P(X<Y) + P(Y<X) = 1
        assert ph_probability(d) + ph_probability(-d) == pytest.approx(1.0)


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
            flipped = iband(sample.transposed(), config)[0].dif
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
        import qshift.pairwise as pairwise_mod

        rng = stream(7, "blocks")
        sample = FactorialSample.from_cells(*(rng.normal(size=24) for _ in range(4)))
        config = BootstrapConfig(n_boot=150, seed=4, quantiles=IBAND_QUANTILES)
        full = iband(sample, config)
        monkeypatch.setattr(pairwise_mod, "_BLOCK_ELEMENTS", 24 * 24)  # one replicate per block
        blocked = iband(sample, config)
        for a, b in zip(full, blocked):
            # block shape changes the BLAS accumulation order, so CI bounds
            # may move by an ulp; everything else is identical
            assert (a.q, a.est_lev1, a.est_lev2, a.dif) == (b.q, b.est_lev1, b.est_lev2, b.dif)
            assert a.p_value == b.p_value
            assert a.ci_low == pytest.approx(b.ci_low, rel=1e-12, abs=1e-12)
            assert a.ci_high == pytest.approx(b.ci_high, rel=1e-12, abs=1e-12)


class TestMedianDiffTest:
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
