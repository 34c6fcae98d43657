"""Tests for the cell-quantile contrast tests (interaction and main effects)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qshift.contrasts as contrasts_mod
import qshift.pairwise as pairwise_mod
from qshift import (
    BootstrapConfig,
    FactorialSample,
    INTERACTION,
    MAIN_A,
    MAIN_B,
    contrast_value,
    decinter,
    hd_quantile,
    pairwise_differences,
    stream,
)
from qshift.bootstrap import _cell_resample_matrices
from qshift.rng import derive_seed

from oracles import bootstrap_statistic, swapped_a_levels, transposed, type7_quantile

_SCALAR_ESTIMATORS = {"hd": hd_quantile, "t7": type7_quantile}

# rounded values from a short range, or a handful of integers: ties are common
_tied_cell = st.lists(
    st.one_of(st.integers(0, 3).map(float),
              st.floats(-5.0, 5.0, allow_nan=False).map(lambda v: round(v, 1))),
    min_size=3, max_size=12,
).map(np.array)


def _random_sample(seed, n=30, shifts=(0.0, 0.0, 0.0, 0.0)):
    rng = stream(seed, "cells")
    return FactorialSample.from_cells(
        *(rng.normal(size=n) + s for s in shifts)
    )


class TestFactorialSample:
    def test_cell_accessor_is_one_based(self):
        sample = FactorialSample.from_cells([1.0] * 20, [2.0] * 20, [3.0] * 20, [4.0] * 20)
        assert sample.cell(2, 1)[0] == 3.0
        assert sample.sizes() == ((20, 20), (20, 20))

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            FactorialSample.from_cells([], [1.0] * 20, [1.0] * 20, [1.0] * 20)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            FactorialSample.from_cells([np.nan] * 20, [1.0] * 20, [1.0] * 20, [1.0] * 20)

    def test_huge_cell_rejected_by_name(self):
        # beyond max/4, an interaction contrast of four such values overflows
        cells = [np.linspace(-1.0, 1.0, 20) for _ in range(4)]
        cells[1] = cells[1] * 1e308
        with pytest.raises(ValueError, match=r"^cell \(1,2\) holds a value beyond 4.494e\+307"):
            decinter(FactorialSample.from_cells(*cells), INTERACTION, BootstrapConfig(n_boot=200))

    def test_values_at_the_bound_give_finite_results(self):
        # opposite signs on the diagonals: the contrast nears 4 * 4.49e307
        x = np.linspace(0.5, 1.0, 20) * 4.49e307
        sample = FactorialSample.from_cells(x, -x, -x, x)
        for estimator in ("hd", "t7"):
            config = BootstrapConfig(n_boot=200, seed=3, estimator=estimator)
            for row in decinter(sample, INTERACTION, config):
                assert np.isfinite([row.dif, row.ci_low, row.ci_high]).all()

    def test_small_cells_warn(self):
        with pytest.warns(UserWarning, match="n=5"):
            FactorialSample.from_cells([1.0] * 5, [2.0] * 20, [3.0] * 20, [4.0] * 20)

    def test_transposed_swaps_off_diagonal(self):
        sample = FactorialSample.from_cells([1.0] * 20, [2.0] * 20, [3.0] * 20, [4.0] * 20)
        flipped = transposed(sample)
        assert flipped.cell(1, 2)[0] == 3.0
        assert flipped.cell(2, 1)[0] == 2.0


class TestContrastValue:
    def test_all_equal(self):
        assert contrast_value((1.0, 1.0, 1.0, 1.0), INTERACTION) == (0.0, 0.0, 0.0)

    def test_interaction_arithmetic(self):
        assert contrast_value((4.0, 1.0, 3.0, 2.0), INTERACTION) == (3.0, 1.0, 2.0)

    def test_main_a_arithmetic(self):
        assert contrast_value((4.0, 1.0, 3.0, 2.0), MAIN_A) == (2.5, 2.5, 0.0)

    def test_main_b_arithmetic(self):
        lev1, lev2, psi = contrast_value((4.0, 1.0, 3.0, 2.0), MAIN_B)
        assert (lev1, lev2, psi) == (3.5, 1.5, 2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            contrast_value((1.0, 2.0, 3.0, 4.0), "quadratic")


class TestDecinter:
    def test_identical_constant_cells(self):
        sample = FactorialSample.from_cells(*([[7.0] * 25] * 4))
        rows = decinter(sample, INTERACTION, BootstrapConfig(n_boot=400, seed=1))
        for row in rows:
            assert row.dif == 0.0
            assert row.p_value == 1.0
            assert row.p_adjusted == 1.0

    def test_row_count_and_order(self):
        sample = _random_sample(3)
        rows = decinter(sample, INTERACTION, BootstrapConfig(n_boot=200, seed=2))
        assert [row.q for row in rows] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    def test_dif_consistent_with_levels(self):
        sample = _random_sample(4)
        for kind in (INTERACTION, MAIN_A, MAIN_B):
            for row in decinter(sample, kind, BootstrapConfig(n_boot=200, seed=2)):
                assert row.dif == pytest.approx(row.est_lev1 - row.est_lev2, abs=1e-9)

    def test_adjusted_at_least_raw(self):
        sample = _random_sample(5)
        for correction in ("bh", "hochberg", "none"):
            rows = decinter(sample, INTERACTION, BootstrapConfig(n_boot=300, seed=3), correction)
            for row in rows:
                assert row.p_adjusted >= row.p_value - 1e-15

    def test_interchange_invariance_of_interaction_estimates(self):
        config = BootstrapConfig(n_boot=200, seed=9)
        for s in range(20):
            sample = _random_sample(s, n=25)
            direct = decinter(sample, INTERACTION, config)
            flipped = decinter(transposed(sample), INTERACTION, config)
            for a, b in zip(direct, flipped):
                assert a.dif == b.dif  # exact: the contrast is symmetric in the off-diagonal cells

    def test_translation_invariance_of_interaction(self):
        sample = _random_sample(8)
        shifted = FactorialSample.from_cells(*(c + 17.5 for c in sample.flat_cells()))
        config = BootstrapConfig(n_boot=200, seed=4)
        for a, b in zip(decinter(sample, INTERACTION, config),
                        decinter(shifted, INTERACTION, config)):
            assert a.dif == pytest.approx(b.dif, abs=1e-9)

    def test_sign_antisymmetry_point_estimates(self):
        sample = _random_sample(11, shifts=(0.0, 0.3, -0.2, 0.5))
        swapped = swapped_a_levels(sample)
        config = BootstrapConfig(n_boot=200, seed=5)
        for kind in (INTERACTION, MAIN_A):
            for a, b in zip(decinter(sample, kind, config), decinter(swapped, kind, config)):
                assert b.dif == -a.dif

    def test_sign_antisymmetry_with_shared_resamples(self, monkeypatch):
        """Forcing the same resamples onto relabeled cells negates everything."""
        sample = _random_sample(12, shifts=(0.0, 0.4, 0.1, -0.3))
        config = BootstrapConfig(n_boot=200, seed=6)
        mats = _cell_resample_matrices(sample.flat_cells(), config)

        def serve(order):
            return lambda cells, cfg: [mats[i].copy() for i in order]

        monkeypatch.setattr(contrasts_mod, "_cell_resample_matrices", serve((0, 1, 2, 3)))
        direct = decinter(sample, INTERACTION, config)
        monkeypatch.setattr(contrasts_mod, "_cell_resample_matrices", serve((2, 3, 0, 1)))
        swapped = decinter(swapped_a_levels(sample), INTERACTION, config)
        for a, b in zip(direct, swapped):
            assert b.dif == -a.dif
            assert b.p_value == a.p_value
            assert (b.ci_low, b.ci_high) == (-a.ci_high, -a.ci_low)

    def test_extreme_quantile_warning_small_cells(self):
        sample = _random_sample(13, n=25)
        config = BootstrapConfig(n_boot=200, seed=7, quantiles=(0.05, 0.5))
        with pytest.warns(UserWarning, match="outside") as record:
            decinter(sample, INTERACTION, config)
        assert record[0].filename == __file__  # names the caller's line

    @pytest.mark.parametrize("estimator", ["hd", "t7"])
    @pytest.mark.parametrize("kind", [INTERACTION, MAIN_A, MAIN_B, "iband"])
    @settings(max_examples=20, deadline=None)
    @given(cells=st.tuples(_tied_cell, _tied_cell, _tied_cell, _tied_cell))
    def test_loop_engine_agrees_with_vectorized_path(self, kind, estimator, cells):
        """The generic per-replicate engine reproduces the replicates that
        decinter, iband and the simulation reduce."""
        est = _SCALAR_ESTIMATORS[estimator]
        q = 0.5 if kind == "iband" else 0.3
        config = BootstrapConfig(n_boot=40, seed=8, estimator=estimator, quantiles=(q,))
        if kind == "iband":
            def statistic(c):
                return (est(pairwise_differences(c[0], c[1]), q)
                        - est(pairwise_differences(c[2], c[3]), q))

            fast = pairwise_mod._iband_star(cells, config)[:, 0]
        else:
            def statistic(c):
                return contrast_value([est(x, q) for x in c], kind)[2]

            fast = contrasts_mod._psi_star(cells, kind, config)[:, 0]
        dist = bootstrap_statistic(cells, statistic, config)
        np.testing.assert_allclose(np.sort(fast), dist.values, rtol=0, atol=1e-12)

    def test_main_effect_power_at_median(self):
        """A 5-sigma factor-A shift is detected at the median decile."""
        hits = 0
        n_runs = 200
        for s in range(n_runs):
            rng = stream(2000 + s, "power")
            sample = FactorialSample.from_cells(
                rng.normal(size=50), rng.normal(size=50),
                rng.normal(size=50) + 5.0, rng.normal(size=50) + 5.0,
            )
            config = BootstrapConfig(n_boot=600, seed=derive_seed(2000 + s, "pboot"))
            rows = decinter(sample, MAIN_A, config, "bh")
            hits += bool(rows[4].p_adjusted <= 0.05)  # the median decile
        assert hits / n_runs >= 0.95
