"""Tests for the percentile-bootstrap core and its per-replicate reference path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift import BootstrapConfig, percentile_ci, signed_pvalue, stream
from qshift.bootstrap import _cell_resample_matrices
from qshift.quantiles import _from_sorted_rows
from qshift.rng import derive_seed

from oracles import (
    BootstrapDistribution,
    NonFiniteStatisticError,
    bootstrap_statistic,
    mc_margin,
    resample,
)


class TestResample:
    def test_single_value(self):
        out = resample([4.0], stream(0, "r"))
        assert out.tolist() == [4.0]

    def test_deterministic_for_fixed_stream(self):
        a = resample([1.0, 2.0, 3.0], stream(7, "x"))
        b = resample([1.0, 2.0, 3.0], stream(7, "x"))
        assert np.array_equal(a, b)

    def test_uniform_with_replacement(self):
        rng = stream(11, "prop")
        draws = np.concatenate([resample([1.0, 2.0], rng) for _ in range(10_000)])
        prop_ones = np.mean(draws == 1.0)
        assert abs(prop_ones - 0.5) <= mc_margin(0.5, draws.size)
        assert 0.48 <= prop_ones <= 0.52

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resample([], stream(0))


class TestSignedPValue:
    def test_balanced(self):
        values = np.concatenate([-np.ones(1000), np.ones(1000)])
        assert signed_pvalue(values) == 1.0

    def test_all_positive(self):
        assert signed_pvalue(np.ones(2000)) == 0.0

    def test_tie_term(self):
        # A=50 below zero, D=10 at zero out of B=2000: P=.0275, p=.055
        values = np.concatenate([-np.ones(50), np.zeros(10), np.ones(1940)])
        assert signed_pvalue(values) == pytest.approx(0.055, abs=1e-12)

    def test_all_zero_is_one(self):
        # degenerate bootstrap: A=0, D=B gives P=.5 directly
        assert signed_pvalue(np.zeros(500)) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=200))
    def test_negation_symmetry(self, values):
        arr = np.array(values)
        assert signed_pvalue(-arr) == pytest.approx(signed_pvalue(arr), abs=1e-12)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError, match="bootstrap distribution is empty"):
            signed_pvalue([])
        with pytest.raises(ValueError, match="not a scalar"):
            signed_pvalue(0.3)

    def test_nan_replicates_rejected(self):
        """A NaN is neither below nor at zero, so all-NaN replicates would
        read as p = 0, significant."""
        with pytest.raises(ValueError, match="bootstrap replicates contain NaN"):
            signed_pvalue(np.full(10, np.nan))
        reps = np.ones((600, 9))
        reps[599, 4] = np.nan
        with pytest.raises(ValueError, match="contain NaN"):
            signed_pvalue(reps)

    def test_accepts_distribution_object(self):
        dist = BootstrapDistribution(np.array([-1.0, 0.5, 2.0]))
        assert signed_pvalue(dist) == signed_pvalue([-1.0, 0.5, 2.0])

    def test_columnwise_matches_each_column(self):
        rng = stream(4, "cols")
        reps = np.round(rng.normal(size=(300, 5)), 1)  # rounding leaves exact zeros
        reps[:, 3] = 0.0
        got = signed_pvalue(reps)
        assert got.shape == (5,)
        assert got.tolist() == [signed_pvalue(reps[:, i]) for i in range(5)]


class TestPercentileCI:
    def test_identity_placement(self):
        # replicates 1..2000 at alpha=.05: l=50, so the CI is the 51st and
        # 1950th order statistics
        lo, hi = percentile_ci(np.arange(1, 2001, dtype=float), 0.05)
        assert (lo, hi) == (51.0, 1950.0)

    def test_degenerate_distribution(self):
        lo, hi = percentile_ci(np.full(2000, 3.7), 0.05)
        assert (lo, hi) == (3.7, 3.7)

    def test_endpoints_are_replicates(self):
        rng = stream(3, "ci")
        values = rng.normal(size=999)
        lo, hi = percentile_ci(values, 0.05)
        assert lo in values and hi in values and lo <= hi

    def test_too_few_replicates(self):
        with pytest.raises(ValueError):
            percentile_ci(np.arange(10.0), 0.05)
        with pytest.raises(ValueError, match="not a scalar"):
            percentile_ci(0.3, 0.05)

    def test_alpha_too_large_for_the_replicates(self):
        # l = round(0.9 * 4 / 2) = 2 leaves no replicate between the bounds
        with pytest.raises(ValueError, match="alpha=0.9 is too large for n_boot=4"):
            percentile_ci(np.arange(4.0), 0.9)

    def test_unsorted_input_ok(self):
        values = np.arange(2000.0)[::-1] + 1
        assert percentile_ci(values, 0.05) == (51.0, 1950.0)

    def test_nan_replicates_rejected(self):
        """A NaN sorts last, so it would stand in for the largest replicate."""
        with pytest.raises(ValueError, match="bootstrap replicates contain NaN"):
            percentile_ci(np.r_[np.arange(99.0), np.nan], 0.1)
        reps = stream(5, "cols").normal(size=(400, 4))
        reps[7, 2] = np.nan
        with pytest.raises(ValueError, match="contain NaN"):
            percentile_ci(reps, 0.05)

    def test_columnwise_matches_each_column(self):
        reps = stream(5, "cols").normal(size=(400, 4))
        lo, hi = percentile_ci(reps, 0.05)
        assert list(zip(lo.tolist(), hi.tolist())) == [
            percentile_ci(reps[:, i], 0.05) for i in range(4)]


class TestBootstrapConfig:
    def test_defaults(self):
        config = BootstrapConfig()
        assert config.n_boot == 2000
        assert config.quantiles is None  # each test supplies its own family

    @pytest.mark.parametrize("kwargs", [
        {"n_boot": 30, "alpha": 0.05},           # B < 2/alpha
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"quantiles": ()},
        {"quantiles": (0.0, 0.5)},
        {"quantiles": (0.5, 0.2)},
        {"estimator": "median"},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": "1"},
        {"seed": True},
        {"n_boot": 200.0},
        {"n_boot": "200"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BootstrapConfig(**kwargs)

    def test_numpy_integer_counts_pass(self):
        config = BootstrapConfig(n_boot=np.int64(200), seed=np.uint32(3))
        assert config == BootstrapConfig(n_boot=200, seed=3)


class TestBootstrapStatistic:
    def test_constant_statistic(self):
        dist = bootstrap_statistic(
            [[1.0, 2.0]], lambda cells: 0.0, BootstrapConfig(n_boot=100)
        )
        assert np.all(dist.values == 0.0)
        assert signed_pvalue(dist) == 1.0

    def test_constant_cell_mean(self):
        dist = bootstrap_statistic(
            [[5.0, 5.0, 5.0]],
            lambda cells: float(np.mean(cells[0])),
            BootstrapConfig(n_boot=200),
        )
        assert np.all(dist.values == 5.0)

    def test_bitwise_determinism(self):
        config = BootstrapConfig(n_boot=300, seed=17)
        stat = lambda cells: float(np.mean(cells[0]) - np.mean(cells[1]))  # noqa: E731
        one = bootstrap_statistic([[1.0, 5.0, 9.0], [2.0, 2.0, 8.0]], stat, config)
        two = bootstrap_statistic([[1.0, 5.0, 9.0], [2.0, 2.0, 8.0]], stat, config)
        assert np.array_equal(one.values, two.values)

    def test_non_finite_statistic_carries_replicate(self):
        calls = {"n": 0}

        def bad(cells):
            calls["n"] += 1
            return np.nan if calls["n"] == 3 else 0.0

        with pytest.raises(NonFiniteStatisticError) as err:
            bootstrap_statistic([[1.0, 2.0, 3.0]], bad, BootstrapConfig(n_boot=100))
        assert err.value.replicate == 2


def test_coverage_of_null_median_difference():
    """95% percentile CI covers 0 for identical normal cells (n=30)."""
    covered = 0
    n_sims = 500
    for s in range(n_sims):
        rng = stream(123, "coverage", s)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        config = BootstrapConfig(
            n_boot=2000, seed=derive_seed(123, "coverage-boot", s), quantiles=(0.5,)
        )
        mx, my = _cell_resample_matrices((x, y), config)
        mx.sort(axis=1)
        my.sort(axis=1)
        diff = (_from_sorted_rows(mx, (0.5,), "hd")[:, 0]
                - _from_sorted_rows(my, (0.5,), "hd")[:, 0])
        lo, hi = percentile_ci(diff, 0.05)
        covered += lo <= 0.0 <= hi
    assert covered / n_sims >= 0.90
