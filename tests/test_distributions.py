"""Tests for the simulation population generators and kurtosis diagnostic."""

import numpy as np
import pytest

from qshift import DistributionSpec, generate, stream

from oracles import lognormal_kurtosis, sample_kurtosis


def _skewness(x):
    c = x - x.mean()
    return float(np.mean(c ** 3) / np.mean(c ** 2) ** 1.5)


class TestGenerate:
    def test_poisson_mean(self):
        x = generate(DistributionSpec("poisson", mean=9.0), 10_000, stream(1, "pois"))
        assert 8.7 <= x.mean() <= 9.3
        assert np.all(x == np.floor(x))

    def test_g_and_h_identity_is_normal(self):
        x = generate(DistributionSpec("g_and_h", g=0.0, h=0.0), 10_000, stream(2, "gh"))
        assert abs(x.mean()) <= 0.05
        assert abs(x.std() - 1.0) <= 0.05

    def test_g_and_h_positive_g_skews_right(self):
        x = generate(DistributionSpec("g_and_h", g=0.5, h=0.0), 100_000, stream(3, "gh"))
        assert _skewness(x) > 0.5

    def test_g_and_h_matches_limit_as_g_vanishes(self):
        z = generate(DistributionSpec("g_and_h", g=1e-9, h=0.2), 1000, stream(4, "gh"))
        z0 = generate(DistributionSpec("g_and_h", g=0.0, h=0.2), 1000, stream(4, "gh"))
        np.testing.assert_allclose(z, z0, rtol=1e-6)

    def test_beta_binomial_support_and_ties(self):
        spec = DistributionSpec("beta_binomial", r=1.0, s=9.0, nbin=10)
        x = generate(spec, 10_000, stream(5, "bb"))
        assert np.all(x == np.floor(x))
        assert x.min() >= 0.0 and x.max() <= 9.0
        assert len(np.unique(x)) <= 10
        _, counts = np.unique(x, return_counts=True)
        assert counts.max() > 1000  # heavy tie mass by construction

    def test_beta_binomial_symmetric_case(self):
        spec = DistributionSpec("beta_binomial", r=9.0, s=9.0, nbin=10)
        x = generate(spec, 1_000_000, stream(6, "bb"))
        assert abs(x.mean() - 4.5) <= 0.05

    def test_mixed_normal_symmetric_heavy_tails(self):
        x = generate(DistributionSpec("mixed_normal"), 1_000_000, stream(7, "mn"))
        assert abs(_skewness(x)) <= 0.05
        assert sample_kurtosis(x) > 10.0  # far beyond the normal value of 3

    @pytest.mark.slow
    def test_mixed_lognormal_kurtosis_explodes(self):
        estimates = [
            sample_kurtosis(generate(DistributionSpec("mixed_lognormal"), 1_000_000,
                                     stream(8, "mln", rep)))
            for rep in range(100)
        ]
        assert 150.0 <= float(np.median(estimates)) <= 1500.0

    def test_lognormal_is_exp_normal(self):
        x = generate(DistributionSpec("lognormal"), 1000, stream(9, "ln"))
        z = generate(DistributionSpec("normal"), 1000, stream(9, "ln"))
        np.testing.assert_allclose(x, np.exp(z))

    def test_shift_equivariance(self):
        for kind in ("normal", "mixed_normal", "lognormal", "mixed_lognormal",
                     "poisson", "beta_binomial", "g_and_h"):
            base = generate(DistributionSpec(kind), 500, stream(10, kind))
            shifted = generate(DistributionSpec(kind, shift=2.5), 500, stream(10, kind))
            np.testing.assert_array_equal(shifted, base + 2.5)

    def test_determinism(self):
        spec = DistributionSpec("mixed_lognormal")
        a = generate(spec, 100, stream(11, "det", 3))
        b = generate(spec, 100, stream(11, "det", 3))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("nbin", [10.5, 10.0, True, "10"])
    def test_beta_binomial_nbin_must_be_integer(self, nbin):
        with pytest.raises(ValueError, match="nbin must be an integer"):
            DistributionSpec("beta_binomial", nbin=nbin)

    def test_beta_binomial_numpy_integer_nbin_passes(self):
        x = generate(DistributionSpec("beta_binomial", r=9.0, s=9.0, nbin=np.int64(10)),
                     2000, stream(12, "nbin"))
        assert set(np.unique(x)) == set(range(10))

    @pytest.mark.parametrize("shift", [True, "0.5", float("inf")])
    def test_shift_must_be_a_finite_number(self, shift):
        with pytest.raises((TypeError, ValueError)):
            DistributionSpec("normal", shift=shift)

    @pytest.mark.parametrize("field", ["mean", "r", "s", "g", "h"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_population_parameters_must_be_finite(self, field, value):
        for kind in ("poisson", "beta_binomial", "g_and_h", "normal"):
            with pytest.raises(ValueError, match=f"{field} must be a finite number"):
                DistributionSpec(kind, **{field: value})

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DistributionSpec("poisson", mean=0.0)
        with pytest.raises(ValueError):
            DistributionSpec("beta_binomial", nbin=1)
        with pytest.raises(ValueError):
            DistributionSpec("beta_binomial", r=-1.0)
        with pytest.raises(ValueError):
            DistributionSpec("g_and_h", h=-0.1)
        with pytest.raises(ValueError):
            DistributionSpec("cauchy")
        with pytest.raises(ValueError):
            generate(DistributionSpec("normal"), 0, stream(0))


class TestSampleKurtosis:
    def test_normal_is_three(self):
        x = generate(DistributionSpec("normal"), 1_000_000, stream(12, "k"))
        assert sample_kurtosis(x) == pytest.approx(3.0, abs=0.05)

    def test_lognormal_closed_form(self):
        assert lognormal_kurtosis() == pytest.approx(113.9364, abs=1e-3)

    def test_lognormal_estimates_mostly_below_truth(self):
        """The usual estimator grossly underestimates heavy-tail kurtosis."""
        truth = lognormal_kurtosis()
        below = 0
        reps = 200
        for rep in range(reps):
            x = generate(DistributionSpec("lognormal"), 100_000, stream(13, "under", rep))
            below += sample_kurtosis(x) < truth
        assert below / reps >= 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_kurtosis([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sample_kurtosis([2.0, 2.0, 2.0, 2.0])
