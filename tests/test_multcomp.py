"""Tests for the adjusted p-values, against the step-up scans of the oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshift import adjust_pvalues

from oracles import bh_reject, hochberg_reject

# the nine-test and five-test families used throughout the worked examples
FAMILY_9 = [0.389, 0.039, 0.010, 0.008, 0.009, 0.036, 0.348, 0.775, 0.362]
FAMILY_9_HOCHBERG = [0.775, 0.195, 0.070, 0.070, 0.070, 0.195, 0.775, 0.775, 0.775]
FAMILY_5 = [0.607, 0.165, 0.058, 0.013, 0.039]
FAMILY_5_HOCHBERG = [0.607, 0.330, 0.174, 0.065, 0.156]

pfamilies = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)


def _decide(p, alpha, scan, method):
    """The package's rejections, after checking them against the scan's."""
    mask = adjust_pvalues(p, method) <= alpha
    assert np.array_equal(mask, scan(p, alpha))
    return mask


class TestHochbergAdjust:
    def test_nine_test_family(self):
        adjusted = adjust_pvalues(FAMILY_9, "hochberg")
        np.testing.assert_allclose(adjusted, FAMILY_9_HOCHBERG, atol=5e-4)

    def test_five_test_family(self):
        adjusted = adjust_pvalues(FAMILY_5, "hochberg")
        np.testing.assert_allclose(adjusted, FAMILY_5_HOCHBERG, atol=5e-4)

    def test_single_pvalue_unchanged(self):
        assert adjust_pvalues([0.2], "hochberg").tolist() == [0.2]


class TestBHAdjust:
    def test_three_smallest_collapse(self):
        adjusted = adjust_pvalues(FAMILY_9, "bh")
        for original, value in zip(FAMILY_9, adjusted):
            if original in (0.010, 0.008, 0.009):
                assert value == pytest.approx(0.030, abs=5e-4)

    def test_all_equal_family_is_fixed_point(self):
        assert adjust_pvalues([0.3] * 6, "bh").tolist() == pytest.approx([0.3] * 6)

    def test_two_value_hand_computation(self):
        # C=2: scaled {2*.01, 2*.04/2} = {.02, .04}; cummin leaves both
        assert adjust_pvalues([0.01, 0.04], "bh").tolist() == pytest.approx([0.02, 0.04])


class TestStepupRejection:
    def test_hochberg_none_above_alpha(self):
        assert not _decide([0.5, 0.6, 0.7], 0.05, hochberg_reject, "hochberg").any()

    def test_hochberg_all_small(self):
        # k=1 already triggers: .03 <= .05
        assert _decide([0.01, 0.02, 0.03], 0.05, hochberg_reject, "hochberg").all()

    def test_hochberg_equal_pvalues(self):
        assert _decide([0.04] * 5, 0.05, hochberg_reject, "hochberg").all()

    def test_bh_none_above_alpha(self):
        assert not _decide([0.5, 0.6, 0.7], 0.05, bh_reject, "bh").any()

    def test_bh_rejects_three_smallest(self):
        mask = _decide(FAMILY_9, 0.05, bh_reject, "bh")
        expected = [p in (0.010, 0.008, 0.009) for p in FAMILY_9]
        assert mask.tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(pfamilies, st.floats(min_value=0.01, max_value=0.2))
    # p_[1] exactly equal to alpha: the naive (C*alpha)/C threshold rounds
    # an ulp below alpha and loses the boundary-tied hypothesis
    @example(p=[0.0, 0.0, 0.1763204302796521], alpha=0.1763204302796521)
    def test_bh_dominates_hochberg_rejections(self, p, alpha):
        hoch = adjust_pvalues(p, "hochberg") <= alpha
        bh = adjust_pvalues(p, "bh") <= alpha
        assert np.all(bh | ~hoch)  # BH rejects a superset
        assert np.all(bh_reject(p, alpha) | ~hochberg_reject(p, alpha))


class TestAdjustmentProperties:
    @settings(max_examples=200, deadline=None)
    @given(pfamilies)
    def test_sorted_adjusted_nondecreasing(self, p):
        for method in ("hochberg", "bh"):
            adjusted = adjust_pvalues(p, method)
            ordered = adjusted[np.argsort(p, kind="stable")]
            assert np.all(np.diff(ordered) >= -1e-15)

    @settings(max_examples=200, deadline=None)
    @given(pfamilies)
    def test_bh_dominates_hochberg_values(self, p):
        # fl(C/j) <= C - j + 1 and rounding is monotone, so with no slack
        assert np.all(adjust_pvalues(p, "bh") <= adjust_pvalues(p, "hochberg"))

    @settings(max_examples=200, deadline=None)
    @given(pfamilies)
    def test_adjusted_at_least_raw(self, p):
        raw = np.asarray(p)
        for method in ("hochberg", "bh", "none"):
            assert np.all(adjust_pvalues(raw, method) >= raw - 1e-15)

    @settings(max_examples=100, deadline=None)
    @given(pfamilies, st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, p, rand):
        perm = list(range(len(p)))
        rand.shuffle(perm)
        shuffled = [p[i] for i in perm]
        for method in ("hochberg", "bh"):
            direct = adjust_pvalues(p, method)
            via_perm = adjust_pvalues(shuffled, method)
            assert via_perm.tolist() == pytest.approx([direct[i] for i in perm])

    def test_ties_get_identical_adjusted_values(self):
        adjusted = adjust_pvalues([0.04, 0.01, 0.04, 0.2], "bh")
        assert adjusted[0] == adjusted[2]


def test_decision_equivalence_exhaustive():
    # reject via the stepwise scan iff adjusted p <= alpha
    rng = np.random.default_rng(99)
    for _ in range(1000):
        c = int(rng.integers(1, 13))
        p = np.round(rng.uniform(0, 1, size=c), 3)  # rounding forces ties
        alpha = float(rng.uniform(0.01, 0.2))
        assert np.array_equal(hochberg_reject(p, alpha), adjust_pvalues(p, "hochberg") <= alpha)
        assert np.array_equal(bh_reject(p, alpha), adjust_pvalues(p, "bh") <= alpha)
    # bootstrap p-values are M/B: on the lattice of the shipped grids and
    # the benchmark (alpha = .05, B = 600, families of 5 or 9, and B = 2000
    # of the analysis commands) the scans and the adjusted route agree
    # everywhere, so switching the simulation's route moves no output
    for n_boot in (600, 2000):
        for c in (5, 9):
            for j in range(1, c + 1):
                for m in range(n_boot + 1):
                    p = np.array([m / n_boot] * j + [1.0] * (c - j))
                    _decide(p, 0.05, hochberg_reject, "hochberg")
                    _decide(p, 0.05, bh_reject, "bh")


def test_validation():
    with pytest.raises(ValueError):
        adjust_pvalues([], "hochberg")
    with pytest.raises(ValueError):
        adjust_pvalues([0.5, 1.2], "bh")
    with pytest.raises(ValueError):
        adjust_pvalues([0.5], "bonferroni")
