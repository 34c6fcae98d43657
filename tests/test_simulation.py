"""Tests for the Monte Carlo harness and the ANOVA baseline."""

import functools
import json
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from qshift import (
    DECILES,
    IBAND_QUANTILES,
    INTERACTION,
    MAIN_A,
    MAIN_B,
    DegenerateDataError,
    DistributionSpec,
    ExperimentError,
    FactorialSample,
    SimCondition,
    adjust_pvalues,
    anova_f_statistics,
    anova_f_test,
    load_experiment,
    stream,
    sweep,
)
import qshift.distributions
import qshift.simulation
from qshift.simulation import REPORT_COLUMNS, report_csv_rows, report_metadata

from oracles import anova_f_textbook, anova_rates, transposed

NORMAL = DistributionSpec("normal")


def _null_condition(**kwargs):
    base = dict(
        cell_specs=(NORMAL,) * 4, n_per_group=25, method="decinter_hd",
        n_sims=40, n_boot=400, seed=5, name="null",
    )
    base.update(kwargs)
    return SimCondition(**base)


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every process pool the simulation module builds."""
    sizes = []

    class CountingPool(qshift.simulation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sizes.append(kwargs.get("max_workers"))

    monkeypatch.setattr(qshift.simulation, "ProcessPoolExecutor", CountingPool)
    return sizes


def _degenerate_anova():
    # every beta-binomial draw lands in the top bin: zero within-cell
    # variance, so the ANOVA fails at run time
    return _null_condition(
        cell_specs=(DistributionSpec("beta_binomial", r=200.0, s=0.01, nbin=2),) * 4,
        method="anova_means", n_per_group=10, n_sims=3, name="degenerate")


class TestAnova:
    def test_matches_textbook_oracle(self):
        rng = stream(17, "anova")
        for _ in range(50):
            n = int(rng.integers(3, 12))
            cells = [rng.normal(loc=rng.uniform(-1, 1), size=n) for _ in range(4)]
            (fa, fb, fab), df_w = anova_f_statistics(cells)
            oa, ob, oab = anova_f_textbook([c.tolist() for c in cells])
            assert fa == pytest.approx(oa, abs=1e-9, rel=1e-9)
            assert fb == pytest.approx(ob, abs=1e-9, rel=1e-9)
            assert fab == pytest.approx(oab, abs=1e-9, rel=1e-9)
            assert df_w == 4 * (n - 1)

    def test_pvalues_match_f_distribution(self):
        rng = stream(18, "anova")
        cells = [rng.normal(size=8) for _ in range(4)]
        (fa, fb, fab), df_w = anova_f_statistics(cells)
        pa, pb, pab = anova_f_test(cells)
        assert pa == pytest.approx(float(scipy.stats.f.sf(fa, 1, df_w)), abs=1e-12)
        assert pb == pytest.approx(float(scipy.stats.f.sf(fb, 1, df_w)), abs=1e-12)
        assert pab == pytest.approx(float(scipy.stats.f.sf(fab, 1, df_w)), abs=1e-12)

    def test_large_interaction_detected(self):
        rng = stream(19, "anova")
        cells = [rng.normal(size=30), rng.normal(size=30),
                 rng.normal(size=30), rng.normal(size=30) + 50.0]
        _, _, pab = anova_f_test(cells)
        assert pab < 1e-10

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="balanced"):
            anova_f_test([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_cell_rejected(self, bad):
        with pytest.raises(ValueError, match=r"cell \(2,1\) contains NaN or infinite"):
            anova_f_test([[1.0, 2.0], [1.0, 3.0], [bad, 2.0], [0.0, 2.0]])

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDataError):
            anova_f_test([[1.0, 1.0]] * 4)

    @pytest.mark.parametrize("test", [anova_f_test, anova_f_statistics])
    @pytest.mark.parametrize("count", [3, 5])
    def test_other_cell_counts_rejected_by_count(self, test, count, monkeypatch):
        """Three or five cells fail with their count, before any statistic is computed."""
        monkeypatch.setattr(qshift.simulation, "_anova_f_statistics", None)
        with pytest.raises(ValueError, match=f"^a 2x2 design has four cells, got {count}$"):
            test([[1.0, 2.0, 4.0]] * count)

    def test_single_observation_cells_rejected(self):
        with pytest.raises(ValueError, match="need at least 2 observations per cell, got 1"):
            anova_f_test([[1.0], [2.0], [3.0], [4.0]])

    @pytest.mark.parametrize("tiny", [1e-150, 1e-170, 1e-300, 5e-324])
    def test_spread_far_below_the_largest_value_is_variance(self, tiny):
        # only cell (2,2) varies; F_B and F_AB overflow to inf, whose p is 0
        cells = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [tiny, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert anova_f_test(cells) == (1.0, 0.0, 0.0)

    def test_accepts_factorial_sample(self):
        rng = stream(20, "anova")
        sample = FactorialSample.from_cells(*(rng.normal(size=20) for _ in range(4)))
        pa, pb, pab = anova_f_test(sample)
        assert all(0.0 <= p <= 1.0 for p in (pa, pb, pab))

    def test_drawn_cells_are_checked_once(self, monkeypatch):
        """``generate`` returns samples, so a chunk of k ANOVA iterations runs
        ``_as_sample`` once per drawn cell, 4k times; the public function
        still checks the raw cells it is given."""
        calls = []
        for mod in (qshift.distributions, qshift.simulation):
            def counting(*args, original=mod._as_sample, **kwargs):
                calls.append(args[1])
                return original(*args, **kwargs)

            monkeypatch.setattr(mod, "_as_sample", counting)
        qshift.simulation._run_chunk(((_null_condition(method="anova_means"),), 3, 8))
        assert len(calls) == 4 * 5
        assert all(label.endswith(" draw") for label in calls)
        with pytest.raises(ValueError, match=r"cell \(1,2\) contains NaN or infinite"):
            anova_f_statistics([[1.0, 2.0], [np.nan, 1.0], [1.0, 3.0], [0.0, 2.0]])

    @pytest.mark.parametrize("k", [-900, -100, 100, 900])
    def test_power_of_two_scale_changes_no_bit(self, k):
        rng = stream(21, "anova")
        cells = [rng.normal(loc=rng.uniform(-1, 1), size=30) for _ in range(4)]
        scaled = [np.ldexp(c, k) for c in cells]
        assert anova_f_statistics(scaled) == anova_f_statistics(cells)
        assert anova_f_test(scaled) == anova_f_test(cells)

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
    def test_extreme_scales_keep_their_pvalues(self, scale):
        # unscaled, these cells' sums of squares overflow (1e160) or
        # underflow (1e-160 moves the p-values, 1e-170 reads as zero variance)
        rng = stream(21, "anova")
        cells = [rng.normal(loc=rng.uniform(-1, 1), size=30) for _ in range(4)]
        np.testing.assert_allclose(anova_f_test([c * scale for c in cells]),
                                   anova_f_test(cells), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_constant_cells_rejected_at_any_scale(self, scale):
        with pytest.raises(DegenerateDataError):
            anova_f_test([[v * scale] * 3 for v in (1.0, 2.0, 3.0, 4.0)])

    def test_transposed_cells_swap_the_main_effects(self):
        rng = stream(22, "anova")
        for _ in range(20):
            sample = FactorialSample.from_cells(
                *(rng.normal(loc=rng.uniform(-1, 1), size=30) for _ in range(4)))
            (fa, fb, fab), df_w = anova_f_statistics(sample)
            flipped, df_t = anova_f_statistics(transposed(sample))
            assert df_t == df_w
            np.testing.assert_allclose(flipped, (fb, fa, fab), rtol=1e-15, atol=0)


class TestConditions:
    def test_mode_detection(self):
        assert _null_condition().mode == "fwer"
        shifted = _null_condition(cell_specs=(NORMAL,) * 3 + (DistributionSpec("normal", shift=1.0),))
        assert shifted.mode == "power"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failure_is_a_report_in_either_mode(self, workers):
        null = _degenerate_anova()
        spec = null.cell_specs[0]
        shifted = replace(null, cell_specs=(spec,) * 3 + (replace(spec, shift=1.0),))
        assert (null.mode, shifted.mode) == ("fwer", "power")
        reports = sweep([null, shifted], workers)
        for rep, cond in zip(reports, (null, shifted)):
            assert rep.error.startswith("DegenerateDataError")
            assert np.isnan([rep.rate, rep.se, rep.rate_uncorrected]).all()
            assert report_csv_rows([rep]) == report_csv_rows(sweep([cond], workers))

    def test_iband_main_effect_rejected(self):
        with pytest.raises(ValueError, match="interaction"):
            _null_condition(method="iband_hd", contrast="main_a")

    def test_reserved_trimmed_means_tag(self):
        """The trimmed-means tag, once reserved, is now an unknown method."""
        with pytest.raises(ValueError, match="unknown method"):
            _null_condition(method="anova_tm20")

    def test_empty_quantiles_fail_validation_before_execution(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep([_null_condition(quantiles=())])

    @pytest.mark.parametrize("kwargs, match", [
        ({"alpha": 1.5}, "alpha"),
        ({"n_boot": 20, "alpha": 0.05}, "n_boot"),
        ({"seed": -1}, "seed"),
        ({"seed": -1, "method": "anova_means"}, "seed"),
        ({"alpha": 1.5, "method": "anova_means"}, "alpha"),
        ({"n_per_group": 10.7}, "n_per_group must be an integer"),
        ({"n_sims": 10.0}, "n_sims must be an integer"),
        ({"n_boot": "600"}, "n_boot must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"n_per_group": 10.7, "method": "anova_means"}, "n_per_group"),
        ({"n_per_group": 1, "method": "anova_means"}, "n_per_group >= 2"),
        ({"cell_specs": (NORMAL,) * 3}, "exactly four DistributionSpec"),
        ({"contrast": "main_c"}, "unknown contrast 'main_c'"),
        ({"correction": "bonferroni"}, "unknown correction 'bonferroni'"),
        ({"n_sims": 0}, "n_sims must be at least 1, got 0"),
        ({"n_per_group": 0}, "n_per_group must be at least 1, got 0"),
    ])
    def test_invalid_settings_fail_when_built(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            _null_condition(**kwargs)

    def test_anova_has_no_bootstrap_config(self):
        """The ANOVA baseline draws no bootstrap, and says so, on the first
        ANOVA condition of the FWER desk grid as on any other."""
        desk = Path(__file__).resolve().parents[1] / "experiments" / "fwer_desk.json"
        anova = next(c for c in load_experiment(str(desk)) if c.method == "anova_means")
        for cond in (anova, _null_condition(method="anova_means")):
            with pytest.raises(ValueError, match="^anova_means draws no bootstrap"):
                cond.bootstrap_config()
        assert _null_condition().bootstrap_config(seed=4).seed == 4

    def test_numpy_integer_counts_pass(self):
        cond = _null_condition(n_per_group=np.int64(25), n_sims=np.int32(40),
                               n_boot=np.int64(400), seed=np.uint32(5))
        assert cond == _null_condition()

    @pytest.mark.parametrize("method, given, expected", [
        ("decinter_hd", None, DECILES),
        ("decinter_t7", None, DECILES),
        ("iband_hd", None, IBAND_QUANTILES),
        ("iband_t7", None, IBAND_QUANTILES),
        ("anova_means", None, ()),
        ("anova_means", [0.25, 0.75], ()),
        ("decinter_t7", [0.25, 0.75], (0.25, 0.75)),
        ("iband_hd", (1 / 3, 0.5), (1 / 3, 0.5)),
    ])
    def test_quantile_family_resolved_when_built(self, method, given, expected):
        cond = _null_condition(method=method, quantiles=given)
        assert cond.quantiles == expected
        assert all(type(q) is float for q in cond.quantiles)


class TestRuns:
    def test_small_cells_do_not_warn_per_iteration(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep([_null_condition(n_per_group=10, n_sims=20)])
        assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == []

    def test_report_shape(self):
        [rep] = sweep([_null_condition(n_sims=30)])
        assert 0.0 <= rep.rate <= 1.0
        assert rep.rate <= rep.rate_uncorrected
        assert len(rep.per_quantile_rates) == 9
        assert rep.n_sims == 30
        assert rep.se == pytest.approx(np.sqrt(rep.rate * (1 - rep.rate) / 30))

    def test_anova_report_has_no_quantile_rates(self):
        [rep] = sweep([_null_condition(method="anova_means", n_sims=30)])
        assert rep.per_quantile_rates == ()

    def test_worker_count_does_not_change_results(self):
        cond = _null_condition(n_sims=60)
        assert sweep([cond], workers=1) == sweep([cond], workers=2)

    def test_bh_power_dominates_hochberg(self):
        shifted = _null_condition(
            cell_specs=(NORMAL,) * 3 + (DistributionSpec("normal", shift=0.55),),
            n_per_group=40, n_sims=200, n_boot=400, seed=7,
        )
        bh, hoch = sweep([shifted, replace(shifted, correction="hochberg")])
        # same seed means the same simulated data, where BH rejection sets
        # contain Hochberg's, so the dominance is deterministic
        assert bh.rate >= hoch.rate

    def test_bh_decision_is_the_tables_adjusted_pvalue(self, monkeypatch):
        """On the bootstrap's p = M/B lattice, a sweep rejects where p.adj <= alpha.

        Three deciles at 2/600 and six at .5: BH adjusts the three to
        exactly 0.01, so the table reports them rejected at alpha = .01.
        A step-up scan in the form 9 p <= (9 - k + 1) alpha rounds the
        other way at k = 7 and rejects none.
        """
        pvals = np.array([2 / 600] * 3 + [0.5] * 6)
        monkeypatch.setattr(qshift.simulation, "signed_pvalue", lambda _: pvals.copy())
        cond = _null_condition(method="decinter_t7", alpha=0.01, correction="bh",
                               n_boot=600, n_sims=1)
        [rep] = sweep([cond])
        assert adjust_pvalues(pvals, "bh")[0] <= 0.01
        assert rep.rate == rep.rate_uncorrected == 1.0
        assert rep.per_quantile_rates == (1.0,) * 3 + (0.0,) * 6

    def test_anova_unit_decides_through_adjust_pvalues(self, monkeypatch):
        """An ANOVA unit decides each condition as every other method does:
        one ``adjust_pvalues`` call, with the condition's correction, on its
        (n_sims, 1) matrix, whose rows are the lone test's p-values of the
        condition's contrast in iteration order."""
        calls = []

        def recording(p, method):
            calls.append((p.copy(), method))
            return adjust_pvalues(p, method)

        monkeypatch.setattr(qshift.simulation, "adjust_pvalues", recording)
        unit = [_null_condition(method="anova_means", contrast=contrast, correction=correction,
                                n_per_group=6, n_sims=8, name=contrast)
                for contrast, correction in ((INTERACTION, "bh"), (MAIN_A, "hochberg"),
                                             (MAIN_B, "none"))]
        sweep(unit)
        lone = np.array([anova_f_test([
            qshift.distributions.generate(spec, 6, stream(5, "data", i, c))
            for c, spec in enumerate(unit[0].cell_specs)]) for i in range(8)])
        assert [method for _, method in calls] == ["bh", "hochberg", "none"]
        for (p, _), column in zip(calls, (2, 0, 1)):
            assert p.tolist() == lone[:, [column]].tolist()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_decides_each_condition_once(self, monkeypatch, workers):
        """The chunks only compute p-values: the sweep calls ``adjust_pvalues``
        once per condition, in this process, on its (n_sims, C) matrix, at
        any worker count."""
        calls = []

        def recording(p, method):
            calls.append((p.shape, method))
            return adjust_pvalues(p, method)

        monkeypatch.setattr(qshift.simulation, "adjust_pvalues", recording)
        decinter_unit = [_null_condition(method=method, correction=correction, n_per_group=10,
                                         n_sims=8, n_boot=100, name=method)
                         for method, correction in (("decinter_hd", "bh"),
                                                    ("decinter_t7", "hochberg"))]
        anova_unit = [_null_condition(method="anova_means", contrast=contrast, correction="bh",
                                      n_per_group=6, n_sims=6, name=contrast)
                      for contrast in (INTERACTION, MAIN_A, MAIN_B)]
        conditions = decinter_unit + anova_unit
        assert len(qshift.simulation._units(conditions)) == 2
        reports = sweep(conditions, workers)
        assert not any(r.error for r in reports)
        assert calls == [((8, 9), "bh"), ((8, 9), "hochberg")] + [((6, 1), "bh")] * 3

    def test_sweep_determinism_and_failure_isolation(self):
        good = _null_condition(n_sims=20)
        reports = sweep([good, good], workers=2)
        assert reports[0] == reports[1]
        assert not any(r.error for r in reports)

    def test_draws_beyond_the_sample_bound_fail_every_method(self):
        # iteration 4 of seed 0 draws an infinity into cell (1,2)
        spec = DistributionSpec("g_and_h", h=100.0)
        conditions = [_null_condition(cell_specs=(spec,) * 4, n_per_group=30, method=m,
                                      n_sims=5, n_boot=100, seed=0, name=m)
                      for m in qshift.simulation.METHODS]
        message = f"ValueError: {spec} draw contains NaN or infinite values"
        for cond in conditions:
            assert sweep([cond])[0].error == message, cond.method
        # swept together, the hd and t7 variants of each family share a unit
        assert [rep.error for rep in sweep(conditions)] == [
            f"{message} (shared with decinter_t7)", f"{message} (shared with decinter_hd)",
            f"{message} (shared with iband_t7)", f"{message} (shared with iband_hd)", message]

    def test_sweep_isolates_a_failing_condition(self):
        good = _null_condition(n_sims=20)
        baseline = _null_condition(method="anova_means", n_sims=20, name="anova")
        degenerate = _degenerate_anova()
        before, failed, after = sweep([good, degenerate, baseline], workers=2)
        assert failed.error.startswith("DegenerateDataError")
        assert np.isnan(failed.rate) and np.isnan(failed.se)
        assert failed.per_quantile_rates == ()
        assert [before, after] == sweep([good, baseline])

    def test_parallel_sweep_equals_serial(self):
        conditions = [
            _null_condition(n_sims=9, name="decinter"),
            _null_condition(cell_specs=(DistributionSpec("poisson", mean=9.0),) * 4,
                            method="iband_t7", n_sims=7, name="iband-poisson"),
            _null_condition(method="anova_means", n_sims=11, name="anova"),
            _degenerate_anova(),
        ]
        serial = sweep(conditions, workers=1)
        t0 = time.perf_counter()
        parallel = sweep(conditions, workers=2)
        elapsed = time.perf_counter() - t0
        assert [r.error is None for r in parallel] == [True, True, True, False]
        assert parallel[:3] == serial[:3]  # NaN rates compare unequal; the rows do not
        assert report_csv_rows(parallel) == report_csv_rows(serial)
        assert all(r.wall_time >= 0.0 for r in parallel)
        assert sum(r.wall_time for r in parallel) <= elapsed

    def test_one_pool_per_sweep(self, pools):
        conditions = [_null_condition(n_sims=4, name=f"c{i}", seed=i) for i in range(3)]
        sweep(conditions, workers=1)
        assert pools == []
        sweep(conditions, workers=2)
        assert pools == [2]

    def test_pool_never_exceeds_largest_n_sims(self, pools):
        sweep([_null_condition(n_sims=1, name="one")], workers=2)
        assert pools == []
        sweep([_null_condition(n_sims=1, name="one"), _null_condition(n_sims=2)], workers=3)
        assert pools == [2]

    def test_dead_worker_fails_only_its_condition(self, monkeypatch):
        iterate = qshift.simulation._iterate

        def dying_iterate(cond, i, siblings=()):
            if cond.name == "dies":
                os._exit(1)  # a worker killed mid-chunk, as by the OOM killer
            return iterate(cond, i, siblings=())

        # forked workers inherit the patched module
        monkeypatch.setattr(qshift.simulation, "_iterate", dying_iterate)
        before = _null_condition(n_sims=6, name="before")
        # its own seed: a unit of its own, not shared with "after"
        dies = _null_condition(method="anova_means", n_sims=6, seed=6, name="dies")
        after = _null_condition(method="anova_means", n_sims=6, name="after")
        reports = sweep([before, dies, after], workers=2)
        assert reports[1].error.startswith("BrokenProcessPool")
        assert np.isnan(reports[1].rate)
        assert [reports[0], reports[2]] == sweep([before, after])

    def test_dead_worker_while_an_earlier_condition_runs(self, monkeypatch, tmp_path, pools):
        iterate = qshift.simulation._iterate
        started, died = tmp_path / "started", tmp_path / "died"

        def wait_for(path):
            deadline = time.monotonic() + 30.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.005)

        def iterate_or_die(cond, i, siblings=()):
            if cond.name == "dies":
                wait_for(started)  # the earlier condition's last chunk is running
                died.touch()
                os._exit(1)
            if cond.name == "slow" and i == cond.n_sims - 1 and not died.exists():
                started.touch()
                wait_for(died)
                time.sleep(1.0)  # still running when the pool breaks
            return iterate(cond, i, siblings=())

        monkeypatch.setattr(qshift.simulation, "_iterate", iterate_or_die)
        slow = _null_condition(method="anova_means", n_sims=4, name="slow")
        dies = _null_condition(method="anova_means", n_sims=4, seed=6, name="dies")
        after = _null_condition(n_sims=4, name="after")
        reports = sweep([slow, dies, after], workers=2)
        # the first pool broke under the slow condition, which was rerun
        # alone (pool 2); the dying one broke pool 2 and its rerun (pool 3)
        assert pools == [2, 2, 2, 2]
        assert [reports[0], reports[2]] == sweep([slow, after])
        assert reports[1].error.startswith("BrokenProcessPool")
        assert np.isnan(reports[1].rate)

    def test_reports_come_in_order_after_a_slow_first_condition(self, monkeypatch):
        iterate = qshift.simulation._iterate

        def slow_iterate(cond, i, siblings=()):
            if cond.name == "slow":
                time.sleep(0.05)
            return iterate(cond, i, siblings=())

        monkeypatch.setattr(qshift.simulation, "_iterate", slow_iterate)
        conditions = [
            _null_condition(method="decinter_t7", n_sims=8, name="slow"),
            _degenerate_anova(),
            _null_condition(method="anova_means", n_sims=11, name="fast"),
        ]
        serial = sweep(conditions, workers=1)
        calls = []
        t0 = time.perf_counter()
        parallel = sweep(conditions, workers=2,
                         progress=lambda i, cond, rep: calls.append((i, cond.name)))
        elapsed = time.perf_counter() - t0
        assert calls == [(0, "slow"), (1, "degenerate"), (2, "fast")]
        assert parallel[1].error.startswith("DegenerateDataError")
        assert parallel[0] == serial[0] and parallel[2] == serial[2]
        assert all(r.wall_time >= 0.0 for r in parallel)
        assert sum(r.wall_time for r in parallel) <= elapsed

    @pytest.mark.parametrize("names", [("before", "anova", "dies"), ("dies",)])
    def test_dead_worker_in_the_last_condition(self, monkeypatch, tmp_path, pools, names):
        iterate = qshift.simulation._iterate
        reported = [tmp_path / name for name in names[:-1]]

        def dying_iterate(cond, i, siblings=()):
            if cond.name == "dies":
                # die only once every earlier unit is reported, so that none
                # of their chunks is lost with the pool and rerun
                deadline = time.monotonic() + 60.0
                while not all(p.exists() for p in reported) and time.monotonic() < deadline:
                    time.sleep(0.005)
                os._exit(1)
            return iterate(cond, i, siblings=())

        monkeypatch.setattr(qshift.simulation, "_iterate", dying_iterate)
        methods = {"before": "decinter_t7", "anova": "anova_means", "dies": "anova_means"}
        seeds = {"before": 5, "anova": 5, "dies": 6}
        conditions = [_null_condition(method=methods[name], n_sims=6, n_boot=100,
                                      seed=seeds[name], name=name)
                      for name in names]
        reports = sweep(conditions, workers=2,
                        progress=lambda i, cond, rep: (tmp_path / cond.name).touch())
        # nothing is queued after it, yet the condition is rerun once on a
        # fresh pool, which breaks too
        assert pools == [2, 2]
        assert reports[-1].error.startswith("BrokenProcessPool")
        assert np.isnan(reports[-1].rate)
        assert reports[:-1] == [sweep([cond], workers=1)[0] for cond in conditions[:-1]]

    def test_dead_worker_fails_its_whole_unit(self, monkeypatch, pools):
        iterate = qshift.simulation._iterate

        def dying_iterate(cond, i, siblings=()):
            if any(member.name == "dies" for member in (cond, *siblings)):
                os._exit(1)
            return iterate(cond, i, siblings)

        monkeypatch.setattr(qshift.simulation, "_iterate", dying_iterate)
        sibling = _null_condition(method="anova_means", n_sims=6, name="sibling")
        after = _null_condition(method="anova_means", n_sims=6, seed=6, name="after")
        dies = _null_condition(method="anova_means", contrast=MAIN_A, n_sims=6, name="dies")
        reports = sweep([sibling, after, dies], workers=2)
        # the unit broke its pool and its rerun's; "after" ran on a third
        assert pools == [2, 2, 2]
        assert reports[0].error.startswith("BrokenProcessPool")
        assert reports[0].error.endswith(" (shared with dies)")
        assert reports[2].error == reports[0].error.replace("(shared with dies)",
                                                            "(shared with sibling)")
        assert np.isnan(reports[0].rate) and np.isnan(reports[2].rate)
        assert reports[1] == sweep([after], workers=1)[0]

    def test_sharing_a_unit_changes_no_bit(self):
        """Siblings anywhere in the list share each iteration's data,
        resamples and sort, yet each reports what it reports alone."""
        poisson = (DistributionSpec("poisson", mean=9.0),) * 4
        small = dict(n_per_group=20, n_boot=200, n_sims=6)
        conditions = [
            _null_condition(**small, name="hd"),
            _null_condition(method="anova_means", contrast=MAIN_A, n_sims=6, name="anova-a"),
            _null_condition(method="iband_hd", cell_specs=poisson, **small, name="tied-hd"),
            _null_condition(method="decinter_t7", **small, name="t7"),
            _null_condition(contrast=MAIN_A, **small, name="main-a"),
            _null_condition(method="decinter_t7", contrast=MAIN_B, alpha=0.1,
                            correction="hochberg", **small, name="main-b"),
            _null_condition(method="iband_t7", cell_specs=poisson, **small, name="tied-t7"),
            # two sort threads in a serial sweep on two CPUs or more
            _null_condition(method="iband_hd", n_per_group=100, n_boot=600, n_sims=2,
                            name="continuous-hd"),
            _null_condition(method="iband_t7", n_per_group=100, n_boot=600, n_sims=2,
                            name="continuous-t7"),
            _null_condition(method="anova_means", n_sims=6, name="anova-ab"),
            _null_condition(method="decinter_t7", **small, seed=9, name="lone"),
        ]
        assert [len(u) for u in qshift.simulation._units(conditions)] == [4, 2, 2, 2, 1]
        alone = [sweep([cond], workers=1)[0] for cond in conditions]
        for workers in (1, 2):
            calls = []
            t0 = time.perf_counter()
            reports = sweep(conditions, workers, progress=lambda i, cond, rep: calls.append(i))
            elapsed = time.perf_counter() - t0
            assert reports == alone
            assert calls == list(range(len(conditions)))
            assert all(r.wall_time > 0.0 for r in reports)
            assert sum(r.wall_time for r in reports) <= elapsed

    @pytest.mark.parametrize("n_sims", [1, 7, 40])
    def test_anova_chunks_match_lone_tests_per_iteration(self, n_sims):
        """A chunk turns all its iterations' F statistics into p-values in
        one call; every member of a unit mixing contrasts and alphas gets
        the rates of one lone anova_f_test per iteration, however the
        iterations are chunked."""
        shifted = tuple(replace(NORMAL, shift=d) for d in (0.0, 0.5, 0.3, 0.0))
        conditions = [
            _null_condition(cell_specs=shifted, method="anova_means", n_per_group=12,
                            contrast=contrast, alpha=alpha, n_sims=n_sims,
                            name=f"{contrast}-{alpha}")
            for contrast in (MAIN_A, MAIN_B, INTERACTION) for alpha in (0.05, 0.3)
        ]
        assert len(qshift.simulation._units(conditions)) == 1
        expected = [anova_rates(cond) for cond in conditions]
        if n_sims == 40:
            assert len({rate for rate, _, _ in expected}) > 2
        for workers in (1, 2):
            reports = sweep(conditions, workers)
            assert [(r.rate, r.se, r.rate_uncorrected) for r in reports] == expected
            assert all(r.error is None and r.per_quantile_rates == () for r in reports)

    def test_degenerate_iteration_inside_a_chunk_fails_the_unit(self):
        """Iteration 6 of this Poisson(0.2) condition has constant cells;
        iterations 0-5 and 7 do not.  The chunk 4..7 of a serial sweep of
        16 iterations fails at it, with the lone test's message."""
        spec = DistributionSpec("poisson", mean=0.2)
        unit = tuple(_null_condition(cell_specs=(spec,) * 4, method="anova_means",
                                     n_per_group=3, n_sims=16, seed=0, contrast=contrast,
                                     name=contrast)
                     for contrast in (INTERACTION, MAIN_A))
        message = "zero within-cell variance; F statistics are undefined"
        assert qshift.simulation._chunks(unit, 1)[1][1:] == (4, 8)
        qshift.simulation._run_chunk((unit, 0, 6))
        qshift.simulation._run_chunk((unit, 7, 8))
        for start in (4, 5):
            with pytest.raises(DegenerateDataError, match=message):
                qshift.simulation._run_chunk((unit, start, 8))
        for workers in (1, 2):
            assert [r.error for r in sweep(unit, workers)] == [
                f"DegenerateDataError: {message} (shared with {MAIN_A})",
                f"DegenerateDataError: {message} (shared with {INTERACTION})"]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="sweep needs at least one condition"):
            sweep([])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            sweep([_null_condition(n_sims=2)], workers=workers)

    @pytest.mark.parametrize("workers", [1.9, 2.0, "2", True])
    def test_non_integer_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer"):
            sweep([_null_condition(n_sims=2)], workers=workers)

    def test_numpy_integer_workers_pass(self):
        cond = _null_condition(method="anova_means", n_sims=4)
        assert sweep([cond], workers=np.int64(2)) == sweep([cond], workers=1)

    def test_uncorrected_family_needs_no_correction(self):
        shifted = _null_condition(
            cell_specs=(NORMAL,) * 3 + (DistributionSpec("normal", shift=1.0),),
            correction="none", n_sims=30)
        [rep] = sweep([shifted])
        assert rep.rate == rep.rate_uncorrected > 0.0

    def test_per_decile_rates_narrow_with_n(self):
        """Uncorrected per-decile rates approach the nominal level as cells grow.

        Runs the full n-grid 20, 30, ..., 100 through a sweep at desk scale
        and compares the endpoints' mean absolute deviation from .05.
        """
        conditions = load_experiment({
            "seed": 42,
            "conditions": [{
                "name": "grid", "method": "decinter_hd",
                "n_per_group": list(range(20, 101, 10)),
                "cells": {"kind": "normal"}, "n_sims": 400, "n_boot": 600,
            }],
        })
        reports = sweep(conditions, workers=2)
        assert not any(r.error for r in reports)
        mads = {
            r.condition.n_per_group:
                float(np.mean(np.abs(np.array(r.per_quantile_rates) - 0.05)))
            for r in reports
        }
        assert mads[100] < mads[20]


class TestExperimentFiles:
    def test_load_and_expand_grid(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("""
        {
          "seed": 11,
          "defaults": {"n_sims": 10, "n_boot": 200, "alpha": 0.05},
          "conditions": [
            {"name": "null-normal", "method": ["decinter_hd", "anova_means"],
             "n_per_group": [20, 30], "cells": {"kind": "normal"}}
          ]
        }
        """)
        conds = load_experiment(str(path))
        assert len(conds) == 4
        assert {c.name for c in conds} == {
            "null-normal-decinter_hd-n20", "null-normal-decinter_hd-n30",
            "null-normal-anova_means-n20", "null-normal-anova_means-n30",
        }
        assert all(c.seed == 11 for c in conds)
        assert load_experiment(str(path)) == conds

    def test_cells_list_and_shifts(self):
        conds = load_experiment({
            "conditions": [{
                "name": "p", "method": "decinter_hd", "n_per_group": 30,
                "cells": {"kind": "lognormal"}, "shifts": [0, 0, 0, 0.5],
                "n_sims": 5, "n_boot": 200,
            }]
        })
        assert conds[0].cell_specs[3].shift == 0.5
        assert conds[0].mode == "power"

    @pytest.mark.parametrize("bad", [
        {},
        {"conditions": []},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10}]},
        {"conditions": [{"method": "warp", "n_per_group": 10, "cells": {"kind": "normal"}}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal", "spread": 2}}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "bogus": 1}]},
        {"mystery": 1, "conditions": [{"method": "decinter_hd", "n_per_group": 10,
                                       "cells": {"kind": "normal"}}]},
        {"conditions": [{"method": [], "n_per_group": 10, "cells": {"kind": "normal"}}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": [],
                         "cells": {"kind": "normal"}}]},
        # settings SimCondition rejects when built
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "alpha": 1.5}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "n_boot": 20, "alpha": 0.05}]},
        {"conditions": [{"method": "anova_means", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "seed": -1}]},
        {"seed": -1, "conditions": [{"method": "decinter_hd", "n_per_group": 10,
                                     "cells": {"kind": "normal"}}]},
        # counts must be JSON integers
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10.7,
                         "cells": {"kind": "normal"}}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "n_sims": 2.9}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "n_boot": "600"}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "seed": True}]},
        {"seed": 1.5, "conditions": [{"method": "anova_means", "n_per_group": 10,
                                      "cells": {"kind": "normal"}}]},
        {"conditions": [{"method": "anova_means", "n_per_group": 1,
                         "cells": {"kind": "normal"}}]},
        # shifts are numbers, names are unique, cell_specs comes from 'cells'
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "shifts": [0, 0, 0, "a"]}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "shifts": [0, 0, 0, None]}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": [10, 10],
                         "cells": {"kind": "normal"}}]},
        {"conditions": [{"name": "x", "method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}}] * 2},
        {"defaults": {"name": "x"},
         "conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}}] * 2},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "cell_specs": []}]},
        # shifts are numbers, not bools or numeric strings; nbin is an integer
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "shifts": [0, 0, True, "0.5"]}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "shifts": [0, 0, 0, "0.5"]}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal"}, "shifts": [0, 0, 0, True]}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "beta_binomial", "nbin": 10.5}}]},
        {"conditions": [{"method": "decinter_hd", "n_per_group": 10,
                         "cells": {"kind": "normal", "shift": True}}]},
        {"defaults": [{"n_sims": 10}], "conditions": [{"method": "decinter_hd",
                                                       "n_per_group": 10,
                                                       "cells": {"kind": "normal"}}]},
    ])
    def test_invalid_experiments(self, bad):
        with pytest.raises(ExperimentError):
            load_experiment(bad)

    @pytest.mark.parametrize("change, message", [
        ({"bogus": 1}, "unexpected keyword argument 'bogus'"),
        ({"cell_specs": []}, "multiple values for keyword argument 'cell_specs'"),
        ({"cells": {"kind": "normal", "spread": 2}}, "unexpected keyword argument 'spread'"),
        ({"cells": {"mean": 3.0}}, "missing 1 required positional argument: 'kind'"),
        ({"cells": None}, "missing 'cells'"),
        ({"shifts": [0, 0, 0, "a"]}, "could not convert string to float"),
        ({"shifts": [0, 0, 0, None]}, "float"),
        ({"n_per_group": [10, 10]}, "condition name 'x-n10' is used twice"),
        ({"name": "good"}, "condition name 'good' is used twice"),
        ({"mode": "power"}, "declared mode 'power'"),
        ({"cells": [{"kind": "normal"}] * 3}, "'cells' must be one spec or a list of four"),
        ({"cells": "normal"}, "'cells' must be one spec or a list of four"),
        ({"shifts": [0, 0, 1]}, "'shifts' must list four numbers"),
        ({"shifts": 1.0}, "'shifts' must list four numbers"),
        ({"cells": {"kind": "normal", "mean": 5.0}}, "normal does not read mean, got mean=5.0"),
        ({"cells": [{"kind": "normal"}] * 3 + [{"kind": "poisson", "mean": 3.0, "nbin": 4}]},
         "poisson does not read nbin, got nbin=4"),
        # numpy would refuse these only while the sweep draws
        ({"cells": {"kind": "beta_binomial", "nbin": 2**63 + 1}}, "2 <= nbin <= 2**63"),
        ({"cells": {"kind": "poisson", "mean": 9.3e18}}, "at most 9.223372006484771e+18"),
    ])
    def test_bad_entry_names_its_index(self, change, message):
        good = {"name": "good", "method": "anova_means", "n_per_group": 10,
                "cells": {"kind": "normal"}}
        bad = {**good, "name": "x", **change}
        with pytest.raises(ExperimentError, match=re.escape("conditions[1]: ") + ".*"
                           + re.escape(message)):
            load_experiment({"conditions": [good, bad]})

    def test_unread_parameter_error_starts_with_its_entry(self):
        """A parameter its kind never reads would make a null entry a
        power condition that draws exactly the null cells."""
        entry = {"method": "anova_means", "n_per_group": 10,
                 "cells": {"kind": "lognormal", "g": 0.5}}
        with pytest.raises(ExperimentError,
                           match=r"^conditions\[0\]: lognormal does not read g, got g=0\.5$"):
            load_experiment({"conditions": [entry]})

    def test_empty_grid_list_names_its_entry(self):
        good = {"method": "anova_means", "n_per_group": 10, "cells": {"kind": "normal"}}
        with pytest.raises(ExperimentError, match=r"conditions\[1\].*'method'"):
            load_experiment({"conditions": [good, {**good, "method": []}, good]})

    def test_omitted_fields_take_condition_defaults(self):
        conds = load_experiment({"conditions": [{
            "name": "d", "method": "iband_t7", "n_per_group": 12,
            "cells": {"kind": "poisson", "mean": 3.0}}]})
        assert conds == [SimCondition(
            cell_specs=(DistributionSpec("poisson", mean=3.0),) * 4,
            n_per_group=12, method="iband_t7", name="d")]

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text('[{"method": "anova_means"}]')
        with pytest.raises(ExperimentError, match="must hold a JSON object"):
            load_experiment(str(path))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError):
            load_experiment(str(path))

    def test_declared_mode_must_match_populations(self):
        with pytest.raises(ExperimentError, match="mode"):
            load_experiment({
                "conditions": [{
                    "name": "x", "mode": "power", "method": "decinter_hd",
                    "n_per_group": 20, "cells": {"kind": "normal"},
                }],
            })

    def test_bundled_experiment_files_load(self):
        root = Path(__file__).resolve().parent.parent / "experiments"
        for name in ("fwer_desk.json", "power_desk.json"):
            conditions = load_experiment(str(root / name))
            assert len(conditions) > 10
            assert len({c.name for c in conditions}) == len(conditions)


class TestReportSerialization:
    def test_csv_rows_and_metadata(self):
        [rep] = sweep([_null_condition(n_sims=10)])
        rows = report_csv_rows([rep])
        assert rows[0][0] == "null"
        assert rows[0][1] == "fwer"
        assert float(rows[0][11]) == rep.rate
        meta = report_metadata([rep])
        assert meta["schema_version"] == 1
        assert "mixed_normal_form" in meta["design_flags"]
        assert meta["failed_conditions"] == []

    def test_metadata_run_block(self):
        reports = sweep([_null_condition(n_sims=4), _degenerate_anova()], workers=2)
        run = report_metadata(reports, workers=2)["run"]
        assert run["qshift_version"] == qshift.__version__
        assert run["numpy_version"] == np.__version__
        assert re.fullmatch(r"3\.\d+\.\d+.*", run["python_version"])
        assert run["blas"] is None or isinstance(run["blas"], str)
        assert run["workers"] == 2
        ok, failed = run["conditions"]
        assert ok["name"] == "null" and ok["wall_time_s"] == reports[0].wall_time > 0
        assert ok["iters_per_s"] == pytest.approx(4 / reports[0].wall_time)
        assert failed == {"name": "degenerate", "wall_time_s": 0.0, "iters_per_s": None}

    @pytest.mark.parametrize("workers", [1.9, "2", True, 0, -1])
    def test_metadata_rejects_a_worker_count_sweep_rejects(self, workers):
        [report] = sweep([_null_condition(method="anova_means", n_sims=2)])
        with pytest.raises(ValueError, match="workers must be"):
            report_metadata([report], workers=workers)

    def test_metadata_worker_count_is_a_json_integer_or_null(self):
        [report] = sweep([_null_condition(method="anova_means", n_sims=2)])
        assert report_metadata([report])["run"]["workers"] is None
        run = json.loads(json.dumps(report_metadata([report], workers=np.int64(3))["run"]))
        assert run["workers"] == 3

    def test_metadata_records_blas_threads(self, monkeypatch, tmp_path):
        """blas_threads is the loaded scipy-openblas library's own count,
        which ``qshift simulate`` sets to 1 whatever OPENBLAS_NUM_THREADS
        says, and null where no such library is loaded; the CSV bytes do
        not depend on it."""
        loaded = qshift.simulation._blas_threads() is not None
        experiment = tmp_path / "exp.json"
        experiment.write_text(json.dumps({
            "defaults": {"n_sims": 3, "n_boot": 200},
            "conditions": [{"method": ["decinter_hd", "anova_means"], "n_per_group": 10,
                            "cells": {"kind": "normal"}}]}))
        src = str(Path(qshift.__file__).resolve().parents[1])
        runs = []
        for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env.update(extra, PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))))
            meta = tmp_path / f"meta-{len(runs)}.json"
            out = subprocess.run(
                [sys.executable, "-m", "qshift.cli", "simulate", str(experiment),
                 "--threads", "1", "--metadata", str(meta)],
                env=env, check=True, capture_output=True, timeout=120)
            runs.append((out.stdout, json.loads(meta.read_text())["run"]["blas_threads"]))
        (csv_one, threads_one), (csv_default, threads_default) = runs
        assert csv_one == csv_default
        assert threads_one == threads_default == (1 if loaded else None)
        [report] = sweep([_null_condition(method="anova_means", n_sims=2)])
        # a fresh cache of the lookup, so the name it scans for is read again
        monkeypatch.setattr(qshift.simulation, "_OPENBLAS", "libno_such_blas_")
        monkeypatch.setattr(qshift.simulation, "_openblas",
                            functools.cache(qshift.simulation._openblas.__wrapped__))
        assert report_metadata([report])["run"]["blas_threads"] is None

    def test_anova_rows_leave_bootstrap_cells_empty(self):
        conditions = load_experiment({
            "defaults": {"n_sims": 4, "n_boot": 600},
            "conditions": [{"name": "null", "method": ["decinter_hd", "anova_means"],
                            "n_per_group": 20, "cells": {"kind": "normal"}}],
        })
        rows = [dict(zip(REPORT_COLUMNS, row)) for row in report_csv_rows(sweep(conditions))]
        assert [(r["method"], r["n_boot"], r["quantiles"]) for r in rows] == [
            ("decinter_hd", "600", "0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9"),
            ("anova_means", "", ""),
        ]
