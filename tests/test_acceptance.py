"""Acceptance suite: one test per release criterion, at its stated scale.

Every test prints a single [C#] PASS/FAIL line with the measured numbers
(run pytest with -s to see them).  Monte Carlo criteria use fixed seeds
and the desk-scale defaults of 2,000 iterations with 600 bootstrap
replicates unless the criterion states otherwise.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qshift as qs
from qshift.quantiles import _hd_weight_matrix

from oracles import (anova_f_textbook, hd_quantile_quad, lognormal_kurtosis, sample_kurtosis,
                     transposed)

WORKERS = 2

NORMAL = qs.DistributionSpec("normal")
LOGNORMAL = qs.DistributionSpec("lognormal")
POISSON9 = qs.DistributionSpec("poisson", mean=9.0)
BETABIN = qs.DistributionSpec("beta_binomial", r=1.0, s=9.0, nbin=10)

# artifact-chosen power-study shift: a 0.55 location offset on one cell
# gives the mean-based ANOVA roughly .8 interaction power at n=100 under
# normality, separating the methods without saturating them
POWER_SHIFT = 0.55

TABLE1_P = [0.389, 0.039, 0.010, 0.008, 0.009, 0.036, 0.348, 0.775, 0.362]
TABLE1_HOCHBERG = [0.775, 0.195, 0.070, 0.070, 0.070, 0.195, 0.775, 0.775, 0.775]
TABLE2_P = [0.607, 0.165, 0.058, 0.013, 0.039]
TABLE2_HOCHBERG = [0.607, 0.330, 0.174, 0.065, 0.156]


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def _null_cond(specs, method, *, n=30, n_sims=2000, n_boot=600, seed=0,
               correction="bh", quantiles=None):
    return qs.SimCondition(
        cell_specs=(specs,) * 4, n_per_group=n, method=method,
        correction=correction, n_sims=n_sims, n_boot=n_boot, seed=seed,
        quantiles=quantiles, name=f"{specs.kind}-{method}",
    )


def test_c01_adjusted_pvalue_reproduction():
    hoch9 = qs.adjust_pvalues(TABLE1_P, "hochberg")
    bh9 = qs.adjust_pvalues(TABLE1_P, "bh")
    hoch5 = qs.adjust_pvalues(TABLE2_P, "hochberg")
    ok9 = np.allclose(hoch9, TABLE1_HOCHBERG, atol=5e-4, rtol=0)
    ok5 = np.allclose(hoch5, TABLE2_HOCHBERG, atol=5e-4, rtol=0)
    smallest = [v for p, v in zip(TABLE1_P, bh9) if p in (0.010, 0.008, 0.009)]
    ok_bh = np.allclose(smallest, [0.030] * 3, atol=5e-4, rtol=0)
    _report("C1", ok9 and ok5 and ok_bh,
            f"Hochberg 9-family {np.round(hoch9, 3).tolist()}, "
            f"5-family {np.round(hoch5, 3).tolist()}, BH trio {np.round(smallest, 3).tolist()}")
    assert ok9 and ok5 and ok_bh


@pytest.mark.slow
def test_c02_hd_oracle_equivalence():
    rng = qs.stream(424242, "c2")
    deciles = tuple(np.arange(1, 10) / 10)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        xs = rng.normal(size=n)
        for q in deciles:
            worst = max(worst, abs(qs.hd_quantile(xs, float(q))
                                   - hd_quantile_quad(xs, float(q))))
    worst_sum = 0.0
    for n in range(1, 1001):
        sums = np.array([w.sum() for _, w in _hd_weight_matrix(n, deciles).windows])
        worst_sum = max(worst_sum, float(np.max(np.abs(sums - 1.0))))
    ok = worst <= 1e-8 and worst_sum <= 1e-10
    _report("C2", ok, f"max |estimate - quadrature oracle| = {worst:.2e} "
                      f"(bound 1e-8); max |sum(w) - 1| = {worst_sum:.2e} (bound 1e-10)")
    assert ok


def test_c03_fwer_under_normality():
    rep = qs.run_fwer(_null_cond(NORMAL, "decinter_hd", seed=1001), workers=WORKERS)
    ok = rep.rate <= 0.075 and rep.rate_uncorrected <= 0.25
    _report("C3", ok, f"BH-corrected FWER = {rep.rate:.4f} (bound .075); "
                      f"uncorrected = {rep.rate_uncorrected:.4f} (bound .25)")
    assert ok


def test_c04_tie_robustness_gap():
    hd = qs.run_fwer(_null_cond(BETABIN, "decinter_hd", seed=1002), workers=WORKERS)
    t7 = qs.run_fwer(_null_cond(BETABIN, "decinter_t7", seed=1002), workers=WORKERS)
    gap = hd.rate - t7.rate
    sigma = float(np.hypot(hd.se, t7.se))
    interior_hd = float(np.mean(hd.per_quantile_rates[2:7]))
    interior_t7 = float(np.mean(t7.per_quantile_rates[2:7]))
    ok = (0.0 <= hd.rate <= 0.075) and gap > 3 * sigma and interior_hd > interior_t7
    _report("C4", ok, f"HD FWER = {hd.rate:.4f} in [0, .075]; T7 = {t7.rate:.4f}; "
                      f"gap = {gap:.4f} > 3 sigma = {3 * sigma:.4f}; interior deciles "
                      f"HD {interior_hd:.4f} > T7 {interior_t7:.4f}")
    assert ok


def test_c05_anova_baseline():
    rates = {}
    for contrast in ("main_a", "main_b", "interaction"):
        cond = qs.SimCondition(
            cell_specs=(NORMAL,) * 4, n_per_group=30, method="anova_means",
            contrast=contrast, n_sims=2000, n_boot=600, seed=1010, name=contrast,
        )
        rates[contrast] = qs.run_fwer(cond, workers=WORKERS).rate
    ok_rates = all(0.035 <= r <= 0.065 for r in rates.values())

    rng = qs.stream(55, "c5-oracle")
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 15))
        cells = [rng.normal(loc=rng.uniform(-1, 1), size=n) for _ in range(4)]
        mine, _ = qs.anova_f_statistics(cells)
        ref = anova_f_textbook([c.tolist() for c in cells])
        worst = max(worst, max(abs(m - r) for m, r in zip(mine, ref)))
    ok = ok_rates and worst <= 1e-9
    _report("C5", ok, f"null rejection rates {dict((k, round(v, 4)) for k, v in rates.items())} "
                      f"all in [.035, .065]; max |F - oracle| = {worst:.2e} (bound 1e-9)")
    assert ok


def test_c06_power_ordering():
    results = {}
    for kind, base in (("lognormal", LOGNORMAL), ("normal", NORMAL)):
        specs = (base, base, base, qs.DistributionSpec(kind, shift=POWER_SHIFT))
        for method in ("decinter_hd", "anova_means"):
            cond = qs.SimCondition(
                cell_specs=specs, n_per_group=100, method=method, correction="bh",
                n_sims=1000, n_boot=600, seed=1003, name=f"{kind}-{method}",
            )
            results[(kind, method)] = qs.run_power(cond, workers=WORKERS)
    def gap_over_sigma(a, b):
        return (a.rate - b.rate) / max(np.hypot(a.se, b.se), 1e-12)
    ln_margin = gap_over_sigma(results[("lognormal", "decinter_hd")],
                               results[("lognormal", "anova_means")])
    nm_margin = gap_over_sigma(results[("normal", "anova_means")],
                               results[("normal", "decinter_hd")])
    ok = ln_margin > 3 and nm_margin > 3
    _report("C6", ok, "familywise power: lognormal decinter "
            f"{results[('lognormal', 'decinter_hd')].rate:.3f} > anova "
            f"{results[('lognormal', 'anova_means')].rate:.3f} ({ln_margin:.1f} sigma); "
            f"normal anova {results[('normal', 'anova_means')].rate:.3f} > decinter "
            f"{results[('normal', 'decinter_hd')].rate:.3f} ({nm_margin:.1f} sigma)")
    assert ok


@pytest.mark.slow
def test_c07_iband_null_behavior():
    null = qs.run_fwer(_null_cond(NORMAL, "iband_hd", seed=1004), workers=WORKERS)
    in_band = all(0.01 <= r <= 0.075 for r in null.per_quantile_rates)
    hd = qs.run_fwer(_null_cond(POISSON9, "iband_hd", seed=1005), workers=WORKERS)
    t7 = qs.run_fwer(_null_cond(POISSON9, "iband_t7", seed=1005), workers=WORKERS)
    dominates = all(a >= b for a, b in zip(hd.per_quantile_rates, t7.per_quantile_rates))
    ok = in_band and dominates
    _report("C7", ok, f"normal per-quantile rates {np.round(null.per_quantile_rates, 4).tolist()} "
                      f"in [.01, .075]; Poisson HD {np.round(hd.per_quantile_rates, 4).tolist()} "
                      f">= T7 {np.round(t7.per_quantile_rates, 4).tolist()}")
    assert ok


def test_c08_kurtosis_diagnostic():
    analytic = lognormal_kurtosis()
    ok_const = abs(analytic - 113.9) <= 0.1
    below = 0
    reps = 200
    for rep in range(reps):
        x = qs.generate(LOGNORMAL, 20_000, qs.stream(1006, "kurt", rep))
        below += sample_kurtosis(x) < analytic
    frac = below / reps
    ok = ok_const and frac >= 0.6
    _report("C8", ok, f"closed form = {analytic:.4f} (113.9 +- .1); "
                      f"{frac:.0%} of n=20,000 estimates fall below it (need >= 60%)")
    assert ok


def test_c09_orientation_properties():
    config = qs.BootstrapConfig(n_boot=100, seed=9, quantiles=(0.25, 0.5, 0.75))
    invariant = 0
    for s in range(100):
        rng = qs.stream(1007, "inv", s)
        sample = qs.FactorialSample.from_cells(*(rng.normal(size=30) for _ in range(4)))
        direct = qs.decinter(sample, qs.INTERACTION, config)
        flipped = qs.decinter(transposed(sample), qs.INTERACTION, config)
        invariant += all(a.dif == b.dif for a, b in zip(direct, flipped))

    differs = 0
    for s in range(200):
        rng = qs.stream(1008, "orient", s)
        sample = qs.FactorialSample.from_cells(
            rng.normal(size=50), rng.normal(size=50),
            np.exp(rng.normal(size=50)), np.exp(rng.normal(size=50)),
        )
        d1 = qs.pairwise_differences(sample.cell(1, 1), sample.cell(1, 2))
        d2 = qs.pairwise_differences(sample.cell(2, 1), sample.cell(2, 2))
        direct = qs.hd_quantile(d1, 0.5) - qs.hd_quantile(d2, 0.5)
        t = transposed(sample)
        e1 = qs.pairwise_differences(t.cell(1, 1), t.cell(1, 2))
        e2 = qs.pairwise_differences(t.cell(2, 1), t.cell(2, 2))
        flipped = qs.hd_quantile(e1, 0.5) - qs.hd_quantile(e2, 0.5)
        differs += direct != flipped
    ok = invariant == 100 and differs >= 190
    _report("C9", ok, f"decinter interaction exactly interchange-invariant on "
                      f"{invariant}/100 datasets; pairwise-difference median estimates "
                      f"differ across orientations on {differs}/200 (need >= 190)")
    assert ok


def test_c10_determinism_and_speed(tmp_path):
    rng = qs.stream(1009, "c10")
    path = tmp_path / "timing.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,y\n")
        for j in (1, 2):
            for k in (1, 2):
                for v in rng.normal(size=100):
                    fh.write(f"a{j},b{k},{float(v)!r}\n")
    base = [sys.executable, "-m", "qshift.cli", "decinter", "--input", str(path),
            "--nboot", "2000", "--seed", "7"]
    # the child imports the same qshift as this process, installed or not
    src = str(Path(qs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    t0 = time.perf_counter()
    run1 = subprocess.run(base, capture_output=True, timeout=60, env=env)
    elapsed = time.perf_counter() - t0
    run2 = subprocess.run(base, capture_output=True, timeout=60, env=env)
    run3 = subprocess.run(base, capture_output=True, timeout=60, env=env)
    identical = run1.stdout == run2.stdout == run3.stdout and run1.returncode == 0
    ok = identical and elapsed <= 10.0
    _report("C10", ok, f"n=100/cell, B=2000, 9 deciles: {elapsed:.2f}s single-process "
                       f"(bound 10s); output bitwise identical across 3 runs: {identical}")
    assert ok
