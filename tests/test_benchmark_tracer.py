"""The benchmark's tracer runs against the package as it stands.

``python3 perfbench/run.py`` also runs every workload traced.  The
tracer's count hooks read the positional arguments of the functions they
wrap, so a change in ``src/`` that keeps a wrapped name but changes its
arguments would crash the benchmark run.  This test drives the traced
analysis and sweep paths on small inputs to catch that, and checks that
the only boundaries the tracer cannot find are the known ones; it only
imports ``perfbench/tracing.py`` and ``perfbench/workloads.py``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from qshift import cli, simulation

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# filled in by the benchmark session from its untraced pass, not by the tracer
SESSION_METRICS = {"simulation.scaling_eff", "run.tracing_overhead_frac"}

# boundaries the tracer names that the package no longer has; a rename in
# src/ that hides another boundary from the tracer must fail here
KNOWN_MISSING = {f"qshift.{name}" for name in (
    "contrasts._bootstrap_thetas", "contrasts.adjust_pvalues", "contrasts.percentile_ci",
    "contrasts.signed_pvalue", "pairwise._cell_resample_matrices", "pairwise.adjust_pvalues",
    "pairwise.estimate_quantiles", "quantiles._hd_weights_cached", "simulation.FactorialSample",
    "simulation.bh_reject", "simulation.contrast_pvalues", "simulation.hochberg_reject",
    "simulation.iband_pvalues", "simulation.regularized_incomplete_beta",
)}


def test_traced_paths_give_every_layer_metric(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        for kind in ("lognormal", "ties"):
            csv = str(tmp_path / f"{kind}.csv")
            workloads.write_csv(csv, workloads.analysis_cells(np, kind, 30, 1))
            common = ["--input", csv, "--nboot", "100", "--seed", "1"]
            for argv in (["decinter", *common, "--format", "json"],
                         ["plotdata", *common],
                         ["iband", *common, "--ph", "--format", "json"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert tracer.operation("cli.main", cli.main, argv) == 0, argv
        conditions = workloads.sweep_conditions(
            simulation.load_experiment, "probe-lognormal", 2, 1, str(ROOT))
        # the five methods form three units: decinter hd/t7, iband hd/t7, anova
        reports = tracer.operation("simulation.sweep", simulation.sweep, conditions, 1)
        reports += tracer.operation("simulation.sweep", simulation.sweep, conditions, 2)
        tracer.collect()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= KNOWN_MISSING
    assert sorted({r.condition.method for r in reports}) == sorted(simulation.METHODS)
    assert [r.error for r in reports] == [None] * len(reports)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert per_layer - SESSION_METRICS <= set(layer_metrics(tracer))
