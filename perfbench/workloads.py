"""The benchmark's workloads and the inputs each one generates from its seed.

Every workload runs both user paths, because every end-to-end metric is
reported on every workload: an analysis session (``decinter``, ``plotdata``
and ``iband --ph`` through ``qshift.cli.main``) and a simulation sweep
(``qshift.simulation.sweep`` at ``workers = nproc`` and at ``workers = 1``).
The workload decides the inputs and where the measuring time goes.  The
secondary part of each workload keeps the primary part's input property
(continuous or integer-valued cells), so a change that acts only on one
property still has one workload where the prediction is no change.
"""

import dataclasses
import os

# one analysis cycle; iband is ~10x slower than the others, so it runs once
# per cycle and the cheaper commands three times
CYCLE = ("decinter", "plotdata", "decinter", "plotdata", "decinter", "plotdata", "iband")

METHODS = ("decinter_hd", "decinter_t7", "iband_hd", "iband_t7", "anova_means")

# fixed ladder for the tail percentile: the highest rung with at least ten
# samples beyond it at the guaranteed minimum sample count
TAIL_LADDER = (99, 95, 90, 75, 50)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: str          # analysis data: "lognormal", "ties" or "normal"
    n: int              # analysis cell size
    n_boot: int         # analysis bootstrap replicates
    grid: str           # sweep conditions: "desk", "probe-lognormal" or "probe-ties"
    k: int              # iterations per sweep condition
    group_size: int     # conditions swept at a time, at nproc and then serially
    min_cycles: int     # analysis cycles per session, at least
    min_passes: int     # passes over all condition groups per session, at least
    trace_cycles: int   # analysis cycles of the traced run


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "analyze-continuous",
            "analyst path on lognormal cells, n=100, B=2000: pairwise and the "
            "bootstrap-sort-quantiles chain do the work; no ties",
            cells="lognormal", n=100, n_boot=2000,
            grid="probe-lognormal", k=32, group_size=1,
            min_cycles=14, min_passes=2, trace_cycles=4,
        ),
        Workload(
            "analyze-ties",
            "same analyst path on integer cells (Poisson(9) at A1, beta-binomial "
            "at A2): few distinct values and exact-zero replicates",
            cells="ties", n=100, n_boot=2000,
            grid="probe-ties", k=32, group_size=1,
            min_cycles=14, min_passes=2, trace_cycles=4,
        ),
        Workload(
            "sweep-fwer-desk",
            "methodologist path: all 52 fwer_desk conditions cut to k iterations, "
            "many small bootstraps, pool start-up, ANOVA F tail",
            cells="normal", n=30, n_boot=600,
            grid="desk", k=3, group_size=4,
            min_cycles=26, min_passes=2, trace_cycles=4,
        ),
    )
}


def tail_percentile(min_samples: int) -> int:
    for p in TAIL_LADDER:
        if min_samples * (100 - p) >= 10 * 100:
            return p
    raise ValueError(f"{min_samples} samples leave no tail with ten beyond it")


def analysis_cells(np, kind: str, n: int, seed: int) -> list:
    """The four cells (A1B1, A1B2, A2B1, A2B2) of the analysis data set."""
    rng = np.random.default_rng([seed, 1])
    if kind == "lognormal":
        return [rng.lognormal(0.0, 1.0, n) for _ in range(4)]
    if kind == "normal":
        return [rng.standard_normal(n) for _ in range(4)]
    if kind == "ties":
        a1 = [rng.poisson(9.0, n).astype(float) for _ in range(2)]
        a2 = [rng.binomial(9, rng.beta(1.0, 9.0, n)).astype(float) for _ in range(2)]
        return a1 + a2
    raise ValueError(f"unknown cell kind {kind!r}")


def write_csv(path: str, cells) -> None:
    labels = (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2"))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("a,b,y\n")
        for (a, b), cell in zip(labels, cells):
            for v in cell:
                fh.write(f"{a},{b},{float(v)!r}\n")


_PROBE_CELLS = {
    "probe-lognormal": {"kind": "lognormal"},
    "probe-ties": [
        {"kind": "poisson", "mean": 9.0},
        {"kind": "poisson", "mean": 9.0},
        {"kind": "beta_binomial", "r": 1.0, "s": 9.0, "nbin": 10},
        {"kind": "beta_binomial", "r": 1.0, "s": 9.0, "nbin": 10},
    ],
}


def sweep_conditions(load_experiment, grid: str, k: int, seed: int, root: str) -> list:
    """Sweep conditions cut to their first k iterations, seeded from ``seed``."""
    if grid == "desk":
        conditions = load_experiment(os.path.join(root, "experiments", "fwer_desk.json"))
    else:
        conditions = load_experiment({
            "defaults": {"n_boot": 600, "correction": "bh", "contrast": "interaction"},
            "conditions": [{"name": grid, "method": list(METHODS), "n_per_group": 30,
                            "cells": _PROBE_CELLS[grid]}],
        })
    return [dataclasses.replace(c, n_sims=k, seed=(c.seed + seed) % 2**32)
            for c in conditions]
