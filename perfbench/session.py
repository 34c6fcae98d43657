"""One measuring session in a fresh process; ``run.py`` starts several.

Usage (normally from run.py, from the root of a checkout)::

    python3 perfbench/session.py --workload NAME --seed N --seconds S \
        --trace 0|1 --index I --out FILE [--smoke]

Set-up is timed as ``setup_s``: import, input generation, one warm-up
call of every command and a two-iteration sweep of one condition per
method.  Untraced sessions then interleave analysis cycles and condition
groups (each swept at nproc workers, then serially) until the minimum
counts are met and their time is used.  A traced session runs a fixed
amount of work untraced and then traced, and derives the per-layer
metrics from the traced pass.  Session 0 also checks its outputs against
the reference path.  The result is written to ``--out`` as JSON.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

_now = time.perf_counter


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def cold_caches(modules, tracer=None):
    """Swap every memo cache of the package for an empty one, then restore.

    A timed sweep starts as a fresh ``qshift simulate`` process would, and
    its pool workers fork with empty caches, while the analysis commands
    between sweeps keep their warm caches.
    """
    saved = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if callable(getattr(value, "cache_parameters", None)) and hasattr(value, "__wrapped__"):
                maxsize = value.cache_parameters()["maxsize"]
                saved.append((mod, name, value))
                setattr(mod, name, functools.lru_cache(maxsize=maxsize)(value.__wrapped__))
    try:
        yield
    finally:
        if tracer is not None:
            tracer.harvest_cache_stats()
        for mod, name, value in saved:
            setattr(mod, name, value)


class Session:
    def __init__(self, args):
        self.args = args
        self.w = workloads.WORKLOADS[args.workload]
        if args.smoke:
            self.w = dataclasses.replace(self.w, k=2, min_cycles=1, min_passes=1,
                                         trace_cycles=1)
        self.tmp = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.tracer = None
        self.samples = {"decinter": [], "plotdata": [], "iband": []}
        self.first = {}
        self.sweeps = []
        self.attempted = 0
        self.failures = []
        self.check_failures = []
        self.sweep_digest = None

    # --- set-up ------------------------------------------------------------

    def setup(self):
        import numpy as np

        import qshift
        import qshift.cli
        import qshift.simulation

        self.np, self.qs, self.sim = np, qshift, qshift.simulation
        self.cache_modules = [m for name, m in sys.modules.items()
                              if name.startswith("qshift.") and m is not None]
        if self.args.trace:
            from tracing import Tracer
            self.tracer = Tracer(self.tmp)
            self.tracer.install()
        w, seed = self.w, self.args.seed
        self.cells = workloads.analysis_cells(np, w.cells, w.n, seed)
        self.csv = os.path.join(self.tmp, "cells.csv")
        workloads.write_csv(self.csv, self.cells)
        common = ["--input", self.csv, "--nboot", str(w.n_boot), "--seed", str(seed)]
        self.argv = {
            "decinter": ["decinter", *common, "--contrast", "interaction",
                         "--estimator", "hd", "--format", "json"],
            "plotdata": ["plotdata", *common],
            "iband": ["iband", *common, "--ph", "--format", "json"],
        }
        self.conditions = workloads.sweep_conditions(
            qshift.simulation.load_experiment, w.grid, w.k, seed, ROOT)
        self.n_groups = -(-len(self.conditions) // w.group_size)
        self.warm_analysis()
        # two iterations, so that nproc workers really start a pool
        warm = {}
        for c in self.conditions:
            warm.setdefault(c.method, dataclasses.replace(c, n_sims=2))
        qshift.simulation.sweep(list(warm.values()), workers=_nproc())
        return _now() - _T0

    def warm_analysis(self):
        """One untimed call of each command, filling the caches in use."""
        for cmd in self.argv:
            self.cli(cmd, record=False)

    # --- operations ----------------------------------------------------------

    def _op(self, name, fn, *args):
        if self.tracer is not None and self.tracer.installed:
            return self.tracer.operation(name, fn, *args)
        return fn(*args)

    def cli(self, cmd: str, record: bool = True) -> float:
        buf = io.StringIO()
        t = _now()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self._op("cli.main", self.qs.cli.main, self.argv[cmd])
        except (Exception, SystemExit) as exc:  # a failed operation, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        dt = _now() - t
        out = buf.getvalue()
        if record:
            self.attempted += 1
        if rc != 0:
            self.failures.append(f"{cmd}: exit {rc}")
        elif cmd not in self.first:
            self.first[cmd] = out
        elif out != self.first[cmd]:
            self.check_failures.append(f"{cmd}: output differs between repeats")
        return dt

    def sweep(self, conditions, workers: int):
        with cold_caches(self.cache_modules, self.tracer):
            t = _now()
            reports = self._op("simulation.sweep", self.sim.sweep, conditions, workers)
            dt = _now() - t
        if self.tracer is not None:
            self.tracer.collect()
        self.attempted += len(reports)
        self.failures.extend(f"sweep {r.condition.name}: {r.error}" for r in reports if r.error)
        return dt, reports

    def group(self, index: int) -> None:
        """Sweep one group of conditions at ``workers = nproc``, then serially.

        A pass over every group gives one sample of each sweep metric.
        """
        size = self.w.group_size
        conditions = self.conditions[index * size:(index + 1) * size]
        nproc = _nproc()
        par_s, par = self.sweep(conditions, nproc)
        ser_s, ser = self.sweep(conditions, 1)
        self.check_failures.extend(checks.check_sweep_pair(par, ser))
        if index == 0:
            self.current = {"nproc": nproc, "sweep_s": 0.0, "sweep_serial_s": 0.0,
                            "wall": {}, "iters": {}, "reports": []}
        p = self.current
        p["sweep_s"] += par_s
        p["sweep_serial_s"] += ser_s
        p["reports"].extend((r.condition.name, r.rate, r.se, r.rate_uncorrected,
                             r.per_quantile_rates) for r in ser)
        for r in par:
            m = r.condition.method
            p["wall"][m] = p["wall"].get(m, 0.0) + r.wall_time
            p["iters"][m] = p["iters"].get(m, 0) + r.n_sims
        if index == self.n_groups - 1:
            digest = hashlib.sha256(repr(p.pop("reports")).encode()).hexdigest()
            if self.sweep_digest not in (None, digest):
                self.check_failures.append("sweep: reports differ between repeats")
            self.sweep_digest = digest
            wall, iters = p.pop("wall"), p.pop("iters")
            p["iters_per_s"] = {m: iters[m] / wall[m] for m in wall if wall[m] > 0}
            self.sweeps.append(p)

    def cycle(self) -> None:
        for cmd in workloads.CYCLE:
            self.samples[cmd].append(self.cli(cmd))

    # --- measuring -----------------------------------------------------------

    def run_units(self, min_cycles: int, min_passes: int, end=None) -> None:
        """Interleave analysis cycles and condition groups.

        Units run in the proportion of the minimum counts, so both kinds of
        samples spread over the whole session.  After the minimum counts,
        whole passes continue while the next one is predicted to end
        before ``end``.
        """
        cycles = groups = 0
        cycles_per_pass = -(-min_cycles // min_passes)
        target_cycles, target_groups = min_cycles, min_passes * self.n_groups
        start = _now()
        while True:
            if cycles >= target_cycles and groups >= target_groups:
                per_pass = (_now() - start) * self.n_groups / groups
                if end is None or _now() + per_pass > end:
                    break
                target_cycles += cycles_per_pass
                target_groups += self.n_groups
            behind = cycles * target_groups <= groups * target_cycles
            if cycles < target_cycles and (behind or groups >= target_groups):
                self.cycle()
                cycles += 1
            else:
                self.group(groups % self.n_groups)
                groups += 1

    def measure(self):
        self.run_units(self.w.min_cycles, self.w.min_passes, _now() + self.args.seconds)

    def fixed_pass(self) -> float:
        t = _now()
        self.run_units(self.w.trace_cycles, 1)
        return _now() - t

    def measure_traced(self) -> dict:
        tracer = self.tracer
        tracer.uninstall()
        # the traced warm-up filled the tracer's caches, not the package's
        self.warm_analysis()
        plain_s = self.fixed_pass()
        last = self.sweeps[-1]
        tracer.install()
        traced_s = self.fixed_pass()
        tracer.uninstall()
        from tracing import layer_metrics
        layer = layer_metrics(tracer)
        layer["simulation.scaling_eff"] = (
            last["sweep_serial_s"] / (last["nproc"] * last["sweep_s"]))
        layer["run.tracing_overhead_frac"] = traced_s / plain_s - 1.0
        return {"metrics": layer, "missing": tracer.missing,
                "worker_spans": tracer.worker_spans, "spans": len(tracer.spans)}

    def manifest(self) -> dict:
        import multiprocessing
        np = self.np
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            blas = None
        return {
            "numpy": np.__version__,
            "qshift": getattr(self.qs, "__version__", None),
            "blas": blas,
            "start_method": multiprocessing.get_start_method(),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    s = Session(args)
    try:
        result = {"setup_s": s.setup()}
        if args.trace:
            result["trace"] = s.measure_traced()
        else:
            s.measure()
        # peak memory of the measured work, before the reference checks
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if args.index == 0:
            s.check_failures.extend(checks.check_analysis(
                s.qs, ROOT, s.cells, s.first, s.w.n_boot, args.seed))
            result["manifest"] = s.manifest()
        if s.tracer is not None:
            with open(args.out[:-len(".json")] + "-spans.json", "w", encoding="utf-8") as fh:
                json.dump(s.tracer.spans, fh)
        result.update({
            "samples": s.samples,
            "sweeps": s.sweeps,
            "attempted": s.attempted,
            "failures": s.failures,
            "check_failures": s.check_failures,
            "digests": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in s.first.items()},
            "sweep_digest": s.sweep_digest,
            "rss_mb": (self_kb + child_kb) / 1024.0,
        })
    except Exception:  # noqa: BLE001 - report the crash to run.py, which exits non-zero
        result = {"crash": traceback.format_exc()}
    finally:
        shutil.rmtree(s.tmp, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if "crash" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
