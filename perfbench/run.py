"""qshift benchmark: analyst and methodologist paths, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze-continuous --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, untraced and traced
    python3 perfbench/run.py --smoke                     # every metric emitted, with its unit

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every run is split over fresh session
processes (``session.py``) so that per-process state such as the BLAS
thread pool starts anew for each repeat set.  Each metric is printed as
``name value unit``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with the run manifest, goes to ``.perfbench/record-*.json``.
Exit status: 0 when every output check passes, 1 when one fails, 2 when
the checkout holds no qshift sources, 3 when a session crashed.
"""

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SESSIONS = 3      # fresh processes per untraced run
DEADLINE = 170.0  # seconds; a run must end within 180
METHODS = workloads.METHODS

END_TO_END = {
    "setup_s": "s",
    "decinter_p50_s": "s",
    "decinter_tail_s": "s",
    "plotdata_p50_s": "s",
    "plotdata_tail_s": "s",
    "iband_p50_s": "s",
    "iband_tail_s": "s",
    "sweep_s": "s",
    "sweep_serial_s": "s",
    **{f"sim_iters_per_s.{m}": "1/s" for m in METHODS},
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class SessionCrash(RuntimeError):
    pass


# --- machine facts -------------------------------------------------------------

def _read(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _steal_jiffies():
    text = _read("/proc/stat")
    if not text:
        return None
    fields = text.splitlines()[0].split()
    return int(fields[8]) if len(fields) > 8 else None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches():
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = size.strip()
    return out


def _size_bytes(text):
    if not text:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head:
        return None
    head = head.strip()
    if head.startswith("ref: "):
        ref = _read(os.path.join(ROOT, ".git", head[5:]))
        return ref.strip() if ref else head[5:]
    return head


def manifest(args, w, sessions: int) -> dict:
    caches = _caches()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "l2_bytes": _size_bytes(caches.get("L2")),
        "l3_bytes": _size_bytes(caches.get("L3")),
        "python": sys.version,
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "k": w.k,
        "n": w.n,
        "n_boot": w.n_boot,
        "sessions": sessions,
    }


# --- sessions --------------------------------------------------------------------

def run_session(args, index: int, seconds: float, timeout: float) -> dict:
    out = os.path.join(ROOT, ".perfbench",
                       f"session-{args.workload}-s{args.seed}-t{args.trace}-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--index", str(index), "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SessionCrash(f"session {index} exceeded {timeout:.0f}s") from None
    finally:
        # pool workers share the session's process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    text = _read(out)
    if text is None:
        raise SessionCrash(f"session {index} exited {proc.returncode} without a result")
    os.remove(out)
    result = json.loads(text)
    if "crash" in result:
        raise SessionCrash(f"session {index} crashed:\n{result['crash']}")
    return result


def _tail(values, p):
    if p >= 100 or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def aggregate(w, sessions, trace: int, smoke: bool) -> tuple:
    metrics, extra = {}, {}
    if trace:
        layer = sessions[0]["trace"]["metrics"]
        for name, (unit, _) in tracing.PER_LAYER.items():
            metrics[name] = {"value": layer[name], "unit": unit}
        return metrics, {"missing_boundaries": sessions[0]["trace"]["missing"],
                         "worker_spans": sessions[0]["trace"]["worker_spans"]}
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in sessions)
    for cmd in ("decinter", "plotdata", "iband"):
        values = [v for s in sessions for v in s["samples"][cmd]]
        guaranteed = w.min_cycles * workloads.CYCLE.count(cmd) * len(sessions)
        p = workloads.tail_percentile(guaranteed) if not smoke else 50
        metrics[f"{cmd}_p50_s"] = statistics.median(values)
        metrics[f"{cmd}_tail_s"] = _tail(values, p)
        extra[f"{cmd}_tail"] = {"percentile": p, "samples": len(values)}
    passes = [p for s in sessions for p in s["sweeps"]]
    metrics["sweep_s"] = statistics.median(p["sweep_s"] for p in passes)
    metrics["sweep_serial_s"] = statistics.median(p["sweep_serial_s"] for p in passes)
    for m in METHODS:
        metrics[f"sim_iters_per_s.{m}"] = statistics.median(
            p["iters_per_s"].get(m, 0.0) for p in passes)
    metrics["peak_rss_mb"] = statistics.median(s["rss_mb"] for s in sessions)
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(len(s["failures"]) for s in sessions)
    metrics["ok_frac"] = 1.0 - failed / attempted
    extra["samples"] = {
        "setup_s": [s["setup_s"] for s in sessions],
        **{f"{cmd}_s": [v for s in sessions for v in s["samples"][cmd]]
           for cmd in ("decinter", "plotdata", "iband")},
        "sweep_passes": passes,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, extra


def run_one(args) -> dict:
    w = workloads.WORKLOADS[args.workload]
    start = time.monotonic()
    n_sessions = 1 if args.trace else SESSIONS
    record = {"manifest": manifest(args, w, n_sessions), "trace": args.trace}
    steal0 = _steal_jiffies()
    sessions = []
    for i in range(n_sessions):
        remaining = DEADLINE - (time.monotonic() - start)
        sessions.append(run_session(args, i, args.seconds / n_sessions, remaining))
    steal1 = _steal_jiffies()
    record["manifest"].update(sessions[0].get("manifest", {}))
    record["manifest"]["steal_jiffies"] = {"before": steal0, "after": steal1}

    metrics, extra = aggregate(w, sessions, args.trace, args.smoke)
    check_failures = [f for s in sessions for f in s["check_failures"]]
    for key in ("decinter", "plotdata", "iband"):
        if len({s["digests"].get(key) for s in sessions}) != 1:
            check_failures.append(f"{key}: output differs between sessions")
    if len({s["sweep_digest"] for s in sessions}) != 1:
        check_failures.append("sweep: reports differ between sessions")
    attempted = sum(s["attempted"] for s in sessions)
    failures = [f for s in sessions for f in s["failures"]]
    if args.trace:
        scratch = metrics["pairwise.block_scratch_bytes"]["value"]
        extra["block_scratch_vs_cache"] = {
            "block_scratch_bytes": scratch,
            "l2_bytes": record["manifest"]["l2_bytes"],
            "l3_bytes": record["manifest"]["l3_bytes"]}
    record.update({
        "correct": not check_failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "check_failures": check_failures,
        "metrics": metrics,
        "details": extra,
        "elapsed_s": time.monotonic() - start,
    })
    path = os.path.join(ROOT, ".perfbench",
                        f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def print_record(record) -> None:
    print(f"# {record['manifest']['workload']} seed={record['manifest']['seed']} "
          f"trace={record['trace']}")
    for name, m in record["metrics"].items():
        print(f"{name:<38} {m['value']:<14.6g} {m['unit']}")
    for name, info in record["details"].items():
        if name != "samples":
            print(f"  {name}: {json.dumps(info)}")
    for failure in record["check_failures"] + record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def result_line(record) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def smoke(args) -> int:
    """Every workload, untraced and traced, at a tiny size: all metrics named."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rec = run_one(argparse.Namespace(workload=name, seed=args.seed, seconds=1.0,
                                             trace=trace, smoke=True))
            print_record(rec)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            if want != got:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(want) ^ set(got))} "
                                f"or units differ from BENCHMARK.json")
            if not rec["correct"]:
                problems.append(f"{name} trace={trace}: output checks failed")
    for p in problems:
        print(f"SMOKE {p}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check every metric is emitted")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in ("src/qshift/__init__.py", "experiments/fwer_desk.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a qshift checkout, missing {missing}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    try:
        if args.smoke:
            return smoke(args)
        if args.workload != "all":
            record = run_one(args)
            print_record(record)
            print(result_line(record))
            return 0 if record["correct"] else 1
        records = {}
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                rec = run_one(argparse.Namespace(workload=name, seed=args.seed,
                                                 seconds=args.seconds, trace=trace, smoke=False))
                print_record(rec)
                records[f"{name}/trace{trace}"] = json.loads(result_line(rec))
        print(json.dumps(records))
        return 0 if all(r["correct"] for r in records.values()) else 1
    except SessionCrash as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
