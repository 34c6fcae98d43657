"""Command-line interface.

Subcommands mirror the analysis workflow: ``decinter`` tests cell-quantile
contrasts, ``iband`` compares the quantiles of the two all-pairwise
difference distributions, ``simulate`` drives Monte Carlo sweeps from an
experiment file, and ``plotdata`` exports shift-function points as tidy
CSV.  Exit codes: 0 success, 1 simulation condition failed, 2 argument or
experiment-file error, 3 data-file error.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from .bootstrap import BootstrapConfig, _usable_cpus
from .contrasts import _contrast_tests, decinter
from .data import DataError, parse_level_order, read_long_csv
from .design import INTERACTION, MAIN_A, MAIN_B, QuantileTestRow
from .multcomp import CORRECTIONS
from .pairwise import iband, pairwise_differences, ph_probability
from .quantiles import ESTIMATORS, estimate_quantiles
from .simulation import (
    REPORT_COLUMNS,
    _single_blas_thread,
    load_experiment,
    report_csv_rows,
    report_metadata,
    sweep,
)

_TABLE_HEADER = ("Quant", "Est.Lev 1", "Est.Lev 2", "Dif", "ci.low", "ci.up", "p-value", "p.adj")
_PLOT_HEADER = ("panel", "quant", "x", "dif", "ci.low", "ci.up")

_CONTRAST_FLAGS = {"interaction": INTERACTION, "main-a": MAIN_A, "main-b": MAIN_B}

_ROW_FIELDS = tuple(f.name for f in dataclasses.fields(QuantileTestRow))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _parse_quantiles(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse quantile list {text!r}") from None


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _parse_levels(text: str):
    try:
        return parse_level_order(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="long-format CSV file")
    sub.add_argument("--factor-a", default="a", help="column with factor A labels")
    sub.add_argument("--factor-b", default="b", help="column with factor B labels")
    sub.add_argument("--value", default="y", help="column with the numeric outcome")
    sub.add_argument("--level-order", type=_parse_levels, default=None, metavar="A1,A2:B1,B2",
                     help="explicit level ordering (default: lexicographic)")


def _add_analysis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--estimator", choices=ESTIMATORS, default="hd")
    sub.add_argument("--quantiles", type=_parse_quantiles, default=None,
                     metavar="Q1,Q2,...", help="quantile levels, each strictly in (0,1)")
    sub.add_argument("--nboot", type=int, default=2000, help="bootstrap replicates")
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--progress", action="store_true",
                     help="report progress on stderr")


def _add_table_flags(sub: argparse.ArgumentParser) -> None:
    """Flags of the commands that print a test table with adjusted p-values."""
    sub.add_argument("--correction", choices=CORRECTIONS, default="bh")
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv")


def _load_sample(args):
    sample, dropped = read_long_csv(
        args.input, args.factor_a, args.factor_b, args.value, args.level_order
    )
    if dropped:
        print(f"warning: dropped {dropped} rows with missing values", file=sys.stderr)
    if args.progress:
        sizes = sample.sizes()
        print(
            f"loaded cells {sizes} with A levels {sample.factor_a} "
            f"and B levels {sample.factor_b}",
            file=sys.stderr,
        )
    return sample


def _config(args) -> BootstrapConfig:
    return BootstrapConfig(
        n_boot=args.nboot,
        alpha=args.alpha,
        seed=args.seed,
        estimator=args.estimator,
        quantiles=args.quantiles,
    )


def _timed(args, analysis, *params):
    """``analysis(*params)``; under ``--progress`` its wall time goes to stderr."""
    t0 = time.perf_counter()
    result = analysis(*params)
    if args.progress:
        print(f"bootstrap of {args.nboot} replicates took "
              f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return result


def _result_payload(command: str, args, sample, rows, extra=None) -> dict:
    payload = {
        "schema_version": 1,
        "command": command,
        "estimator": args.estimator,
        "correction": args.correction,
        "alpha": args.alpha,
        "n_boot": args.nboot,
        "seed": args.seed,
        "factor_a": {"column": args.factor_a, "levels": list(sample.factor_a)},
        "factor_b": {"column": args.factor_b, "levels": list(sample.factor_b)},
        "cell_sizes": [list(r) for r in sample.sizes()],
        # a row's fields are floats, so a shallow copy of them is a full one
        "rows": [{name: getattr(r, name) for name in _ROW_FIELDS} for r in rows],
    }
    if extra:
        payload.update(extra)
    return payload


def _emit_table(rows, args, payload) -> None:
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    print("\t".join(_TABLE_HEADER))
    for r in rows:
        print("\t".join(_fmt(v) for v in (
            r.q, r.est_lev1, r.est_lev2, r.dif, r.ci_low, r.ci_high,
            r.p_value, r.p_adjusted,
        )))


def _cmd_decinter(args) -> int:
    sample = _load_sample(args)
    config = _config(args)
    kind = _CONTRAST_FLAGS[args.contrast]
    rows = _timed(args, decinter, sample, kind, config, args.correction)
    payload = _result_payload("decinter", args, sample, rows, {"contrast": kind})
    _emit_table(rows, args, payload)
    return 0


def _cmd_iband(args) -> int:
    sample = _load_sample(args)
    config = _config(args)
    rows = _timed(args, iband, sample, config, args.correction)
    extra = {"contrast": INTERACTION}
    ph = None
    if args.ph:
        ph = [ph_probability(pairwise_differences(sample.cell(a, 1), sample.cell(a, 2)))
              for a in (1, 2)]
        extra.update(ph_level1=ph[0], ph_level2=ph[1])
    payload = _result_payload("iband", args, sample, rows, extra)
    _emit_table(rows, args, payload)
    if ph is not None and args.format == "tsv":
        print(f"ph.lev1\t{_fmt(ph[0])}")
        print(f"ph.lev2\t{_fmt(ph[1])}")
    return 0


def _plot_rows(sample, config):
    """Shift-function points for every panel of the 2x2 summary.  The
    points carry no adjusted p-value, so no correction is applied."""
    inter, main_a, main_b = _contrast_tests(
        sample, (INTERACTION, MAIN_A, MAIN_B), config, "none")
    quantiles = tuple(row.q for row in inter)
    x11, x12, x21, x22 = sample.flat_cells()
    pooled = {
        "a": estimate_quantiles(np.concatenate([x11, x12]), quantiles, config.estimator),
        "b": estimate_quantiles(np.concatenate([x11, x21]), quantiles, config.estimator),
    }
    out = []
    for row, x in zip(inter, pooled["a"]):
        out.append(("interaction", row.q, float(x), row.dif, row.ci_low, row.ci_high))

    for rows, tag, pool_key in ((main_a, "main-a", "a"), (main_b, "main-b", "b")):
        for row in rows:
            out.append((f"{tag}-averaged", row.q, row.est_lev1, row.dif, row.ci_low, row.ci_high))
        for row, x in zip(rows, pooled[pool_key]):
            out.append((f"{tag}-pooled", row.q, float(x), row.dif, row.ci_low, row.ci_high))
    return out


def _output(path, default, **kwargs):
    """``path`` opened for writing, or ``default``, left open, without one."""
    return open(path, "w", encoding="utf-8", **kwargs) if path else contextlib.nullcontext(default)


def _write_csv(out, header, rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_plotdata(args) -> int:
    sample = _load_sample(args)
    config = _config(args)
    # opened after the data and the flags pass, but before the bootstrap, so
    # a path that cannot be written fails first
    with _output(args.output, sys.stdout, newline="") as out:
        points = _timed(args, _plot_rows, sample, config)
        _write_csv(out, _PLOT_HEADER, [(panel, *map(_fmt, values)) for panel, *values in points])
    return 0


def _cmd_simulate(args) -> int:
    conditions = load_experiment(args.experiment)
    # read when the command runs, so the parser main keeps for the process
    # holds no CPU count of its own
    workers = _usable_cpus() if args.threads is None else args.threads

    progress = None
    if args.progress:
        total = len(conditions)

        def progress(i, cond, report):
            status = "failed" if report.error else f"rate={report.rate:.4f}"
            print(f"[{i + 1}/{total}] {cond.name}: {status} "
                  f"({report.wall_time:.1f}s)", file=sys.stderr)

    # both outputs are opened first, so a path that cannot be written fails
    # before the sweep, not after it
    with _output(args.output, sys.stdout, newline="") as out, \
            _output(args.metadata, sys.stderr) as meta:
        reports = sweep(conditions, workers=workers, progress=progress)
        _write_csv(out, REPORT_COLUMNS, report_csv_rows(reports))
        print(json.dumps(report_metadata(reports, workers=workers), indent=2), file=meta)
    return 1 if any(r.error for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshift",
        description="Quantile-shift tests for 2x2 between-subjects designs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decinter", help="quantile-by-quantile contrast test")
    _add_data_flags(p)
    p.add_argument("--contrast", choices=tuple(_CONTRAST_FLAGS), default="interaction")
    _add_analysis_flags(p)
    _add_table_flags(p)
    p.set_defaults(func=_cmd_decinter)

    p = subs.add_parser("iband", help="all-pairwise-difference quantile interaction test")
    _add_data_flags(p)
    p.add_argument("--ph", action="store_true",
                   help="also report P(X<Y) for each level of factor A")
    _add_analysis_flags(p)
    _add_table_flags(p)
    p.set_defaults(func=_cmd_iband)

    p = subs.add_parser("plotdata", help="export shift-function points as tidy CSV")
    _add_data_flags(p)
    _add_analysis_flags(p)
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_plotdata)

    p = subs.add_parser("simulate", help="run a Monte Carlo experiment file")
    p.add_argument("experiment", help="JSON experiment file")
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    p.add_argument("--metadata", default=None,
                   help="metadata JSON path (default: stderr)")
    p.add_argument("--threads", type=_worker_count, default=None,
                   help="worker processes in the run's one pool "
                        "(default: usable CPUs; results never depend on this)")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    return parser


# the parser never changes, so main builds it once per process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A command runs OpenBLAS on one thread and leaves it so: at the default
    # B and n its dense products reach OpenBLAS's threading threshold, and
    # the idle worker then spins against the sort threads of the next call.
    # No result bit depends on the count.
    _single_blas_thread()
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ExperimentError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
