"""Golden outputs: CLI results and simulation CSVs pinned to committed files.

The input data are drawn at test time from ``qshift.stream``, so no data
file is committed; the expected outputs live in ``tests/golden/``.
``python tests/bless_golden.py`` lists the files a fresh run differs from,
with the largest move of each, and writes nothing; ``bless_golden.py NAME
...`` rewrites the named files only; ``bless_golden.py --against REV``
lists the cases whose fresh outputs differ between REV and the working
tree.  A change that re-blesses any file
must say which, by how much, and against which oracle.  The simulation
CSVs (a subset of ``experiments/fwer_desk.json`` and both whole desk
grids, at six iterations per condition) are each checked at one and at
two worker processes against the same file.
``median_diff_test`` has no CLI command; its cases call the function on
the two cells of each level of factor A and write the results as JSON.

Comparison rules: p-values, adjusted p-values and simulated rates are
ratios of integer counts and are compared exactly, as is every non-numeric
field.  Estimates and CI bounds may move by 1e-12 relative to the largest
estimate of their row; a ``median_diff_test`` row, whose one estimate
can be a rounding error away from zero, moves relative to the largest of
its estimate and CI bounds.  ``plotdata`` prints six significant digits, so a
value there may move only to an adjacent six-digit neighbour; its
differences and CI bounds are the ``decinter`` rows, which are compared at
full precision.

The committed Harrell-Davis bytes are not those of a fresh run on every
host.  On an Intel Xeon with AVX-512 (OpenBLAS 0.3.31 choosing its
SkylakeX kernels), a fresh run differs from 12 committed HD files by up
to 1.73e-13 of the row scale, and from 13 under
``OPENBLAS_CORETYPE=Haswell``, all inside the 1e-12 rule.  So a claim
that a change moves no bit compares fresh runs of the parent and of the
change on one host (``bless_golden.py --against PARENT`` lists no case),
not a fresh run with these files.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

import qshift.pairwise
from qshift import BootstrapConfig, DistributionSpec, generate, median_diff_test, stream
from qshift.cli import main
from qshift.data import read_long_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"

N_BOOT = 600
_SEED = 20230601
_CELLS = ((1, 1), (1, 2), (2, 1), (2, 2))
POISSON9 = DistributionSpec("poisson", mean=9.0)
BETABIN = DistributionSpec("beta_binomial", r=1.0, s=9.0, nbin=10)
DATASETS = {
    # name: (per-cell populations, n per cell)
    "lognormal": ((DistributionSpec("lognormal"),) * 4, 100),
    "ties": ((POISSON9, POISSON9, BETABIN, BETABIN), 100),
    "normal15": ((DistributionSpec("normal"),) * 4, 15),
}
# each simulation golden: its experiment file and the groups it keeps, each
# with the sample sizes kept (None: all of them; no table: every group)
SIM_EXPERIMENTS = {
    "fwer_desk-subset": ("fwer_desk", {"normal": [20], "poisson9": None,
                                       "beta-binomial-r1": None}),
    "fwer_desk": ("fwer_desk", None),
    "power_desk": ("power_desk", None),
}
SIM_N_SIMS = 6

_EXACT_ROW_FIELDS = ("q", "level", "p_value", "p_adjusted")
# the pseudo-command of the median_diff_test cases
MEDIAN_DIFF = "median_diff_test"


def write_dataset(path: Path, name: str) -> None:
    specs, n = DATASETS[name]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("a,b,y\n")
        for (a, b), spec in zip(_CELLS, specs):
            for v in generate(spec, n, stream(_SEED, "golden", name, a, b)):
                fh.write(f"A{a},B{b},{float(v)!r}\n")


def write_experiment(path: Path, name: str) -> None:
    source, groups = SIM_EXPERIMENTS[name]
    spec = json.loads((EXPERIMENTS / f"{source}.json").read_text(encoding="utf-8"))
    if groups is not None:
        kept = [group for group in spec["conditions"] if group["name"] in groups]
        spec["conditions"] = [dict(group, n_per_group=groups[group["name"]] or group["n_per_group"])
                              for group in kept]
    spec["defaults"]["n_sims"] = SIM_N_SIMS
    path.write_text(json.dumps(spec, indent=2), encoding="utf-8")


def cases() -> list:
    """(golden file name, dataset or experiment, CLI arguments after the input)."""
    out = []
    for data in DATASETS:
        for est in ("hd", "t7"):
            common = ["--estimator", est, "--nboot", str(N_BOOT), "--seed", "11"]
            for contrast in ("interaction", "main-a", "main-b"):
                out.append((f"{data}-{est}-decinter-{contrast}.json", data,
                            ["decinter", "--contrast", contrast, "--format", "json", *common]))
            out.append((f"{data}-{est}-iband.json", data,
                        ["iband", "--ph", "--format", "json", *common]))
            out.append((f"{data}-{est}-plotdata.csv", data, ["plotdata", *common]))
            if data in ("lognormal", "ties"):
                out.append((f"{data}-{est}-median-diff.json", data, [MEDIAN_DIFF, *common]))
    for experiment in SIM_EXPERIMENTS:
        out.append((f"{experiment}-simulate.csv", experiment, ["simulate", "--threads", "1"]))
    return out


def run_case(workdir: Path, data, argv) -> str:
    """The stdout of one CLI case, its inputs written under ``workdir``."""
    if data in SIM_EXPERIMENTS:
        experiment = workdir / f"{data}.json"
        write_experiment(experiment, data)
        argv = [argv[0], str(experiment), *argv[1:], "--metadata", str(workdir / "meta.json")]
    else:
        csv_path = workdir / f"{data}.csv"
        if not csv_path.exists():
            write_dataset(csv_path, data)
        if argv[0] == MEDIAN_DIFF:
            return _median_diff_output(csv_path, argv[1:])
        argv = [argv[0], "--input", str(csv_path), *argv[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"qshift {' '.join(argv)} exited {code}"
    return out.getvalue()


def _median_diff_output(csv_path: Path, flags: list) -> str:
    """``median_diff_test`` of cell (a, 1) against cell (a, 2) at each level
    a of factor A, with the settings of the CLI ``flags``, as JSON."""
    opts = dict(zip(flags[::2], flags[1::2]))
    config = BootstrapConfig(n_boot=int(opts["--nboot"]), seed=int(opts["--seed"]),
                             estimator=opts["--estimator"])
    sample, _ = read_long_csv(csv_path, "a", "b", "y")
    rows = []
    for a, level in enumerate(sample.factor_a, start=1):
        result = median_diff_test(sample.cell(a, 1), sample.cell(a, 2), config)
        rows.append({"level": level, **dataclasses.asdict(result)})
    payload = {"function": MEDIAN_DIFF, "estimator": config.estimator,
               "n_boot": config.n_boot, "seed": config.seed, "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


def row_scale(row: dict) -> float:
    """The magnitude a row's estimates and CI bounds may move relative to."""
    keys = ("estimate", "ci_low", "ci_high") if "estimate" in row else ("est_lev1", "est_lev2")
    return max(abs(row[key]) for key in keys)


def _six_digit_neighbours(new: str, old: str) -> bool:
    a, b = float(new), float(old)
    if a == b:
        return True
    unit = 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - 5)
    return abs(a - b) <= 1.000001 * unit


def compare(name: str, new: str, old: str) -> list:
    """Differences between a fresh output and its golden, as messages."""
    if name.endswith(".json"):
        return _compare_json(json.loads(new), json.loads(old))
    new_rows = list(csv.reader(io.StringIO(new)))
    old_rows = list(csv.reader(io.StringIO(old)))
    if name.endswith("-simulate.csv") or len(new_rows) != len(old_rows):
        return [] if new_rows == old_rows else ["rows differ"]
    problems = []
    for i, (a, b) in enumerate(zip(new_rows, old_rows)):
        if i == 0 or len(a) != len(b) or a[:2] != b[:2]:
            if a != b:
                problems.append(f"row {i}: {a} != {b}")
            continue
        for j, (x, y) in enumerate(zip(a[2:], b[2:]), start=2):
            if x != y and not _six_digit_neighbours(x, y):
                problems.append(f"row {i} column {j}: {x} != {y}")
    return problems


def _compare_json(new: dict, old: dict) -> list:
    new_rows, old_rows = new.pop("rows"), old.pop("rows")
    problems = [] if new == old else [f"payload {new} != {old}"]
    if len(new_rows) != len(old_rows):
        return problems + ["row count differs"]
    for a, b in zip(new_rows, old_rows):
        if a.keys() != b.keys():
            problems.append(f"fields {sorted(a)} != {sorted(b)}")
            continue
        scale = row_scale(b)
        for key, value in a.items():
            exact = key in _EXACT_ROW_FIELDS
            if value != b[key] and (exact or abs(value - b[key]) > 1e-12 * scale):
                problems.append(f"q={b['q']} {key}: {value!r} != {b[key]!r}")
    return problems


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name,data,argv", cases(), ids=[c[0] for c in cases()])
def test_output_matches_golden(workdir, name, data, argv):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    problems = compare(name, run_case(workdir, data, argv), expected)
    assert not problems, f"{name}: " + "; ".join(problems[:5])


@pytest.mark.parametrize("name", ["lognormal-hd-iband.json", "lognormal-t7-iband.json"])
def test_iband_golden_on_one_and_three_threads(workdir, monkeypatch, name):
    """The sort path splits each replicate call over the usable CPUs (three
    threads here at n = 100, B = 600); one CPU and three give the same bytes."""
    data, argv = next((d, a) for n, d, a in cases() if n == name)
    outputs = []
    for cpus in (1, 3):
        monkeypatch.setattr(qshift.pairwise, "_usable_cpus", lambda cpus=cpus: cpus)
        assert qshift.pairwise._sort_threads(N_BOOT, 100 * 100) == cpus
        outputs.append(run_case(workdir, data, argv))
    assert outputs[0] == outputs[1]
    problems = compare(name, outputs[1], (GOLDEN / name).read_text(encoding="utf-8"))
    assert not problems, f"{name}: " + "; ".join(problems[:5])


def test_simulate_golden_on_two_workers(workdir):
    """The process-pool path writes the bytes of the one-process run, for
    every simulation golden."""
    for experiment in SIM_EXPERIMENTS:
        out = run_case(workdir, experiment, ["simulate", "--threads", "2"])
        expected = (GOLDEN / f"{experiment}-simulate.csv").read_text(encoding="utf-8")
        assert out == expected, experiment


def test_bless_refuses_unknown_names(monkeypatch, capsys):
    """A mistyped name exits 2 and is named before any case runs."""
    import bless_golden

    def no_run(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(bless_golden.g, "run_case", no_run)
    assert bless_golden.main(["no-such-file.json", "lognormal-hd-iband.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no golden case named no-such-file.json\n"


def test_bless_against_head_lists_nothing(capfd):
    """``bless_golden.py --against HEAD`` on one case runs it on the last
    commit and on the working tree, each in a subprocess: equal bytes print
    nothing and exit 0, and nothing is written into the checkout."""
    import bless_golden

    def git(*args):
        return subprocess.run(["git", "-C", str(bless_golden.ROOT), *args],
                              capture_output=True, text=True)

    if shutil.which("git") is None or git("rev-parse", "--verify", "HEAD").returncode:
        pytest.skip("needs git and a checkout with a commit")
    status = git("status", "--porcelain", "--untracked-files=all").stdout
    assert bless_golden.main(["--against", "HEAD", "normal15-t7-decinter-interaction.json"]) == 0
    assert capfd.readouterr() == ("", "")
    assert git("status", "--porcelain", "--untracked-files=all").stdout == status
