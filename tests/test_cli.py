"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qshift
from qshift import (
    INTERACTION,
    MAIN_A,
    MAIN_B,
    BootstrapConfig,
    DataError,
    adjust_pvalues,
    decinter,
    load_experiment,
    read_long_csv,
    stream,
)
from qshift.cli import build_parser, main


def _write_long_csv(path, cells, labels_a=("a1", "a2"), labels_b=("b1", "b2"),
                    header=("a", "b", "y")):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for (j, k), values in zip(((0, 0), (0, 1), (1, 0), (1, 1)), cells):
            for v in values:
                writer.writerow([labels_a[j], labels_b[k], v])


@pytest.fixture
def constant_csv(tmp_path):
    path = tmp_path / "flat.csv"
    _write_long_csv(path, [[5.0] * 25] * 4)
    return str(path)


@pytest.fixture
def normal_csv(tmp_path):
    rng = stream(77, "cli")
    path = tmp_path / "normal.csv"
    _write_long_csv(path, [rng.normal(size=30).tolist() for _ in range(4)])
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_tsv(text):
    lines = text.strip().split("\n")
    header = lines[0].split("\t")
    return header, [line.split("\t") for line in lines[1:]]


class TestDecinterCommand:
    def test_constant_cells_all_ones(self, capsys, constant_csv):
        code, out, _ = _run(capsys, "decinter", "--input", constant_csv,
                            "--nboot", "400", "--seed", "1")
        assert code == 0
        header, rows = _parse_tsv(out)
        assert header == ["Quant", "Est.Lev 1", "Est.Lev 2", "Dif",
                          "ci.low", "ci.up", "p-value", "p.adj"]
        assert len(rows) == 9
        for row in rows:
            assert float(row[6]) == 1.0
            assert float(row[7]) == 1.0

    def test_quantile_out_of_range_is_argument_error(self, capsys, constant_csv):
        code, _, err = _run(capsys, "decinter", "--input", constant_csv,
                            "--quantiles", "0,0.5")
        assert code == 2
        assert "quantile" in err.lower()

    def test_missing_column_is_data_error(self, capsys, constant_csv):
        code, _, err = _run(capsys, "decinter", "--input", constant_csv,
                            "--value", "score")
        assert code == 3
        assert "score" in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, "decinter", "--input", str(tmp_path / "nope.csv"))
        assert code == 3

    def test_json_round_trip_is_exact(self, capsys, normal_csv):
        code, out, _ = _run(capsys, "decinter", "--input", normal_csv,
                            "--nboot", "300", "--seed", "9", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        sample, _ = __import__("qshift.data", fromlist=["read_long_csv"]).read_long_csv(
            normal_csv, "a", "b", "y"
        )
        rows = decinter(sample, INTERACTION, BootstrapConfig(n_boot=300, seed=9), "bh")
        assert payload["rows"] == [dataclasses.asdict(r) for r in rows]

    @pytest.mark.parametrize("flags", [
        ("--correction", "none"), ("--correction", "hochberg"), ("--correction", "bh"),
        ("--alpha", "0.1"),
    ])
    def test_alpha_and_correction_flags(self, capsys, normal_csv, flags):
        correction = dict([flags]).get("--correction", "bh")
        alpha = float(dict([flags]).get("--alpha", 0.05))
        code, out, _ = _run(capsys, "decinter", "--input", normal_csv, "--nboot", "300",
                            "--seed", "9", "--format", "json", *flags)
        assert code == 0
        rows = json.loads(out)["rows"]
        adjusted = adjust_pvalues([r["p_value"] for r in rows], correction)
        assert [r["p_adjusted"] for r in rows] == adjusted.tolist()
        sample, _ = read_long_csv(normal_csv, "a", "b", "y")
        expected = decinter(sample, INTERACTION,
                            BootstrapConfig(n_boot=300, seed=9, alpha=alpha), correction)
        assert [(r["ci_low"], r["ci_high"]) for r in rows] == [
            (e.ci_low, e.ci_high) for e in expected]

    def test_bitwise_determinism_across_runs(self, capsys, normal_csv):
        args = ("decinter", "--input", normal_csv, "--nboot", "500", "--seed", "4")
        outs = [_run(capsys, *args)[1] for _ in range(3)]
        assert outs[0] == outs[1] == outs[2]

    def test_threads_flag_only_on_simulate(self, capsys, normal_csv):
        with pytest.raises(SystemExit) as exc:
            main(["decinter", "--input", normal_csv, "--threads", "2"])
        assert exc.value.code == 2

    def test_level_order_flips_sign(self, capsys, tmp_path):
        rng = stream(31, "lv")
        path = tmp_path / "lv.csv"
        _write_long_csv(path, [(rng.normal(size=25) + s).tolist()
                               for s in (0.0, 1.0, 2.0, 3.5)])
        base = ("decinter", "--input", str(path), "--contrast", "main-a",
                "--nboot", "200", "--seed", "2")
        _, out1, _ = _run(capsys, *base)
        _, out2, _ = _run(capsys, *base, "--level-order", "a2,a1:b1,b2")
        dif1 = [float(r[3]) for r in _parse_tsv(out1)[1]]
        dif2 = [float(r[3]) for r in _parse_tsv(out2)[1]]
        assert dif2 == [-d for d in dif1]

    def test_dropped_rows_are_counted(self, capsys, tmp_path):
        path = tmp_path / "gaps.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "y"])
            for j, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
                for i in range(25):
                    writer.writerow([f"a{j+1}", f"b{k+1}", 1.0 + i % 3])
                writer.writerow([f"a{j+1}", f"b{k+1}", ""])  # missing value
        code, _, err = _run(capsys, "decinter", "--input", str(path),
                            "--nboot", "200", "--seed", "1")
        assert code == 0
        assert "dropped 4 rows" in err


_ROWS = "a,b,y\na1,b1,1\na1,b2,2\na2,b1,3\na2,b2,4\n"


@pytest.mark.parametrize("body, extra, code, message", [
    (_ROWS + "a1,b1,abc\n", (), 3, "non-numeric value"),
    (_ROWS + "a1,b1,inf\n", (), 3, "not finite"),
    (_ROWS + ",b1,5\n", (), 3, "missing factor label"),
    (_ROWS + "a3,b1,5\n", (), 3, "exactly two distinct levels"),
    (_ROWS, ("--level-order", "x1,x2:b1,b2"), 3, "does not match"),
    ("a,b,y\na1,b1,1\na1,b2,2\na2,b1,3\n", (), 3, "no rows for cell"),
    ("", (), 3, "file is empty"),
    ("a,b,y\na1,b1,\na2,b2,NA\n", (), 3, "no usable data rows"),
    (_ROWS, ("--level-order", "a1,a2"), 2, "level order must look like"),
    (_ROWS, ("--level-order", "a1,:b1,b2"), 2, "two non-empty level names"),
    (_ROWS, ("--quantiles", "0.1,half"), 2, "cannot parse quantile list"),
], ids=["non-numeric", "inf", "missing-label", "three-levels", "level-order-mismatch",
        "missing-cell", "empty-file", "all-missing", "bad-level-order", "empty-level-name",
        "bad-quantiles"])
def test_malformed_input_exit_codes(capsys, tmp_path, body, extra, code, message):
    """Data-file errors exit 3 and name the file; malformed flags exit 2."""
    path = tmp_path / "malformed.csv"
    path.write_text(body)
    try:
        got = main(["decinter", "--input", str(path), "--nboot", "200", *extra])
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert message in err
    if code == 3:
        assert f"error: {path}: " in err


@pytest.mark.parametrize("raw", ["1_0", "\u0663", "\uff11\uff12", "2\u00a0"],
                         ids=["underscore", "arabic-indic", "fullwidth", "no-break-space"])
@pytest.mark.filterwarnings("ignore:smallest cell:UserWarning")
def test_values_only_float_reads_are_non_numeric(tmp_path, raw):
    """float() reads "1_0" as 10 and the Arabic-Indic digit three as 3; a
    data file's value is plain ASCII, so each is the non-numeric error
    naming its row, and ASCII spaces around a number are still fine."""
    path = tmp_path / "odd.csv"
    path.write_text(_ROWS + f"a1,b1,{raw}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"row 6: column 'y' has non-numeric value "
                                        f"{re.escape(repr(raw))}"):
        read_long_csv(path, "a", "b", "y")
    path.write_text(_ROWS + "a1,b1, 10 \n", encoding="utf-8")
    sample, _ = read_long_csv(path, "a", "b", "y")
    assert sample.flat_cells()[0].tolist() == [1.0, 10.0]


class TestIbandCommand:
    def test_huge_value_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        cells = [[float(i) for i in range(25)] for _ in range(4)]
        cells[3][7] = 1.5e308
        _write_long_csv(path, cells)
        code, _, err = _run(capsys, "iband", "--input", str(path), "--nboot", "200")
        assert code == 3
        assert f"error: {path}: row 84: value '1.5e+308' of cell ('a2', 'b2') is beyond" in err

    def test_value_at_the_bound_is_read(self, tmp_path):
        path = tmp_path / "bound.csv"
        cells = [[float(i) for i in range(25)] for _ in range(4)]
        cells[3][7] = -4.49e307
        _write_long_csv(path, cells)
        sample, _ = read_long_csv(path, "a", "b", "y")
        assert sample.cell(2, 2)[7] == -4.49e307

    def test_default_quantiles_and_ph(self, capsys, normal_csv):
        code, out, _ = _run(capsys, "iband", "--input", normal_csv,
                            "--nboot", "300", "--seed", "5", "--ph")
        assert code == 0
        lines = out.strip().split("\n")
        quants = [float(line.split("\t")[0]) for line in lines[1:6]]
        assert quants == [0.1, 0.25, 0.5, 0.75, 0.9]
        assert lines[6].startswith("ph.lev1\t")
        assert lines[7].startswith("ph.lev2\t")

    def test_constant_cells(self, capsys, constant_csv):
        code, out, _ = _run(capsys, "iband", "--input", constant_csv,
                            "--nboot", "400", "--seed", "1")
        assert code == 0
        for row in _parse_tsv(out)[1]:
            assert float(row[6]) == 1.0

    def test_ph_values_in_json(self, capsys, tmp_path):
        path = tmp_path / "ph.csv"
        _write_long_csv(path, [[1.0] * 20 + [2.0] * 5, [3.0] * 20 + [4.0] * 5,
                               [1.0] * 25, [1.0] * 25])
        code, out, _ = _run(capsys, "iband", "--input", str(path), "--ph",
                            "--nboot", "200", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ph_level1"] == 1.0  # level-1 cells are fully separated
        assert payload["ph_level2"] == 0.0


class TestPlotdataCommand:
    def test_panels_and_shape(self, capsys, normal_csv):
        code, out, _ = _run(capsys, "plotdata", "--input", normal_csv,
                            "--nboot", "200", "--seed", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["panel", "quant", "x", "dif", "ci.low", "ci.up"]
        panels = {}
        for row in rows[1:]:
            panels.setdefault(row[0], []).append(row)
        assert sorted(panels) == ["interaction", "main-a-averaged", "main-a-pooled",
                                  "main-b-averaged", "main-b-pooled"]
        assert len(panels["interaction"]) == 9
        # pooled and averaged panels share their difference column
        for tag in ("main-a", "main-b"):
            avg = [r[3] for r in panels[f"{tag}-averaged"]]
            pool = [r[3] for r in panels[f"{tag}-pooled"]]
            assert avg == pool

    @pytest.mark.parametrize("estimator", ["hd", "t7"])
    def test_rows_equal_separate_decinter_calls(self, capsys, normal_csv, estimator):
        """One shared bootstrap gives the numbers of three decinter calls."""
        code, out, _ = _run(capsys, "plotdata", "--input", normal_csv, "--nboot", "300",
                            "--seed", "5", "--estimator", estimator)
        assert code == 0
        panels = {}
        for row in list(csv.reader(io.StringIO(out)))[1:]:
            panels.setdefault(row[0], []).append(row[1:])
        sample, _ = read_long_csv(normal_csv, "a", "b", "y")
        config = BootstrapConfig(n_boot=300, seed=5, estimator=estimator)

        def fmt(*values):
            return [f"{v:.6g}" for v in values]

        for kind, names in ((INTERACTION, ["interaction"]),
                            (MAIN_A, ["main-a-averaged", "main-a-pooled"]),
                            (MAIN_B, ["main-b-averaged", "main-b-pooled"])):
            rows = decinter(sample, kind, config)
            for name in names:
                assert [[p[0], *p[2:]] for p in panels[name]] == [
                    fmt(r.q, r.dif, r.ci_low, r.ci_high) for r in rows]
            if kind != INTERACTION:
                assert [p[1] for p in panels[names[0]]] == [fmt(r.est_lev1)[0] for r in rows]

    def test_constant_cells_zero_differences(self, capsys, constant_csv):
        code, out, _ = _run(capsys, "plotdata", "--input", constant_csv,
                            "--nboot", "200", "--seed", "3")
        assert code == 0
        for row in list(csv.reader(io.StringIO(out)))[1:]:
            assert float(row[3]) == 0.0

    @pytest.mark.parametrize("flag", [("--format", "json"), ("--correction", "none")])
    def test_table_flags_rejected(self, capsys, normal_csv, flag):
        """plotdata writes CSV without adjusted p-values, so it takes
        neither table flag."""
        with pytest.raises(SystemExit) as exc:
            main(["plotdata", "--input", normal_csv, *flag])
        assert exc.value.code == 2

    def test_output_file(self, capsys, normal_csv, tmp_path):
        out_path = tmp_path / "plot.csv"
        code, out, _ = _run(capsys, "plotdata", "--input", normal_csv,
                            "--nboot", "200", "--seed", "3", "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("panel,")


class TestSimulateCommand:
    def _experiment(self, tmp_path, body):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_empty_experiment_is_argument_error(self, capsys, tmp_path):
        path = self._experiment(tmp_path, {"conditions": []})
        code, _, err = _run(capsys, "simulate", path)
        assert code == 2
        assert "conditions" in err

    def test_negative_seed_is_experiment_error(self, capsys, tmp_path):
        path = self._experiment(tmp_path, {
            "seed": -1,
            "conditions": [{
                "name": "neg", "method": "anova_means", "n_per_group": 10,
                "cells": {"kind": "normal"}, "n_sims": 2,
            }],
        })
        code, _, err = _run(capsys, "simulate", path)
        assert code == 2
        assert "seed must be non-negative" in err

    def test_null_shift_is_experiment_error(self, capsys, tmp_path):
        path = self._experiment(tmp_path, {
            "conditions": [{
                "name": "null-shift", "method": "anova_means", "n_per_group": 10,
                "cells": {"kind": "normal"}, "shifts": [0, 0, 0, None], "n_sims": 2,
            }],
        })
        code, _, err = _run(capsys, "simulate", path)
        assert code == 2
        assert err.startswith("error: conditions[0]: ")
        assert "Traceback" not in err

    def test_non_integer_nbin_is_experiment_error(self, capsys, tmp_path):
        path = self._experiment(tmp_path, {
            "conditions": [{
                "name": "half-bin", "method": "anova_means", "n_per_group": 10,
                "cells": {"kind": "beta_binomial", "nbin": 10.5}, "n_sims": 2,
            }],
        })
        code, _, err = _run(capsys, "simulate", path)
        assert code == 2
        assert err.startswith("error: conditions[0]: nbin must be an integer, got 10.5")

    @pytest.mark.parametrize("param", [{"h": float("nan")}, {"g": float("inf")}],
                             ids=["h-nan", "g-inf"])
    def test_non_finite_population_is_experiment_error(self, capsys, tmp_path, param):
        # json.load reads NaN and Infinity; such a population draws NaN cells,
        # whose p-values all come out 0
        path = self._experiment(tmp_path, {
            "conditions": [{
                "name": "nan-cells", "method": "decinter_t7", "n_per_group": 10,
                "cells": {"kind": "g_and_h", **param}, "n_sims": 2, "n_boot": 100,
            }],
        })
        code, _, err = _run(capsys, "simulate", path)
        assert code == 2
        assert err.startswith("error: conditions[0]: ")
        assert "must be a finite number" in err

    @pytest.mark.parametrize("cells", [{"kind": "beta_binomial", "nbin": 2**63 + 1},
                                       {"kind": "poisson", "mean": 9.3e18}],
                             ids=["nbin", "poisson-mean"])
    def test_population_numpy_refuses_is_experiment_error(self, capsys, tmp_path, cells):
        path = self._experiment(tmp_path, {
            "conditions": [{"name": "huge", "method": "anova_means", "n_per_group": 10,
                            "cells": cells, "n_sims": 2}],
        })
        code, _, err = _run(capsys, "simulate", path)
        assert code == 2
        assert err.startswith("error: conditions[0]: ")

    @pytest.mark.parametrize("flag", ["--output", "--metadata"])
    def test_unwritable_output_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch,
                                                      flag):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran")

        monkeypatch.setattr("qshift.cli.sweep", no_sweep)
        path = self._experiment(tmp_path, {
            "conditions": [{"name": "tiny", "method": "anova_means", "n_per_group": 10,
                            "cells": {"kind": "normal"}, "n_sims": 2}],
        })
        missing = tmp_path / "no-such-dir" / "out"
        code, _, err = _run(capsys, "simulate", path, flag, str(missing))
        assert code == 3
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_deterministic_csv_bytes(self, capsys, tmp_path):
        path = self._experiment(tmp_path, {
            "seed": 3,
            "conditions": [{
                "name": "null", "method": "decinter_hd", "n_per_group": 20,
                "cells": {"kind": "normal"}, "n_sims": 8, "n_boot": 200,
            }],
        })
        out1_path, out2_path = tmp_path / "r1.csv", tmp_path / "r2.csv"
        meta_path = tmp_path / "meta.json"
        code1, _, _ = _run(capsys, "simulate", path, "--output", str(out1_path),
                           "--metadata", str(meta_path), "--threads", "1")
        code2, _, _ = _run(capsys, "simulate", path, "--output", str(out2_path),
                           "--threads", "2")
        assert code1 == code2 == 0
        assert out1_path.read_bytes() == out2_path.read_bytes()
        meta = json.loads(meta_path.read_text())
        assert meta["design_flags"]["beta_binomial_trials"].startswith("nbin - 1")
        assert meta["run"]["workers"] == 1
        assert [c["name"] for c in meta["run"]["conditions"]] == ["null"]

    @pytest.mark.parametrize("threads", ["0", "-3", "1.5"])
    def test_threads_must_be_a_positive_integer(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "exp.json", "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_threads_default_to_usable_cpus(self):
        args = build_parser().parse_args(["simulate", "exp.json"])
        assert args.threads == len(os.sched_getaffinity(0))

    def test_failing_condition_exits_one(self, capsys, tmp_path):
        # Beta(200, .01) pushes every draw to the top bin: zero variance,
        # so the ANOVA fails at runtime while validation passes
        path = self._experiment(tmp_path, {
            "conditions": [{
                "name": "degenerate", "method": "anova_means", "n_per_group": 10,
                "cells": {"kind": "beta_binomial", "r": 200.0, "s": 0.01, "nbin": 2},
                "n_sims": 3, "n_boot": 200,
            }],
        })
        code, out, _ = _run(capsys, "simulate", path)
        assert code == 1
        assert "DegenerateDataError" in out

    def test_progress_lines_on_stderr(self, capsys, tmp_path):
        path = self._experiment(tmp_path, {
            "conditions": [{
                "name": "tiny", "method": "anova_means", "n_per_group": 10,
                "cells": {"kind": "normal"}, "n_sims": 4, "n_boot": 200,
            }],
        })
        code, out, err = _run(capsys, "simulate", path, "--progress")
        assert code == 0
        assert "[1/1] tiny" in err
        assert "tiny" in out


@pytest.mark.parametrize("command", [
    ("decinter",), ("iband", "--ph"), ("plotdata",),
])
def test_progress_goes_to_stderr_only(capsys, normal_csv, command):
    argv = (*command, "--input", normal_csv, "--nboot", "200", "--seed", "4")
    code, quiet, quiet_err = _run(capsys, *argv)
    code_p, out, err = _run(capsys, *argv, "--progress")
    assert code == code_p == 0
    assert out == quiet
    assert quiet_err == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("loaded cells ((30, 30), (30, 30))")
    assert lines[1].startswith("bootstrap of 200 replicates took ")


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decinter", "--input", "x.csv", "--bogus"])
    assert exc.value.code == 2


def _csv_sample(path):
    sample, dropped = read_long_csv(path, "a", "b", "y")
    return [c.tolist() for c in sample.flat_cells()], sample.factor_a, sample.factor_b, dropped


@pytest.mark.parametrize("load, body", [
    (_csv_sample, "a,b,y\na1,b1,1.5\na1,b2,2\na2,b1,\na2,b1,3\na2,b2,4.25\n"),
    (load_experiment, json.dumps({"seed": 3, "conditions": [{
        "method": "anova_means", "n_per_group": 10, "cells": {"kind": "normal"}}]})),
], ids=["csv", "experiment"])
@pytest.mark.filterwarnings("ignore:smallest cell:UserWarning")
def test_bom_prefixed_input_matches_plain_file(tmp_path, load, body):
    """Spreadsheet exports often start with a UTF-8 byte-order mark."""
    plain = tmp_path / "plain"
    bom = tmp_path / "bom"
    plain.write_text(body, encoding="utf-8")
    bom.write_text(body, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(str(bom)) == load(str(plain))


def test_import_leaves_test_only_packages_unloaded():
    """The package and its CLI import none of the test-only dependencies,
    whose import would add to every command's start-up."""
    src = str(Path(qshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = ("import sys, qshift, qshift.cli; "
              "print(sorted({m.split('.')[0] for m in sys.modules} "
              "& {'scipy', 'mpmath', 'hypothesis'}))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert run.stdout == "[]\n"
