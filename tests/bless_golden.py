"""List or rewrite the golden outputs of ``tests/test_golden.py``, or compare
the fresh outputs of two trees.

Usage: ``PYTHONPATH=src python tests/bless_golden.py [NAME ...]``.  With no
names, every golden file whose bytes differ from a fresh run is printed
with the largest move of its estimates, and nothing is written.  With
names, only the named files are rewritten, each printed the same way if
its bytes changed, so the change can be recorded with its oracle.  A name
that is no golden case exits 2 before any case runs.

``python tests/bless_golden.py --against REV [NAME ...]`` runs every case
(or the named ones) twice, each in a subprocess: on REV's own ``src`` and
``tests/test_golden.py``, from ``git archive REV src tests experiments``
unpacked in a temporary directory, and on the working tree.  It prints
each case whose bytes differ, with the largest move of its estimates, and
each case only one tree has; it exits 1 if it printed any, 0 if not, and
writes nothing into the checkout.  The committed files need not match a
fresh run on every host (see ``test_golden``), so this is how a change
shows that it moves no bit: ``--against`` its parent lists no case.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import test_golden as g

ROOT = Path(__file__).resolve().parents[1]

# run in a subprocess on one tree: each case's output as a file in argv[1]
_RUN_CASES = """
import sys, tempfile
from pathlib import Path
import test_golden as g
out, names = Path(sys.argv[1]), set(sys.argv[2:])
with tempfile.TemporaryDirectory() as tmp:
    for name, data, argv in g.cases():
        if not names or name in names:
            (out / name).write_text(g.run_case(Path(tmp), data, argv), encoding="utf-8")
"""


def _largest_move(name: str, new: str, old: str) -> str:
    if not name.endswith(".json"):
        return "bytes differ"
    worst = 0.0
    moved_p = 0
    for a, b in zip(json.loads(new)["rows"], json.loads(old)["rows"]):
        scale = g.row_scale(b)
        for key in a:
            if key in g._EXACT_ROW_FIELDS:
                moved_p += a[key] != b[key]
            elif scale:
                worst = max(worst, abs(a[key] - b[key]) / scale)
    return f"largest estimate move {worst:.2e} of the row scale, {moved_p} exact fields moved"


def _fresh_outputs(tree: Path, names, out: Path) -> dict:
    """{case: output} of the tree's cases (the named ones, if any), run in
    a subprocess on the tree's own ``src`` and ``tests``.  The run's
    notices are shown only if it fails."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "tests")])}
    run = subprocess.run([sys.executable, "-c", _RUN_CASES, str(out), *names], env=env, cwd=out,
                         capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"the golden cases of {tree} failed:\n{run.stderr}")
    return {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()}


def against(rev: str, names) -> int:
    """Print each case whose fresh output differs between ``rev`` and the
    working tree; 1 if any does."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev,
                              "src", "tests", "experiments"], capture_output=True)
    if archive.returncode:
        print(f"error: git archive {rev}: {archive.stderr.decode().strip()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        old_tree = Path(tmp) / "rev"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter, where this Python has it, refuses links
            # and paths that leave the directory
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(old_tree, **safe)
        old = _fresh_outputs(old_tree, names, Path(tmp) / "rev-out")
        new = _fresh_outputs(ROOT, names, Path(tmp) / "tree-out")
    moved = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            print(name, f"only in {rev}")
        elif name not in old:
            print(name, "only in the working tree")
        elif new[name] != old[name]:
            print(name, _largest_move(name, new[name], old[name]))
        else:
            continue
        moved += 1
    return 1 if moved else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bless_golden.py")
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--against", metavar="REV",
                        help="compare fresh outputs of REV and the working tree; write nothing")
    args = parser.parse_args(argv)
    names = args.names
    cases = g.cases()
    unknown = sorted(set(names) - {name for name, _, _ in cases})
    if unknown:
        print(f"error: no golden case named {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.against:
        return against(args.against, names)
    if names:
        g.GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data, argv in cases:
            if names and name not in names:
                continue
            out = g.run_case(Path(tmp), data, argv)
            path = g.GOLDEN / name
            old = path.read_text(encoding="utf-8") if path.exists() else None
            if old != out:
                if names:
                    path.write_text(out, encoding="utf-8")
                print(name, "new" if old is None else _largest_move(name, out, old))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
