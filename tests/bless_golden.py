"""List or rewrite the golden outputs of ``tests/test_golden.py``.

Usage: ``PYTHONPATH=src python tests/bless_golden.py [NAME ...]``.  With no
names, every golden file whose bytes differ from a fresh run is printed
with the largest move of its estimates, and nothing is written.  With
names, only the named files are rewritten, each printed the same way if
its bytes changed, so the change can be recorded with its oracle.  A name
that is no golden case exits 2 before any case runs.
"""

import json
import sys
import tempfile
from pathlib import Path

import test_golden as g


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


def main(names) -> int:
    cases = g.cases()
    unknown = sorted(set(names) - {name for name, _, _ in cases})
    if unknown:
        print(f"error: no golden case named {', '.join(unknown)}", file=sys.stderr)
        return 2
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
