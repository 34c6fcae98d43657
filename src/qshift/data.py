"""Long-format CSV ingestion to a FactorialSample."""

import csv
import math

from .design import FactorialSample
from .quantiles import _MAX_ABS

__all__ = ["DataError", "read_long_csv", "parse_level_order"]

_MISSING = {"", "na", "n/a", "nan", "null", "none"}


class DataError(ValueError):
    """The input data file is malformed (CLI exit code 3)."""


def parse_level_order(text: str) -> tuple:
    """Parse a '--level-order' value of the form 'a1,a2:b1,b2'."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError("level order must look like 'A1,A2:B1,B2'")
    a = tuple(s.strip() for s in parts[0].split(","))
    b = tuple(s.strip() for s in parts[1].split(","))
    if len(a) != 2 or len(b) != 2 or "" in a or "" in b:
        raise ValueError("each factor needs exactly two non-empty level names")
    return a, b


def _ordered_levels(path, found: set, requested, factor: str, column: str) -> tuple:
    if len(found) != 2:
        raise DataError(
            f"{path}: column {column!r} must have exactly two distinct levels, "
            f"found {sorted(found)}"
        )
    if requested is None:
        return tuple(sorted(found))
    if set(requested) != found:
        raise DataError(
            f"{path}: requested {factor} level order {list(requested)} does not match "
            f"levels {sorted(found)} in column {column!r}"
        )
    return tuple(requested)


def read_long_csv(path, factor_a: str, factor_b: str, value: str,
                  level_order=None) -> tuple:
    """Read a long-format CSV into a FactorialSample.

    Each row holds a factor-A label, a factor-B label and a numeric
    value; column names are given by the caller.  Rows whose value cell
    is missing are dropped and counted.  Levels are ordered
    lexicographically unless ``level_order`` (a pair of level pairs)
    says otherwise.

    Returns
    -------
    (sample, n_dropped)
    """
    groups = {}
    seen_a, seen_b = set(), set()
    dropped = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: file is empty")
        for col in (factor_a, factor_b, value):
            if col not in reader.fieldnames:
                raise DataError(
                    f"{path}: missing column {col!r}; available columns are "
                    f"{reader.fieldnames}"
                )
        for lineno, row in enumerate(reader, start=2):
            raw = row.get(value)
            if raw is None or raw.strip().lower() in _MISSING:
                dropped += 1
                continue
            try:
                v = float(raw)
            except ValueError:
                raise DataError(
                    f"{path}: row {lineno}: column {value!r} has non-numeric "
                    f"value {raw!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(f"{path}: row {lineno}: column {value!r} is not finite")
            la = (row.get(factor_a) or "").strip()
            lb = (row.get(factor_b) or "").strip()
            if not la or not lb:
                raise DataError(f"{path}: row {lineno}: missing factor label")
            if abs(v) > _MAX_ABS:
                raise DataError(
                    f"{path}: row {lineno}: value {raw!r} of cell ({la!r}, {lb!r}) is beyond "
                    f"{_MAX_ABS:.4g} in magnitude, where differences of values overflow"
                )
            seen_a.add(la)
            seen_b.add(lb)
            groups.setdefault((la, lb), []).append(v)

    if not groups:
        raise DataError(f"{path}: no usable data rows")
    want_a, want_b = level_order if level_order is not None else (None, None)
    levels_a = _ordered_levels(path, seen_a, want_a, "factor A", factor_a)
    levels_b = _ordered_levels(path, seen_b, want_b, "factor B", factor_b)
    cells = []
    for la in levels_a:
        row_cells = []
        for lb in levels_b:
            if (la, lb) not in groups:
                raise DataError(f"{path}: no rows for cell ({la!r}, {lb!r})")
            row_cells.append(groups[(la, lb)])
        cells.append(tuple(row_cells))
    return FactorialSample(tuple(cells), levels_a, levels_b), dropped
