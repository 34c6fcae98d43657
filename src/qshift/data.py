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
    value, written in ASCII without digit-group underscores; column names
    are given by the caller, and each must name exactly one header column
    (other columns may repeat).  A leading byte-order mark is stripped and
    blank lines are skipped, before the header as after it.  Rows whose
    value cell is missing, or that end before the value column, are
    dropped and counted; a row numbers its error messages by its line in
    the file (the last line of a record whose quoted field spans lines).
    Levels are ordered lexicographically unless
    ``level_order`` (a pair of level pairs) says otherwise.

    Returns
    -------
    (sample, n_dropped)
    """
    groups = {}
    dropped = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(filter(None, reader), None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        for col in (factor_a, factor_b, value):
            count = header.count(col)
            if not count:
                raise DataError(
                    f"{path}: missing column {col!r}; available columns are {header}"
                )
            if count > 1:
                raise DataError(
                    f"{path}: the header names column {col!r} {count} times; "
                    f"a column that is read must be named once"
                )
        ia, ib, iv = (header.index(col) for col in (factor_a, factor_b, value))
        for row in filter(None, reader):
            lineno = reader.line_num
            width = len(row)
            raw = row[iv] if iv < width else ""
            if raw.strip().lower() in _MISSING:
                dropped += 1
                continue
            try:
                # float() also reads "1_0" as 10 and non-ASCII digits such
                # as the Arabic-Indic three as 3; a data file holds neither
                if not raw.isascii() or "_" in raw:
                    raise ValueError(raw)
                v = float(raw)
            except ValueError:
                raise DataError(
                    f"{path}: row {lineno}: column {value!r} has non-numeric "
                    f"value {raw!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(f"{path}: row {lineno}: column {value!r} is not finite")
            la = row[ia].strip() if ia < width else ""
            lb = row[ib].strip() if ib < width else ""
            if not la or not lb:
                raise DataError(f"{path}: row {lineno}: missing factor label")
            if abs(v) > _MAX_ABS:
                raise DataError(
                    f"{path}: row {lineno}: value {raw!r} of cell ({la!r}, {lb!r}) is beyond "
                    f"{_MAX_ABS:.4g} in magnitude, where differences of values overflow"
                )
            groups.setdefault((la, lb), []).append(v)

    if not groups:
        raise DataError(f"{path}: no usable data rows")
    want_a, want_b = level_order if level_order is not None else (None, None)
    levels_a = _ordered_levels(path, {la for la, _ in groups}, want_a, "factor A", factor_a)
    levels_b = _ordered_levels(path, {lb for _, lb in groups}, want_b, "factor B", factor_b)
    cells = []
    for la in levels_a:
        row_cells = []
        for lb in levels_b:
            if (la, lb) not in groups:
                raise DataError(f"{path}: no rows for cell ({la!r}, {lb!r})")
            row_cells.append(groups[(la, lb)])
        cells.append(tuple(row_cells))
    return FactorialSample(tuple(cells), levels_a, levels_b), dropped
