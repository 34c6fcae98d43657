"""Multiplicity control: Hochberg step-up and Benjamini-Hochberg procedures.

There is one decision route.  :func:`adjust_pvalues` turns a family of
p-values into adjusted p-values, and a hypothesis is rejected exactly
where its adjusted p-value is at most alpha: the analysis tables print
these values, and the simulation rejects with the same comparison, so a
sweep estimates the error rate of the procedure the tables report.  A
sweep decides each condition once, the ANOVA's too, in the parent
process, in one call on its (iterations, family) matrix.  The step-up
scans of the two procedures (descending p-values, stop at the first one
under its threshold) live with the test oracles, as the independent
reference this route is checked against.
"""

import numpy as np

__all__ = ["adjust_pvalues", "CORRECTIONS"]

CORRECTIONS = ("none", "hochberg", "bh")


def _validate_pvalues(p) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.size == 0:
        raise ValueError("p-value family must be non-empty")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    return arr


def adjust_pvalues(p, method: str) -> np.ndarray:
    """Adjusted p-values under the named correction, in the input order.

    The last axis is the family: a 1-D input (a scalar gives shape (1,))
    is one, and each row of an (m, C) matrix is one, with the bits of a
    call on that row alone.  With ascending order statistics p_(1) <= ...
    <= p_(C), the adjusted value at rank i is min over j >= i of min(1,
    m_j p_(j)), with multiplier m_j = C - j + 1 for 'hochberg' and C / j
    for 'bh'.  'none' passes the p-values through.
    """
    if method not in CORRECTIONS:
        raise ValueError(f"unknown correction {method!r}; expected one of {CORRECTIONS}")
    p = _validate_pvalues(p)
    if method == "none":
        return p.copy()
    c = p.shape[-1]
    if method == "hochberg":
        multipliers = c - np.arange(c, dtype=float)
    else:
        multipliers = c / np.arange(1.0, c + 1.0)
    families = p.reshape(-1, c)
    rows = np.arange(families.shape[0])[:, None]
    # stable sort so tied inputs map to identical adjusted values
    order = np.argsort(families, axis=1, kind="stable")
    scaled = multipliers * families[rows, order]
    adjusted = np.minimum(np.minimum.accumulate(scaled[:, ::-1], axis=1)[:, ::-1], 1.0)
    out = np.empty_like(adjusted)
    out[rows, order] = adjusted
    return out.reshape(p.shape)
