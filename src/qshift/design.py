"""Data containers for the 2x2 between-subjects design."""

import warnings
from dataclasses import dataclass

import numpy as np

from .quantiles import _as_sample

__all__ = [
    "FactorialSample",
    "QuantileTestRow",
    "INTERACTION",
    "MAIN_A",
    "MAIN_B",
    "CONTRASTS",
]

INTERACTION = "interaction"
MAIN_A = "main_a"
MAIN_B = "main_b"
CONTRASTS = (INTERACTION, MAIN_A, MAIN_B)

# below this per-cell size the extreme deciles are unreliable
RECOMMENDED_MIN_N = 20


@dataclass(frozen=True)
class FactorialSample:
    """The four cell samples of a 2x2 design plus factor labels.

    ``cells`` is indexed [level of A][level of B], zero-based; the helper
    :meth:`cell` uses the one-based (j, k) convention of the test
    definitions.
    """

    cells: tuple
    factor_a: tuple = ("A1", "A2")
    factor_b: tuple = ("B1", "B2")

    def __post_init__(self):
        if len(self.cells) != 2 or any(len(row) != 2 for row in self.cells):
            raise ValueError("cells must be a 2x2 arrangement of samples")
        norm = tuple(
            tuple(_as_sample(self.cells[j][k], f"cell ({j + 1},{k + 1})") for k in range(2))
            for j in range(2)
        )
        object.__setattr__(self, "cells", norm)
        object.__setattr__(self, "factor_a", tuple(str(x) for x in self.factor_a))
        object.__setattr__(self, "factor_b", tuple(str(x) for x in self.factor_b))
        if len(self.factor_a) != 2 or len(self.factor_b) != 2:
            raise ValueError("each factor needs exactly two level labels")
        if self.min_n() < RECOMMENDED_MIN_N:
            warnings.warn(
                f"smallest cell has n={self.min_n()}; quantile tests are "
                f"recommended for n >= {RECOMMENDED_MIN_N} per cell",
                UserWarning,
                stacklevel=2,
            )

    @classmethod
    def from_cells(cls, x11, x12, x21, x22, factor_a=("A1", "A2"), factor_b=("B1", "B2")):
        return cls(((x11, x12), (x21, x22)), factor_a, factor_b)

    def cell(self, j: int, k: int) -> np.ndarray:
        """Cell sample for level j of factor A and level k of factor B (1-based)."""
        return self.cells[j - 1][k - 1]

    def flat_cells(self) -> tuple:
        """The four cells in row-major order: (1,1), (1,2), (2,1), (2,2)."""
        return (self.cells[0][0], self.cells[0][1], self.cells[1][0], self.cells[1][1])

    def sizes(self) -> tuple:
        return tuple(tuple(c.size for c in row) for row in self.cells)

    def min_n(self) -> int:
        return min(c.size for row in self.cells for c in row)


@dataclass(frozen=True)
class QuantileTestRow:
    """One quantile's test result: estimates, difference, CI and p-values."""

    q: float
    est_lev1: float
    est_lev2: float
    dif: float
    ci_low: float
    ci_high: float
    p_value: float
    p_adjusted: float
