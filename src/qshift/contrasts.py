"""Quantile-level interaction and main-effect tests for the 2x2 design.

For each quantile q the four cell quantiles theta_jk are estimated and a
linear contrast is bootstrapped: the interaction contrast is
(theta_11 - theta_12) - (theta_21 - theta_22); main effects compare the
per-level means of the cell quantiles, so the reported difference stays
on the data scale.  One set of bootstrap cell resamples is shared by
every quantile tested, and by every contrast tested together.
"""

import warnings

import numpy as np

from .bootstrap import DECILES, BootstrapConfig, _cell_resample_matrices, _quantile_rows, _with_family
from .design import CONTRASTS, INTERACTION, MAIN_A, MAIN_B
from .quantiles import _from_sorted_rows, estimate_quantiles

__all__ = ["contrast_value", "decinter"]

# extreme quantiles need larger cells before their bootstrap is trustworthy
_EXTREME_MIN_N = 30


def contrast_value(thetas, kind: str):
    """Level summaries and contrast for four cell statistics.

    ``thetas`` holds (theta_11, theta_12, theta_21, theta_22), scalars or
    same-shape arrays.  Returns (lev1, lev2, psi) where psi equals
    lev1 - lev2:

    - interaction: lev1 = theta_11 - theta_12, lev2 = theta_21 - theta_22
    - main_a: lev1 = (theta_11 + theta_12)/2, lev2 = (theta_21 + theta_22)/2
    - main_b: lev1 = (theta_11 + theta_21)/2, lev2 = (theta_12 + theta_22)/2
    """
    t11, t12, t21, t22 = thetas
    if kind == INTERACTION:
        lev1 = t11 - t12
        lev2 = t21 - t22
        # grouping by design diagonal keeps the value bit-identical under
        # row/column interchange (addition commutes; subtraction order fixed)
        return lev1, lev2, (t11 + t22) - (t12 + t21)
    if kind == MAIN_A:
        lev1 = (t11 + t12) / 2.0
        lev2 = (t21 + t22) / 2.0
    elif kind == MAIN_B:
        lev1 = (t11 + t21) / 2.0
        lev2 = (t12 + t22) / 2.0
    else:
        raise ValueError(f"unknown contrast {kind!r}; expected one of {CONTRASTS}")
    return lev1, lev2, lev1 - lev2


def _warn_extreme_quantiles(data, quantiles) -> None:
    if data.min_n() < _EXTREME_MIN_N and any(q < 0.1 or q > 0.9 for q in quantiles):
        warnings.warn(
            f"quantiles outside [0.1, 0.9] requested with smallest cell "
            f"n={data.min_n()} < {_EXTREME_MIN_N}; estimates will be unstable",
            UserWarning,
            stacklevel=4,  # the caller of decinter
        )


def _cell_thetas(cells, config: BootstrapConfig) -> list:
    """Per-cell (n_boot, n_quantiles) bootstrap quantile estimates."""
    mats = _cell_resample_matrices(cells, config)
    for m in mats:
        m.sort(axis=1)
    return [_from_sorted_rows(m, config.quantiles, config.estimator) for m in mats]


def _psi_star(cells, kind: str, config: BootstrapConfig) -> np.ndarray:
    """(n_boot, n_quantiles) bootstrap replicates of the contrast."""
    return contrast_value(_cell_thetas(cells, config), kind)[2]


def _contrast_tests(data, kinds, config: BootstrapConfig | None, correction: str) -> list:
    """decinter rows for each contrast in ``kinds``, all from one bootstrap.

    Every contrast is linear in the same per-cell replicate quantiles, so
    testing several together gives the rows of separate decinter calls.
    A config without quantiles tests the deciles.
    """
    config = _with_family(config, DECILES)
    _warn_extreme_quantiles(data, config.quantiles)
    cells = data.flat_cells()
    estimates = [estimate_quantiles(c, config.quantiles, config.estimator) for c in cells]
    points = [contrast_value(estimates, kind) for kind in kinds]
    thetas = _cell_thetas(cells, config)
    return [
        _quantile_rows(config.quantiles, point, contrast_value(thetas, kind)[2],
                       config.alpha, correction)
        for kind, point in zip(kinds, points)
    ]


def decinter(data, kind: str = INTERACTION, config: BootstrapConfig | None = None,
             correction: str = "bh") -> list:
    """Quantile-by-quantile contrast test for a 2x2 factorial sample.

    Parameters
    ----------
    data : FactorialSample
    kind : 'interaction', 'main_a' or 'main_b'
    config : BootstrapConfig, optional
        Defaults test the deciles .1 ... .9 with the Harrell-Davis
        estimator and 2000 bootstrap replicates; a config without
        quantiles tests the deciles.
    correction : 'bh', 'hochberg' or 'none'
        Multiplicity correction used for the adjusted p-value column.

    Returns
    -------
    list of QuantileTestRow, one per quantile in order.
    """
    return _contrast_tests(data, (kind,), config, correction)[0]
