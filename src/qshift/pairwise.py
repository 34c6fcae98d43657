"""Quantile tests on the distributions of all pairwise differences.

For each level j of factor A, form every difference X_ij1 - X_hj2
between the two cells at that level.  The interaction test compares the
quantiles of the two resulting difference distributions; the companion
estimand is the Wilcoxon-Mann-Whitney probability P(X < Y), estimated by
the fraction of strictly negative differences.

Unlike the cell-quantile contrast, this comparison is not invariant to
interchanging the rows and columns of the design, because the pairing of
cells changes.
"""

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    InferenceResult,
    _cell_resample_matrices,
    _quantile_rows,
    percentile_ci,
    signed_pvalue,
)
from .quantiles import _from_sorted_rows, estimate_quantiles

__all__ = [
    "IBAND_QUANTILES",
    "pairwise_differences",
    "ph_probability",
    "iband",
    "median_diff_test",
]

IBAND_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)

# cap on elements per pairwise scratch block, ~32 MB of float64
_BLOCK_ELEMENTS = 1 << 22


def _as_sample(values, name: str) -> np.ndarray:
    xs = np.asarray(values, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return xs


def pairwise_differences(x, y) -> np.ndarray:
    """All n1*n2 differences x_i - y_h, row-major over (i, h)."""
    xs = _as_sample(x, "x")
    ys = _as_sample(y, "y")
    return (xs[:, None] - ys[None, :]).ravel()


def ph_probability(diffs) -> float:
    """Fraction of strictly negative pairwise differences.

    This is the Wilcoxon-Mann-Whitney estimate of P(X < Y); ties count
    as zero.
    """
    d = np.asarray(diffs, dtype=float)
    if d.size == 0:
        raise ValueError("difference set must be non-empty")
    return float(np.count_nonzero(d < 0.0) / d.size)


def _diff_quantiles_by_block(mx: np.ndarray, my: np.ndarray, quantiles, estimator) -> np.ndarray:
    """Quantile estimates of the pairwise-difference set for each replicate.

    ``mx`` and ``my`` are (B, n1) and (B, n2) resample matrices; replicate
    b pairs row b of each.  Work proceeds in blocks of replicates so the
    pairwise scratch buffer stays bounded.
    """
    n_boot = mx.shape[0]
    n_pairs = mx.shape[1] * my.shape[1]
    out = np.empty((n_boot, len(quantiles)))
    step = max(1, _BLOCK_ELEMENTS // n_pairs)
    for start in range(0, n_boot, step):
        stop = min(start + step, n_boot)
        d = (mx[start:stop, :, None] - my[start:stop, None, :]).reshape(stop - start, n_pairs)
        d.sort(axis=1)
        out[start:stop] = _from_sorted_rows(d, tuple(quantiles), estimator)
    return out


def _iband_star(cells, config: BootstrapConfig) -> np.ndarray:
    """(n_boot, n_quantiles) replicates of the level-1 minus level-2 quantiles."""
    m11, m12, m21, m22 = _cell_resample_matrices(cells, config)
    return (_diff_quantiles_by_block(m11, m12, config.quantiles, config.estimator)
            - _diff_quantiles_by_block(m21, m22, config.quantiles, config.estimator))


def iband(data, config: BootstrapConfig | None = None, correction: str = "bh") -> list:
    """Interaction test comparing quantiles of the two difference distributions.

    Level 1 differences come from cells (1,1) vs (1,2), level 2 from
    (2,1) vs (2,2).  Each bootstrap replicate resamples the four original
    cells (not the difference sets), preserving the dependence structure
    of the pairwise differences within a replicate.

    Returns a list of QuantileTestRow; the default quantile set is
    (.1, .25, .5, .75, .9).
    """
    config = config if config is not None else BootstrapConfig(quantiles=IBAND_QUANTILES)
    cells = data.flat_cells()
    x11, x12, x21, x22 = cells
    est1 = estimate_quantiles(pairwise_differences(x11, x12), config.quantiles, config.estimator)
    est2 = estimate_quantiles(pairwise_differences(x21, x22), config.quantiles, config.estimator)
    return _quantile_rows(config.quantiles, (est1, est2, est1 - est2),
                          _iband_star(cells, config), config.alpha, correction)


def median_diff_test(x, y, config: BootstrapConfig | None = None) -> InferenceResult:
    """Test that the median of the pairwise differences x_i - y_h is zero.

    Under continuity this is equivalent to testing P(X < Y) = 1/2.  Uses
    the configured estimator at the .5 quantile with a percentile
    bootstrap that resamples the two source samples.
    """
    config = config if config is not None else BootstrapConfig()
    diffs = pairwise_differences(x, y)
    estimate = float(estimate_quantiles(diffs, (0.5,), config.estimator)[0])
    mx, my = _cell_resample_matrices((_as_sample(x, "x"), _as_sample(y, "y")), config)
    med_star = _diff_quantiles_by_block(mx, my, (0.5,), config.estimator)[:, 0]
    lo, hi = percentile_ci(med_star, config.alpha)
    return InferenceResult(estimate, lo, hi, signed_pvalue(med_star))
