"""Percentile-bootstrap core shared by every test in the package.

Every test takes one path from data to result: each cell's resample
indices are drawn once by :func:`_resample_indices`, each consumer turns
them into a (B, Q) matrix of replicate differences (one column per
quantile), from the values they index (:func:`_cell_resample_matrices`)
or, for tied ``iband`` cells, from counts of those values, and
:func:`_quantile_rows` reduces that matrix to rows with a percentile
confidence interval, a signed-count p-value with its tie term and an
adjusted p-value.  The simulation reduces the same matrix with the
column-wise :func:`signed_pvalue`.  All randomness is addressed through
:mod:`qshift.rng`, so results are reproducible and independent of any
parallel execution schedule.
"""

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .design import QuantileTestRow
from .multcomp import adjust_pvalues
from .quantiles import ESTIMATORS
from .rng import stream

__all__ = [
    "DECILES",
    "BootstrapConfig",
    "InferenceResult",
    "signed_pvalue",
    "percentile_ci",
]

DECILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

_CELL_STREAM = "cell"


def _usable_cpus() -> int:
    """CPUs this process may run on (the affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_integer(name: str, value) -> None:
    """Reject a count or seed that is not an integer (bools, floats, strings)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BootstrapConfig:
    """Settings shared by every percentile-bootstrap test.

    ``n_boot`` must satisfy n_boot >= 2/alpha so the confidence-interval
    order statistics exist; ``n_boot`` and ``seed`` must be integers.
    ``quantiles`` of None means the family of the test the config is
    used with: the deciles for :func:`~qshift.decinter` and
    ``IBAND_QUANTILES`` for :func:`~qshift.iband`.  One set of cell
    resamples serves every quantile tested.
    """

    n_boot: int = 2000
    alpha: float = 0.05
    seed: int = 0
    estimator: str = "hd"
    quantiles: tuple | None = None

    def __post_init__(self):
        _check_integer("n_boot", self.n_boot)
        _check_integer("seed", self.seed)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n_boot * self.alpha < 2.0:
            raise ValueError(
                f"n_boot={self.n_boot} is too small for alpha={self.alpha}; "
                f"need n_boot >= {math.ceil(2.0 / self.alpha)}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}")
        if self.quantiles is None:
            return
        object.__setattr__(self, "quantiles", tuple(float(q) for q in self.quantiles))
        if len(self.quantiles) == 0:
            raise ValueError("quantile set must be non-empty")
        if any(not 0.0 < q < 1.0 for q in self.quantiles):
            raise ValueError(f"quantiles must lie strictly in (0, 1), got {self.quantiles}")
        if any(q2 <= q1 for q1, q2 in zip(self.quantiles, self.quantiles[1:])):
            raise ValueError(f"quantiles must be strictly increasing, got {self.quantiles}")


def _with_family(config: BootstrapConfig | None, family) -> BootstrapConfig:
    """``config`` (default settings when None) testing ``family`` unless it names quantiles."""
    config = config if config is not None else BootstrapConfig()
    return config if config.quantiles is not None else replace(config, quantiles=family)


@dataclass(frozen=True)
class InferenceResult:
    """Point estimate with percentile CI and signed-count p-value."""

    estimate: float
    ci_low: float
    ci_high: float
    p_value: float


def _resample_indices(config: BootstrapConfig, i: int, n: int) -> np.ndarray:
    """(n_boot, n) indices into cell i, drawn from its own (seed, cell) stream.

    This is the single source of resampling randomness for every bootstrap
    path in the package: replicate b of cell i draws the elements listed in
    row b, regardless of which engine consumes them.
    """
    return stream(config.seed, _CELL_STREAM, i).integers(0, n, size=(config.n_boot, n))


def _cell_resample_matrices(cells, config: BootstrapConfig) -> list:
    """One (n_boot, n) resample matrix per cell: row b of matrix i holds the
    elements of cell i that :func:`_resample_indices` lists for replicate b.

    The matrices are views of one buffer.  Freed as one block, it lifts
    glibc's dynamic mmap and trim thresholds above a call's working set, so
    repeated calls reuse their memory instead of faulting in fresh pages.
    """
    samples = [np.asarray(c, dtype=float) for c in cells]
    buffer = np.empty(config.n_boot * sum(sample.size for sample in samples))
    mats, start = [], 0
    for i, sample in enumerate(samples):
        m = buffer[start:start + config.n_boot * sample.size].reshape(config.n_boot, sample.size)
        # every index is in range, so "wrap" changes no value; it lets take
        # write into the buffer without a temporary copy
        np.take(sample, _resample_indices(config, i, sample.size), out=m, mode="wrap")
        mats.append(m)
        start += m.size
    return mats


def _by_estimator(reduce, estimators, seconds=None) -> list:
    """``[reduce(e) for e in estimators]``: one sorted (or counted) block
    reduced with each estimator in turn.  When ``seconds`` is given, a list
    as long as ``estimators``, each call's duration is added to its entry.
    """
    results = []
    for k, estimator in enumerate(estimators):
        start = time.perf_counter()
        results.append(reduce(estimator))
        if seconds is not None:
            seconds[k] += time.perf_counter() - start
    return results


def _as_replicates(values) -> np.ndarray:
    """``values`` as a float array with the replicates along its first axis."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0:
        raise ValueError("bootstrap replicates must be an array, not a scalar")
    return values


def signed_pvalue(values):
    """Two-sided sign-count p-value of bootstrap replicates.

    With A replicates below zero and D exactly zero out of B, computes
    P = A/B + 0.5 D/B and returns 2 min(P, 1 - P).  The D term keeps the
    p-value calibrated when tied values make exact zeros likely.  A 1-D
    input gives a float; a (B, Q) matrix gives one p-value per column; a
    scalar, an empty input or a NaN replicate raises ValueError.
    """
    values = _as_replicates(values)
    if values.size == 0:
        raise ValueError("bootstrap distribution is empty")
    if np.isnan(values).any():  # neither below nor at zero: it would count as > 0
        raise ValueError("bootstrap replicates contain NaN")
    b = values.shape[0]
    a = np.count_nonzero(values < 0.0, axis=0)
    d = np.count_nonzero(values == 0.0, axis=0)
    # 2*min(P, 1-P) with exact integer numerators 2A+D and 2(B-A-D)+D,
    # so negating every replicate gives a bit-identical p-value
    p = np.minimum(2 * a + d, 2 * (b - a) - d) / b
    return float(p) if values.ndim == 1 else p


def percentile_ci(values, alpha: float) -> tuple:
    """Percentile confidence interval from bootstrap replicates.

    With l = alpha*B/2 rounded to the nearest integer (ties to even) and
    u = B - l, returns the (l+1)-th and u-th order statistics of the
    replicate values: floats for a 1-D input, one bound per column for a
    (B, Q) matrix; a scalar, too few replicates or a NaN raises ValueError.
    """
    values = np.sort(_as_replicates(values), axis=0)
    if np.isnan(values[-1:]).any():  # NaN sorts last, as if the largest replicate
        raise ValueError("bootstrap replicates contain NaN")
    b = values.shape[0]
    ell = round(alpha * b / 2.0)
    if ell < 1:
        raise ValueError(f"n_boot={b} is too small for alpha={alpha} (need alpha*B/2 >= 1)")
    if 2 * ell > b - 1:
        raise ValueError(f"alpha={alpha} is too large for n_boot={b}")
    lo, hi = values[ell], values[b - ell - 1]
    if values.ndim == 1:
        return float(lo), float(hi)
    return lo, hi


def _quantile_rows(quantiles, point, replicates: np.ndarray, alpha: float,
                   correction: str) -> list:
    """One QuantileTestRow per quantile from point estimates and replicates.

    ``point`` is (lev1, lev2, dif), each with one value per quantile;
    column i of the (B, Q) ``replicates`` holds the bootstrap
    distribution of dif[i].
    """
    lev1, lev2, dif = point
    pvals = signed_pvalue(replicates)
    adjusted = adjust_pvalues(pvals, correction)
    lo, hi = percentile_ci(replicates, alpha)
    return [
        QuantileTestRow(
            q=q,
            est_lev1=float(lev1[i]),
            est_lev2=float(lev2[i]),
            dif=float(dif[i]),
            ci_low=float(lo[i]),
            ci_high=float(hi[i]),
            p_value=float(pvals[i]),
            p_adjusted=float(adjusted[i]),
        )
        for i, q in enumerate(quantiles)
    ]
