"""Quantile tests on the distributions of all pairwise differences.

For each level j of factor A, form every difference X_ij1 - X_hj2
between the two cells at that level.  The interaction test compares the
quantiles of the two resulting difference distributions; the companion
estimand is the Wilcoxon-Mann-Whitney probability P(X < Y), estimated by
the fraction of strictly negative differences.

Unlike the cell-quantile contrast, this comparison is not invariant to
interchanging the rows and columns of the design, because the pairing of
cells changes.

Each bootstrap replicate needs quantiles of n1*n2 differences.  When the
two cells hold V1 and V2 distinct values with V1*V2 at most a quarter of
n1*n2 (counts, ratings, rounded data), the differences are counted
instead of built and sorted: the histogram of a replicate's differences
follows from the counts of the two cells' values among its resample
indices, and its cumulative counts give the order statistics.  A
Harrell-Davis window sums only the distinct differences that some
replicate's window reaches, and the counts are int32 below 2^31
differences (int64 from there up).  The rule reads the two cells'
distinct values, not the resamples, so it is deterministic: the same
cells take the same path at every B and seed.  The counting path is
exact up to summation order: type-7 estimates are bit-identical to the
sort, Harrell-Davis estimates differ in the last bits.  Continuous cells
always take the sort.

The sort runs on one thread per usable CPU (the affinity mask, so
``taskset`` limits it) once each thread has 2^20 differences or more, as
at n = 100 per cell and B = 2,000; inside a simulation pool worker it runs
on one.  numpy's product and sort release the GIL, and each thread
fills its own contiguous replicates, so results never depend on the count.
Each thread works through its replicates in blocks of at most 2^17
differences (1 MB), so a block is built, sorted and reduced while
it stays in the core's cache, and a level's scratch is about 1 MB per
thread whatever B is.  Type 7 gathers its order statistics from each
block and interpolates once per level.  The counting path and the
one-row point estimates stay on one thread.  So does a Harrell-Davis
level whose weights are dense (n1*n2 up to about 157 for the iband
quantiles, 257 for a lone median): the last bits of a row of the dense
product depend on how many rows are multiplied with it, so all B rows are
one block, of B*n1*n2 differences (2.5 MB at n1*n2 = 157, B = 2,000).

A block's differences are built as one batched matrix product: the rows
[x_i, 1] of each replicate times its columns [1, -y_j].  Both products
are exact, so each difference is rounded once, as by a subtraction, and
every bit is kept, whatever BLAS and however many BLAS threads run it.
A product sum starts at +0.0, so a difference of equal values is +0.0;
the samples hold no -0.0 (see ``_as_sample``), so that is the
subtraction's bit too.  Each thread keeps the two operands of one block,
tens of KB.
"""

import functools
import multiprocessing
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    InferenceResult,
    _by_estimator,
    _quantile_rows,
    _resample_indices,
    _usable_cpus,
    _with_family,
    percentile_ci,
    signed_pvalue,
)
from .quantiles import (
    HARRELL_DAVIS,
    TYPE7,
    _as_sample,
    _from_cumulative_counts,
    _from_sorted_rows,
    _hd_weight_matrix,
    _t7_from_order_stats,
    _t7_interp,
)

__all__ = [
    "IBAND_QUANTILES",
    "pairwise_differences",
    "ph_probability",
    "iband",
    "median_diff_test",
]

IBAND_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)

# differences in one block of a sort thread: 1 MB of float64, inside one
# core's 2 MB L2, so a block is built, sorted and reduced in cache.  One
# 32 MB block split among the threads was not faster, and it set iband's
# peak RSS: 154 against 95 MB at n = 100, B = 2,000 (2-core VM)
_BLOCK_ELEMENTS = 1 << 17

# differences a sort thread must have to itself: at n=30, B=600 (5.4e5
# differences) a second thread at 1 << 18 made iband 9-17% slower on a
# 2-core VM, and at n=100, B=2000 two threads cut it by a third
_THREAD_ELEMENTS = 1 << 20

# value pairs times replicates in one block of the counting path: its
# (pairs, rows) count products, 1 MB of int32 at most (2 MB of int64 from
# 2^31 differences up), are reused across blocks instead of being mapped
# and faulted in afresh on every call
_COUNT_ELEMENTS = 1 << 18

# counting beats sorting once the distinct value pairs are this many times
# fewer than the pairwise differences: on a 2-core VM it was 2-19x faster
# at n=100 up to V1*V2 = .34 n1*n2, and even with the sort near .38 at n=30
_TIE_RATIO = 4


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
    if np.isnan(d).any():
        raise ValueError("difference set contains NaN")
    return float(np.count_nonzero(d < 0.0) / d.size)


def _sort_threads(n_boot: int, n_pairs: int) -> int:
    """Threads for the sort path: one per usable CPU, but at most one per
    ``_THREAD_ELEMENTS`` differences and per two replicates, and one
    inside a pool worker, whose sibling workers already hold the other
    CPUs."""
    threads = min(n_boot // 2, n_boot * n_pairs // _THREAD_ELEMENTS)
    if threads < 2 or multiprocessing.parent_process() is not None:
        return 1
    return min(threads, _usable_cpus())


def _tied_cells(x: np.ndarray, y: np.ndarray):
    """Each cell's distinct values and the index of each element among them,
    or None unless the V1*V2 distinct pairs number at most n1*n2 / _TIE_RATIO.

    The rule reads the cells, not their resamples, so every replicate count
    takes the same path for the same cells.
    """
    ux, vx = np.unique(x, return_inverse=True)
    uy, vy = np.unique(y, return_inverse=True)
    if ux.size * uy.size > x.size * y.size // _TIE_RATIO:
        return None
    return ux, vx, uy, vy


def _level(x: np.ndarray, y: np.ndarray, rows: int, draw):
    """The quantile estimates of a level's pairwise-difference set for each
    of ``rows`` replicates, as a function of (quantiles, estimators,
    seconds=None) that returns one (rows, n_quantiles) matrix per
    estimator: each block of replicates is sorted or counted once and
    reduced with every estimator before the next block is built, and
    ``seconds``, when given, gains each estimator's reduction time (see
    ``_by_estimator``).

    ``draw(0, n1)`` and ``draw(1, n2)`` give the (rows, n) elements each
    replicate draws from ``x`` and from ``y``; the point estimate draws each
    cell once, in order.  Tied cells (see ``_tied_cells``) are counted
    straight from the indices (see ``_diff_quantiles_by_count``).  Otherwise
    the drawn values are built into differences and sorted (see
    ``_diff_quantiles_by_block``).
    """
    tied = _tied_cells(x, y)
    if tied is not None:
        ux, vx, uy, vy = tied
        return functools.partial(_diff_quantiles_by_count,
                                 ux, vx, draw(0, x.size), uy, vy, draw(1, y.size))
    # the sort path reads values only: as in _cell_resample_matrices, each
    # value matrix is allocated before its cell's indices are drawn, so the
    # index matrices leave no hole below live data (gathering with x[ix]
    # raised iband's peak RSS at n = 100, B = 2,000 by 0.5%, and holding
    # both index matrices of a level by 2.5%)
    mx, my = np.empty((rows, x.size)), np.empty((rows, y.size))
    np.take(x, draw(0, x.size), out=mx, mode="wrap")
    np.take(y, draw(1, y.size), out=my, mode="wrap")
    return functools.partial(_diff_quantiles_by_block, mx, my)


def _diff_quantiles_by_block(mx: np.ndarray, my: np.ndarray, quantiles, estimators,
                             seconds=None) -> list:
    """Sorted-difference quantile estimates for each replicate, one
    (B, n_quantiles) matrix per estimator.

    ``mx`` and ``my`` are (B, n1) and (B, n2) resample matrices; replicate
    b pairs row b of each, and its differences are built and sorted.  A
    block's differences are one batched product of its rows [x_i, 1] and
    columns [1, -y_j], which pays numpy's per-loop cost once per block
    where a broadcast subtraction pays it once per n2 differences.  Both
    products are exact and the sum starts at +0.0, so each difference has
    the bits of x_i - y_j for samples without -0.0 (see ``_as_sample``).
    The replicates are split into contiguous parts, one per thread (see
    ``_sort_threads``), and each part into equal blocks of at most
    ``_BLOCK_ELEMENTS`` differences, each built, sorted and reduced while
    it stays in cache.  Type 7 only gathers its order statistics from each
    block and interpolates them once, after the last.  A replicate's
    windowed estimates depend on its own row only, so neither split
    changes a bit.  The last bits of a row of the dense Harrell-Davis
    product depend on how many rows are multiplied with it (OpenBLAS's
    Haswell and Zen kernels), so a level whose weights are dense is one
    block of all B rows on one thread.
    """
    quantiles = tuple(quantiles)
    (n_boot, n1), n2 = mx.shape, my.shape[1]
    n_pairs = n1 * n2
    cols, g = _t7_interp(n_pairs, quantiles)
    outs = [np.empty((n_boot, cols.size if e == TYPE7 else len(quantiles)))
            for e in estimators]
    # building the weights here also fills the cache before any thread reads it
    dense = HARRELL_DAVIS in estimators and _hd_weight_matrix(n_pairs, quantiles).dense is not None
    threads = 1 if dense else _sort_threads(n_boot, n_pairs)
    spent = [[0.0] * len(estimators) for _ in range(threads)]
    parts = [n_boot * t // threads for t in range(threads + 1)]
    step = n_boot if dense else max(1, min(-(-n_boot // threads), _BLOCK_ELEMENTS // n_pairs))
    # one scratch buffer for every block of every thread, freed as one:
    # a fresh block per step would fault in its pages again
    buf = np.empty((threads, step, n1, n2))

    def sort_part(t: int) -> None:
        lo, size = parts[t], parts[t + 1] - parts[t]
        blocks = -(-size // step)
        # the operands [x_i, 1] and [1, -y_j] of one block, per thread:
        # tens of KB, where a level's operands would add MBs of peak RSS
        # (a dense level's one block holds (n1 + n2) * 2 * B doubles)
        xs, ys = np.empty((step, n1, 2)), np.empty((step, 2, n2))
        xs[:, :, 1] = 1.0
        ys[:, 0] = 1.0
        for i in range(blocks):
            start, stop = lo + size * i // blocks, lo + size * (i + 1) // blocks
            rows = stop - start
            xs[:rows, :, 0] = mx[start:stop]
            np.negative(my[start:stop], out=ys[:rows, 1])
            d = np.matmul(xs[:rows], ys[:rows], out=buf[t, :rows]).reshape(rows, n_pairs)
            d.sort(axis=1)

            def reduce(k: int) -> None:
                if estimators[k] == TYPE7:
                    # every column is in range; "clip" only skips the
                    # buffered copy that checking them costs
                    np.take(d, cols, axis=1, out=outs[k][start:stop], mode="clip")
                else:
                    outs[k][start:stop] = _from_sorted_rows(d, quantiles, estimators[k])

            _by_estimator(reduce, range(len(estimators)), spent[t])

    if threads == 1:
        sort_part(0)
    else:
        # a pool per call: an idle pool kept across calls would be
        # inherited by the sweep's forked workers
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(sort_part, range(threads)))
    # type 7 interpolates once per level: a sweep splits a unit's time by
    # each estimator's own seconds, and a call per block cut type 7's
    # iterations per second on the FWER desk grid by about a third
    outs = _by_estimator(lambda k: _t7_from_order_stats(outs[k], g)
                         if estimators[k] == TYPE7 else outs[k],
                         range(len(estimators)), spent[0])
    if seconds is not None:
        for k, part_seconds in enumerate(zip(*spent)):
            seconds[k] += sum(part_seconds)
    return outs


def _value_counts(inverse: np.ndarray, index: np.ndarray, n_values: int, dtype) -> np.ndarray:
    """(n_values, rows) occurrences of each value in each row of ``index``,
    as ``dtype``, where element e of the cell is value ``inverse[e]``."""
    rows = index.shape[0]
    # value v in row r counts at v * rows + r: one gather and one in-place add
    key = np.take(inverse * rows, index)
    key += np.arange(rows)[:, None]
    counts = np.bincount(key.ravel(), minlength=n_values * rows)
    return counts.astype(dtype, copy=False).reshape(n_values, rows)


def _diff_quantiles_by_count(ux, vx, ix, uy, vy, iy, quantiles: tuple, estimators,
                             seconds=None) -> list:
    """The sort path's estimates, from counts of each cell's distinct values.

    Element e of the first cell is ``ux[vx[e]]`` and row b of ``ix`` lists
    the elements replicate b draws from it, in any order; likewise ``uy``,
    ``vy`` and ``iy`` for the second cell.  A replicate holding
    ux[i] c_x[i] times and uy[h] c_y[h] times holds the difference
    ux[i] - uy[h] c_x[i] * c_y[h] times.  Summing those products over the
    pairs of each distinct difference, in ascending order, gives the exact
    cumulative counts of the n1*n2 sorted differences without building
    them.  A value no replicate draws has count zero and changes no bit.
    No product or cumulative count exceeds n1*n2, so they are int32 below
    2^31 differences, which halves the traffic of the (pairs, rows)
    products, and int64 from there up.
    """
    diffs = (ux[:, None] - uy[None, :]).ravel()
    order = np.argsort(diffs, kind="stable")
    i, h = np.divmod(order, uy.size)
    values, first = np.unique(diffs[order], return_index=True)
    n_boot = ix.shape[0]
    dtype = np.int32 if vx.size * vy.size < 1 << 31 else np.int64
    outs = [np.empty((n_boot, len(quantiles))) for _ in estimators]
    step = max(1, _COUNT_ELEMENTS // diffs.size)
    for start in range(0, n_boot, step):
        stop = min(start + step, n_boot)
        cx = _value_counts(vx, ix[start:stop], ux.size, dtype)
        cy = _value_counts(vy, iy[start:stop], uy.size, dtype)
        # reduceat and cumsum would widen int32 to int64 unless told not to
        cum = np.add.reduceat(cx[i] * cy[h], first, axis=0, dtype=dtype)
        np.cumsum(cum, axis=0, out=cum)
        reduced = _by_estimator(lambda e: _from_cumulative_counts(values, cum, quantiles, e),
                                estimators, seconds)
        for out, r in zip(outs, reduced):
            out[start:stop] = r
    return outs


def _point_quantiles(x: np.ndarray, y: np.ndarray, quantiles, estimator) -> np.ndarray:
    """Quantile estimates of the differences of the two samples themselves."""
    return _level(x, y, 1, lambda _, n: np.arange(n)[None, :])(quantiles, (estimator,))[0][0]


def _resampled_level(cells, first: int, config: BootstrapConfig):
    """``_level`` of cells ``first`` and ``first + 1``, each resampled from
    its own (seed, cell) stream.  A simulated cell does not pass through
    ``_as_sample``, so -0.0 is read as +0.0 here too."""
    x, y = (np.asarray(cells[i], dtype=float) + 0.0 for i in (first, first + 1))
    return _level(x, y, config.n_boot,
                  lambda i, n: _resample_indices(config, first + i, n))


def _iband_star(cells, config: BootstrapConfig, estimators, seconds=None) -> list:
    """Per estimator, the (n_boot, n_quantiles) replicates of the level-1
    minus level-2 quantiles (``config.estimator`` is not read); ``seconds``
    as in ``_level``."""
    # both levels are resampled before either is reduced, as one draw of
    # all four cells would be: drawing level 2 between the two sorts made
    # iband 5-10% slower at n = 30 and 50, B = 600 (2-core VM)
    level1, level2 = (_resampled_level(cells, first, config) for first in (0, 2))
    return [a - b for a, b in zip(level1(config.quantiles, estimators, seconds),
                                  level2(config.quantiles, estimators, seconds))]


def iband(data, config: BootstrapConfig | None = None, correction: str = "bh") -> list:
    """Interaction test comparing quantiles of the two difference distributions.

    Level 1 differences come from cells (1,1) vs (1,2), level 2 from
    (2,1) vs (2,2).  Each bootstrap replicate resamples the four original
    cells (not the difference sets), preserving the dependence structure
    of the pairwise differences within a replicate.

    Returns a list of QuantileTestRow; the quantile set is
    (.1, .25, .5, .75, .9) unless the config names its own.
    """
    config = _with_family(config, IBAND_QUANTILES)
    cells = data.flat_cells()
    est1 = _point_quantiles(cells[0], cells[1], config.quantiles, config.estimator)
    est2 = _point_quantiles(cells[2], cells[3], config.quantiles, config.estimator)
    return _quantile_rows(config.quantiles, (est1, est2, est1 - est2),
                          _iband_star(cells, config, (config.estimator,))[0],
                          config.alpha, correction)


def median_diff_test(x, y, config: BootstrapConfig | None = None) -> InferenceResult:
    """Test that the median of the pairwise differences x_i - y_h is zero.

    Under continuity this is equivalent to testing P(X < Y) = 1/2.  Uses
    the configured estimator at the .5 quantile with a percentile
    bootstrap that resamples the two source samples.  ``config.quantiles``
    must be None or (0.5,).
    """
    config = config if config is not None else BootstrapConfig()
    if config.quantiles not in (None, (0.5,)):
        raise ValueError(f"median_diff_test tests the median only; config.quantiles "
                         f"must be None or (0.5,), got {config.quantiles}")
    xs, ys = _as_sample(x, "x"), _as_sample(y, "y")
    estimate = float(_point_quantiles(xs, ys, (0.5,), config.estimator)[0])
    med_star = _resampled_level((xs, ys), 0, config)((0.5,), (config.estimator,))[0][:, 0]
    lo, hi = percentile_ci(med_star, config.alpha)
    return InferenceResult(estimate, lo, hi, signed_pvalue(med_star))
