"""Quantile estimators and the incomplete-beta numerics behind them.

Two estimators are provided.  The Harrell-Davis estimator is a weighted
average of all order statistics, with weights given by the probability
that a Beta((n+1)q, (n+1)(1-q)) variate falls in ((i-1)/n, i/n].  The
"type 7" estimator (the R default) linearly interpolates between the two
order statistics bracketing h = (n-1)q + 1.

The regularized incomplete beta function is evaluated with the standard
continued-fraction expansion (modified Lentz), switching to the symmetry
relation I_x(a,b) = 1 - I_{1-x}(b,a) for x above (a+1)/(a+b+2) where the
fraction converges slowly.  Weights for a given n and quantile set are
cached and reused across bootstrap replicates.

Most Harrell-Davis weights of a large sample are negligible: the weight
of level q sits within about 8.5 standard deviations sqrt(q(1-q)/n) of q.
So each level reduces only its window, the order statistics left after
trimming at most ``_HD_TAIL_MASS`` = 1e-17 of weight from each tail (838
of n = 10^4 for the median).  The dropped weight moves an estimate by at
most 2e-17 max|x|, below the rounding of the sum itself: windowed and
dense estimates agree within 1e-14 max|x|.  An estimate that comes out
exactly zero is summed in full, because the signed p-value counts exact
zeros as ties and a window of tied values can be all zero where the full
sum is not.  Windows pay only where they are short.  Where a level set's
windows hold more than half of its n*Q weights (n below 153 for the
iband family, 176 for the deciles, 246 for a lone median), the dense
(n, Q) product is faster and is kept.

Neither reduction depends on the BLAS thread count.  A window is one dot
product per row, which OpenBLAS sums on one thread below 10^4 elements;
a window reaches 10^4 only past n = 10^6.  The dense product sums fewer
than 250 terms per estimate, and OpenBLAS's matrix product (Haswell
kernels) changed bits with its thread count only from about 400 terms up.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "regularized_incomplete_beta",
    "hd_weights",
    "hd_quantile",
    "estimate_quantiles",
    "HARRELL_DAVIS",
    "TYPE7",
    "ESTIMATORS",
]

HARRELL_DAVIS = "hd"
TYPE7 = "t7"
ESTIMATORS = (HARRELL_DAVIS, TYPE7)

# delta stalls a few ulps above 1 for shape parameters in the thousands,
# so the convergence test cannot be tighter than ~1e-14
_CF_EPS = 1e-14
_CF_TINY = 1e-300
_CF_MAXITER = 2000

# a window leaves out at most this much Harrell-Davis weight in each tail
_HD_TAIL_MASS = 1e-17


def _betacf(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Continued fraction for the incomplete beta, elementwise over x.

    Modified Lentz recurrence; callers must keep x below the symmetry
    split point (a+1)/(a+b+2) where convergence is fast.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _CF_TINY, where=np.abs(d) < _CF_TINY)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _CF_MAXITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _CF_TINY, where=np.abs(d) < _CF_TINY)
        c = 1.0 + aa / c
        np.copyto(c, _CF_TINY, where=np.abs(c) < _CF_TINY)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _CF_TINY, where=np.abs(d) < _CF_TINY)
        c = 1.0 + aa / c
        np.copyto(c, _CF_TINY, where=np.abs(c) < _CF_TINY)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < _CF_EPS):
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b})"
    )


def _betainc_grid(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """I_x(a, b) for an array of x values and scalar shapes a, b."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    lo = x == 0.0
    hi = x == 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    if np.any(mid):
        xm = x[mid]
        res = np.empty(xm.shape)
        lbeta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        direct = xm < (a + 1.0) / (a + b + 2.0)
        if np.any(direct):
            xs = xm[direct]
            front = np.exp(lbeta + a * np.log(xs) + b * np.log1p(-xs))
            res[direct] = front * _betacf(xs, a, b) / a
        swapped = ~direct
        if np.any(swapped):
            xs = xm[swapped]
            front = np.exp(lbeta + a * np.log(xs) + b * np.log1p(-xs))
            res[swapped] = 1.0 - front * _betacf(1.0 - xs, b, a) / b
        out[mid] = res
    return out


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Beta(a, b) CDF at x, i.e. the regularized incomplete beta I_x(a, b).

    Parameters
    ----------
    x : float in [0, 1]
    a, b : positive shape parameters

    Accurate to roughly 1e-13 relative error over the parameter ranges
    produced by sample sizes up to 10,000.
    """
    if not (a > 0.0 and b > 0.0) or math.isnan(a) or math.isnan(b):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return float(_betainc_grid(np.atleast_1d(np.float64(x)), float(a), float(b))[0])


def _check_quantile(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0 or math.isnan(q):
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {q}")
    return q


def hd_weights(n: int, q: float) -> np.ndarray:
    """Order-statistic weights of the Harrell-Davis estimate of quantile q.

    Returns a length-n vector of non-negative weights summing to one:
    w[i] = P((i-1)/n <= U <= i/n) for U ~ Beta((n+1)q, (n+1)(1-q)).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    return _hd_weight_matrix(n, (_check_quantile(q),))[:, 0].copy()


def _as_sample(values, name: str) -> np.ndarray:
    """``values`` as a flat float array; rejects an empty or non-finite sample."""
    xs = np.asarray(values, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return xs


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th quantile of a sample."""
    return float(estimate_quantiles(values, (q,), HARRELL_DAVIS)[0])


def estimate_quantiles(values, quantiles, estimator: str = HARRELL_DAVIS) -> np.ndarray:
    """Estimate several quantiles of one sample; returns one value per level."""
    xs = np.sort(_as_sample(values, "sample"))
    quantiles = tuple(quantiles)
    if not quantiles:
        raise ValueError("quantile set must be non-empty")
    return _from_sorted_rows(xs[None, :], quantiles, estimator)[0]


@lru_cache(maxsize=512)
def _hd_weight_matrix(n: int, quantiles: tuple) -> np.ndarray:
    """(n, Q) Harrell-Davis weights of an n-sample, one column per level."""
    grid = np.arange(n + 1, dtype=float) / n
    w = np.empty((n, len(quantiles)))
    for j, q in enumerate(quantiles):
        q = _check_quantile(q)
        w[:, j] = np.diff(_betainc_grid(grid, (n + 1.0) * q, (n + 1.0) * (1.0 - q)))
    # adjacent CDF values can round to differences of about -1e-16 in the
    # far tails; clamp so each column stays a probability vector
    np.clip(w, 0.0, None, out=w)
    w.setflags(write=False)
    return w


def _tail_windows(w: np.ndarray) -> tuple:
    """(lo, weights) per column of a weight matrix: the window
    ``w[lo:lo + weights.size, j]`` leaves out at most ``_HD_TAIL_MASS`` of
    the column's weight in each tail."""
    n = w.shape[0]
    head = np.count_nonzero(np.cumsum(w, axis=0) <= _HD_TAIL_MASS, axis=0)
    tail = np.count_nonzero(np.cumsum(w[::-1], axis=0) <= _HD_TAIL_MASS, axis=0)
    return tuple((int(lo), np.ascontiguousarray(w[lo:n - t, j]))
                 for j, (lo, t) in enumerate(zip(head, tail)))


@lru_cache(maxsize=512)
def _hd_windows(n: int, quantiles: tuple):
    """The windows of ``_hd_weight_matrix(n, quantiles)``, or None where
    they hold more than half of its n*Q weights and the dense product is
    faster (for 600 rows at n=30, deciles: 0.02 against 0.19 ms)."""
    windows = _tail_windows(_hd_weight_matrix(n, quantiles))
    if 2 * sum(w.size for _, w in windows) > n * len(quantiles):
        return None
    for _, w in windows:
        w.setflags(write=False)
    return windows


def _windowed_product(rows: np.ndarray, windows: tuple, weights: np.ndarray) -> np.ndarray:
    """``rows @ weights`` to within the dropped tails, from the windows of
    its columns.  Each row and window is one dot product, so a row's
    estimates do not depend on the rows reduced with it."""
    out = np.empty((rows.shape[0], len(windows)))
    for j, (lo, w) in enumerate(windows):
        np.vecdot(rows[:, lo:lo + w.size], w, out=out[:, j])
    # the signed p-value counts exact zeros as ties, and a window of tied
    # values can be all zero where the full sum is not: sum those in full
    r, j = np.nonzero(out == 0.0)
    if r.size:
        out[r, j] = np.einsum("kn,nk->k", rows[r], weights[:, j])
    return out


@lru_cache(maxsize=512)
def _t7_interp(n: int, quantiles: tuple) -> tuple:
    h = (n - 1) * np.array([_check_quantile(q) for q in quantiles])
    j = np.floor(h).astype(np.intp)
    g = h - j
    j.setflags(write=False)
    g.setflags(write=False)
    return j, g


def _from_sorted_rows(rows: np.ndarray, quantiles: tuple, estimator: str) -> np.ndarray:
    """Quantile estimates for every row of an already-sorted (m, n) matrix.

    Returns an (m, len(quantiles)) matrix.  This is the hot path shared by
    the bootstrap engines; rows must be sorted ascending.
    """
    n = rows.shape[1]
    if estimator == HARRELL_DAVIS:
        weights = _hd_weight_matrix(n, quantiles)
        windows = _hd_windows(n, quantiles)
        if windows is None:
            return rows @ weights
        return _windowed_product(rows, windows, weights)
    if estimator == TYPE7:
        if n == 1:
            return np.repeat(rows, len(quantiles), axis=1)
        j, g = _t7_interp(n, quantiles)
        lo = rows[:, j]
        return lo + g * (rows[:, j + 1] - lo)
    raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")


def _from_cumulative_counts(values: np.ndarray, cum: np.ndarray, quantiles: tuple,
                            estimator: str) -> np.ndarray:
    """``_from_sorted_rows`` for m rows given as counts over shared values.

    ``values`` holds D ascending distinct values, and ``cum[k, r]`` is how
    many elements of row r are at most ``values[k]``, so the last line of
    the (D, m) matrix holds the row length n >= 2.  Type 7 reads the same
    two order statistics as the sorted rows, so it is bit-identical;
    Harrell-Davis weighs each value by the weight mass of its order
    statistics, which changes only the summation order.
    """
    n = int(cum[-1, 0])
    if estimator == HARRELL_DAVIS:
        table = np.zeros((n + 1, len(quantiles)))
        np.cumsum(_hd_weight_matrix(n, quantiles), axis=0, out=table[1:])
        mass = np.diff(table[cum], axis=0, prepend=0.0)
        # cumsum adds the values strictly in order, so a value of zero mass
        # leaves the bits of the estimate unchanged
        return (mass * values[:, None, None]).cumsum(axis=0)[-1]
    if estimator == TYPE7:
        j, g = _t7_interp(n, quantiles)
        lo = values[(cum[:, :, None] <= j).sum(axis=0)]
        return lo + g * (values[(cum[:, :, None] <= j + 1).sum(axis=0)] - lo)
    raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
