"""Quantile estimators and the incomplete-beta numerics behind them.

Two estimators are provided.  The Harrell-Davis estimator is a weighted
average of all order statistics, with weights given by the probability
that a Beta((n+1)q, (n+1)(1-q)) variate falls in ((i-1)/n, i/n].  The
"type 7" estimator (the R default) linearly interpolates between the two
order statistics bracketing h = (n-1)q + 1.

The regularized incomplete beta function is evaluated with the standard
continued-fraction expansion (modified Lentz), switching to the symmetry
relation I_x(a,b) = 1 - I_{1-x}(b,a) for x above (a+1)/(a+b+2) where the
fraction converges slowly.  Weights for a given (n, q) are cached and
reused across bootstrap replicates.
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


@lru_cache(maxsize=4096)
def _hd_weights_cached(n: int, q: float) -> np.ndarray:
    a = (n + 1.0) * q
    b = (n + 1.0) * (1.0 - q)
    cdf = _betainc_grid(np.arange(n + 1, dtype=float) / n, a, b)
    w = np.diff(cdf)
    # adjacent CDF values can round to differences of about -1e-16 in the
    # far tails; clamp so the weights stay a probability vector
    np.clip(w, 0.0, None, out=w)
    w.setflags(write=False)
    return w


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
    return _hd_weights_cached(n, _check_quantile(q)).copy()


def _as_sorted_sample(values) -> np.ndarray:
    xs = np.asarray(values, dtype=float)
    if xs.ndim != 1:
        xs = xs.ravel()
    if xs.size == 0:
        raise ValueError("sample must be non-empty")
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample contains NaN or infinite values")
    return np.sort(xs)


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th quantile of a sample."""
    xs = _as_sorted_sample(values)
    w = _hd_weights_cached(xs.size, _check_quantile(q))
    return float(w @ xs)


def estimate_quantiles(values, quantiles, estimator: str = HARRELL_DAVIS) -> np.ndarray:
    """Estimate several quantiles of one sample; returns one value per level."""
    xs = _as_sorted_sample(values)
    return _from_sorted_rows(xs[None, :], tuple(quantiles), estimator)[0]


@lru_cache(maxsize=512)
def _hd_weight_matrix(n: int, quantiles: tuple) -> np.ndarray:
    w = np.column_stack([_hd_weights_cached(n, _check_quantile(q)) for q in quantiles])
    w.setflags(write=False)
    return w


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
        return rows @ _hd_weight_matrix(n, quantiles)
    if estimator == TYPE7:
        if n == 1:
            return np.repeat(rows, len(quantiles), axis=1)
        j, g = _t7_interp(n, quantiles)
        lo = rows[:, j]
        return lo + g * (rows[:, j + 1] - lo)
    raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
