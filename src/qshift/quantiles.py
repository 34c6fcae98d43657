"""Quantile estimators and the incomplete-beta numerics behind them.

Two estimators are provided.  The Harrell-Davis estimator is a weighted
average of the order statistics, with weights given by the probability
that a Beta((n+1)q, (n+1)(1-q)) variate falls in ((i-1)/n, i/n].  The
"type 7" estimator (the R default) linearly interpolates between the two
order statistics bracketing h = (n-1)q + 1.

The beta tails come from the standard continued fraction (modified
Lentz), one vectorized pass over every point and level a build needs,
each element leaving the loop at its own convergence.  Below the split
point (a+1)/(a+b+2) it gives the lower CDF I_x(a, b); above it, the upper
tail I_{1-x}(b, a) directly, from the complement argument as the caller
computes it ((n-i)/n for the weights, f/(d+f) for the ANOVA F tails), so
neither tail is a difference of numbers near 1 (DiDonato & Morris 1992,
ACM TOMS 18, 360-373).  The F tails of ``_f_sf`` take the same single
pass, with per-element shapes, so this module alone holds the split rule.
Weights are lower-CDF differences below the split and upper-tail
differences above it; the one interval across the split takes 1 minus
both tails, so each column sums to 1.  The median's column is its own
mirror image bit for bit.

Measured against scipy (betainc below the split, betaincc above) over the
points a build evaluates for the deciles and the iband levels, the tails
are off by at most 5.1e-13 absolute at n = 900, 1.0e-11 at n = 10^4 and
7.0e-11 at n = 9*10^4, the same in both tails.  Against mpmath, weights
in both tails of every window agree to 5.3e-13 relative at n = 400,
1.3e-12 at 900 and 5.6e-11 at 10^4; the one or two weights touching the
split take up the prefactor's common error (1.7e-11 absolute at 10^4) so
that the column sums to 1.  The error grows with the shape
parameters: it is the cancellation between lgamma(a+b) - lgamma(a) -
lgamma(b) and a log x + b log(1-x) in the prefactor.

Most Harrell-Davis weights of a large sample are negligible: the weight
of level q sits within about 8.5 standard deviations sqrt(q(1-q)/n) of q.
So the continued fraction runs only over the bracket q*n -+ t around each
level, t = n sqrt(ln(1/eps) / (2(n+2))) with eps = ``_HD_TAIL_MASS`` =
1e-17.  Beta(a, b) is sub-Gaussian with variance proxy 1/(4(a+b+1))
(Marchal & Arbel 2017, Electron. Commun. Probab. 22, no. 54), and here
a+b+1 = n+2, so neither tail beyond the bracket holds more than eps.  Each
level keeps its window: the order statistics left after trimming at most
1e-17 of weight from each tail, and no more (848 of n = 10^4 for the
median).  The estimate is the sum over the window on every path: the
windowed dot products, the dense product below the coverage rule (its
columns are exactly zero outside the windows), and the counting path of
tied pairwise differences.  The dropped weight moves an estimate by at most
2e-17 max|x|.  A window of zeros therefore sums to exactly zero on every
path, and the signed p-value counts it as a tie; there is no fallback to
a full sum.  Where a level set's windows hold more than half of its n*Q
weights (n up to about 157 for the iband family, 178 for the deciles,
257 for a lone median), the dense (n, Q) product is faster and is kept.
A dense product's column bits depend on how many levels it multiplies,
so a level estimated alone and within a set agree bit for bit only
where both take the windows (always above n = 257).

Neither reduction depends on the BLAS thread count.  A window is one dot
product per row, which OpenBLAS sums on one thread below 10^4 elements;
a window reaches 10^4 only past n = 10^6.  The dense product sums fewer
than 260 terms per estimate, and OpenBLAS's matrix product (Haswell
kernels) changed bits with its thread count only from about 400 terms up.
"""

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
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

# the largest |x| a sample may hold: a difference of two such values, or
# a contrast of four, still stays finite
_MAX_ABS = sys.float_info.max / 4


def _lentz_step(dc: np.ndarray, h: np.ndarray, aa: np.ndarray) -> np.ndarray:
    """One modified-Lentz step with coefficient aa on the stacked (d, c)
    rows; multiplies h by the step's factor and returns it."""
    d, c = dc
    d *= aa
    d += 1.0
    np.divide(aa, c, out=c)
    c += 1.0
    np.copyto(dc, _CF_TINY, where=np.abs(dc) < _CF_TINY)
    np.divide(1.0, d, out=d)
    delta = d * c
    h *= delta
    return delta


def _betacf(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta, elementwise over x and
    the shapes a, b (arrays like x, or scalars).

    Modified Lentz recurrence; callers must keep each x below its split
    point (a+1)/(a+b+2) where convergence is fast.  Each element leaves
    the loop at its own convergence, so its value does not depend on the
    elements evaluated with it.
    """
    out = np.empty(x.shape)
    if x.size == 0:
        return out
    idx = np.arange(x.size)
    live = np.ones(x.size, dtype=bool)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    dc = np.ones((2, x.size))
    d = dc[0]
    np.subtract(1.0, qab * x / qap, out=d)
    np.copyto(d, _CF_TINY, where=np.abs(d) < _CF_TINY)
    np.divide(1.0, d, out=d)
    h = d.copy()
    for m in range(1, _CF_MAXITER + 1):
        m2 = 2 * m
        am2 = a + m2
        _lentz_step(dc, h, m * (b - m) * x / ((qam + m2) * am2))
        delta = _lentz_step(dc, h, -(a + m) * (qab + m) * x / (am2 * (qap + m2)))
        done = (np.abs(delta - 1.0) < _CF_EPS) & live
        if done.any():
            # an element's value is h at its first convergence; elements
            # that converged keep iterating, unread, until a quarter of
            # the arrays (and at least 64 elements) is dead
            out[idx[done]] = h[done]
            live &= ~done
            alive = np.count_nonzero(live)
            if alive == 0:
                return out
            if live.size - alive >= max(64, live.size // 4):
                x, a, b, qab, qap, qam, h, idx = (
                    v[live] if np.ndim(v) else v for v in (x, a, b, qab, qap, qam, h, idx))
                dc = dc[:, live]
                live = np.ones(alive, dtype=bool)
    # name the shapes of an element that is still iterating
    i = np.argmax(live)
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge "
                          f"(a={np.broadcast_to(a, live.shape)[i]}, "
                          f"b={np.broadcast_to(b, live.shape)[i]})")


# Stirling-series coefficients of lgamma(x) - ((x - 1/2) log x - x + log(2 pi)/2)
# in odd powers of 1/x; from x = 10 on, the first left out is below 7e-16
_STIRLING = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188, -691.0 / 360360)


def _stirling_tail(x: float) -> float:
    r = 1.0 / (x * x)
    return sum(c * r ** k for k, c in enumerate(_STIRLING)) / x


def _log_beta_norm(a: float, b: float) -> float:
    """log(1 / B(a, b)).

    With one shape s below 10 and the other, l, at least 10,
    lgamma(l + s) - lgamma(l) comes from the Stirling series as
    (l - 1/2) log1p(s/l) + s log(l + s) - s plus the series tails, which
    avoids subtracting two large lgamma values: for a = 82, b = 1/2 (an
    ANOVA F tail at d = 164) the plain difference is off by 7e-14, this
    form by 7e-16.  With both shapes large the cancellation against the
    powers x^a y^b of the prefactor dominates either way.
    """
    small, large = min(a, b), max(a, b)
    if large < 10.0 or small >= 10.0:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    rise = ((large - 0.5) * math.log1p(small / large) + small * math.log(large + small) - small
            + (_stirling_tail(large + small) - _stirling_tail(large)))
    return rise - math.lgamma(small)


def _beta_tails(x, y, a, b, lognorm) -> np.ndarray:
    """I_x(a, b) for x at or below the split point (a+1)/(a+b+2), keeping
    its relative accuracy however small it is.

    ``y`` is 1 - x as the caller computes it exactly, and ``lognorm`` is
    ``_log_beta_norm(a, b)``; a, b and lognorm are scalars or arrays like
    x.  The upper tail 1 - I_x(a, b) above the split is I_y(b, a), with y
    below the split of Beta(b, a).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    # log of the smaller argument, log1p of its complement: no 1 - x
    near = x <= y
    s = np.where(near, x, y)
    with np.errstate(divide="ignore"):  # x = 0 gives exactly 0
        ls, l1 = np.log(s), np.log1p(-s)
    front = np.exp(lognorm + (a * np.where(near, ls, l1) + b * np.where(near, l1, ls)))
    return front * _betacf(x, a, b) / a


def _f_sf(f, df_w: int) -> np.ndarray:
    """P(F(1, d) > f) = I_x(d/2, 1/2) at x = d/(d + f), d = df_w, for an
    array of F statistics of any shape, in one ``_beta_tails`` call.

    At or above the split point it is 1 minus the lower tail of Beta(1/2,
    d/2) at y = f/(d + f), so f near 0 keeps its digits; f = 0 gives 1 and
    f = inf gives 0.  A p-value keeps its bits whatever is evaluated with it.
    """
    f = np.asarray(f, dtype=float)
    a, b = df_w / 2.0, 0.5
    x = (df_w / (df_w + f)).ravel()
    y = np.divide(f, df_w + f, out=np.ones(f.shape), where=f < np.inf).ravel()
    upper = x >= (a + 1.0) / (a + b + 2.0)
    tails = _beta_tails(np.where(upper, y, x), np.where(upper, x, y), np.where(upper, b, a),
                        np.where(upper, a, b), _log_beta_norm(a, b))
    return np.where(upper, 1.0 - tails, tails).reshape(f.shape)


def _check_quantile(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {q}")
    return q


def _as_sample(values, name: str) -> np.ndarray:
    """``values`` as a flat float array, with -0.0 read as +0.0.

    Rejects an empty sample, and one holding NaN, infinity or a value
    beyond ``_MAX_ABS`` in magnitude.  No estimand tells -0.0 from +0.0,
    so the sign of zero ends here: adding +0.0 maps -0.0 to +0.0 and keeps
    every other value's bits.
    """
    xs = np.asarray(values, dtype=float).ravel() + 0.0
    if xs.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.abs(xs) <= _MAX_ABS):  # false on NaN too
        if not np.all(np.isfinite(xs)):
            raise ValueError(f"{name} contains NaN or infinite values")
        raise ValueError(f"{name} holds a value beyond {_MAX_ABS:.4g} in magnitude, "
                         f"where differences of values overflow")
    return xs


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th quantile of a sample.

    Up to n = 257 it may differ in the last bits from q's estimate within
    a set (see the module docstring): at n = 20-150 it did for 87-119 of
    the 180 decile estimates of 20 lognormal samples."""
    return float(estimate_quantiles(values, (q,), HARRELL_DAVIS)[0])


def estimate_quantiles(values, quantiles, estimator: str = HARRELL_DAVIS) -> np.ndarray:
    """Estimate several quantiles of one sample; returns one value per level.
    Up to n = 257 a level's Harrell-Davis bits may depend on the set (see
    ``hd_quantile``)."""
    xs = np.sort(_as_sample(values, "sample"))
    quantiles = tuple(quantiles)
    if not quantiles:
        raise ValueError("quantile set must be non-empty")
    return _from_sorted_rows(xs[None, :], quantiles, estimator)[0]


class _HDWeights(NamedTuple):
    """Harrell-Davis weights of an n-sample for a level set.

    ``windows[j]`` is (lo, w): level j puts weight w on order statistics
    lo .. lo + w.size - 1 (0-based) and none on the others.  ``mirrored``
    lists the levels whose window is its own mirror image, w == w[::-1]
    about the middle of the sample (the median's).  ``dense`` is the same
    weights as an (n, Q) matrix, zero outside the windows, where the
    coverage rule keeps the dense product; None elsewhere.
    """

    windows: tuple
    mirrored: tuple
    dense: np.ndarray | None


def _hd_bracket(n: int, q: float) -> tuple:
    """Grid indices (j0, j1) around q*n with at most ``_HD_TAIL_MASS`` of
    Beta((n+1)q, (n+1)(1-q)) below j0/n and above j1/n, clipped to [0, n].

    The variance proxy 1/(4(n+2)) bounds the mass beyond q -+ s by
    exp(-2(n+2)s^2) on each side; t/n is the s where that is the tail mass.
    """
    t = n * math.sqrt(math.log(1.0 / _HD_TAIL_MASS) / (2.0 * (n + 2.0)))
    return max(0, math.floor(q * n - t)), min(n, math.ceil(q * n + t))


def _hd_level_windows(n: int, levels: list) -> list:
    """The window (lo, w) of each level from the beta tails at the grid
    points of its bracket.  One continued-fraction pass evaluates every
    level."""
    js, shapes, parts = [], [], []
    for q in levels:
        j0, j1 = _hd_bracket(n, q)
        a, b = (n + 1.0) * q, (n + 1.0) * (1.0 - q)
        j = np.arange(j0, j1 + 1)
        x = j / n
        split = (a + 1.0) / (a + b + 2.0)
        # a grid point on the split is evaluated in both tails
        low, high = x <= split, x >= split
        parts.append((j0, x, split, low, high))
        # the upper tail at j is the lower tail of Beta(b, a) at (n - j)/n
        js += [j[low], n - j[high]]
        lognorm = _log_beta_norm(a, b)
        shapes += [(a, b, lognorm), (b, a, lognorm)]
    sizes = [v.size for v in js]
    j = np.concatenate(js)
    a, b, lognorm = (np.repeat(v, sizes) for v in zip(*shapes))
    # each tail takes its own argument j/n and complement (n - j)/n
    tails = _beta_tails(j / n, (n - j) / n, a, b, lognorm)
    sizes = [lower + upper for lower, upper in zip(sizes[::2], sizes[1::2])]
    out = []
    for (j0, x, split, low, high), t in zip(parts, np.split(tails, np.cumsum(sizes)[:-1])):
        cdf = np.full(x.size, np.nan)
        sf = np.full(x.size, np.nan)
        n_low = np.count_nonzero(low)
        cdf[low], sf[high] = t[:n_low], t[n_low:]
        # on the split the two tails must add to 1: scaling them so keeps
        # the column's sum at 1 despite a common error in their prefactor
        # (a crossing weight 1 - cdf - sf does the same elsewhere)
        on = low & high
        total = cdf[on] + sf[on]
        cdf[on] /= total
        sf[on] /= total
        first = int(np.flatnonzero(cdf <= _HD_TAIL_MASS)[-1])
        last = int(np.flatnonzero(sf <= _HD_TAIL_MASS)[0])
        x, cdf, sf = x[first:last + 1], cdf[first:last + 1], sf[first:last + 1]
        # lower-CDF differences below the split, upper-tail differences
        # above it, and 1 minus both tails across it
        w = np.where(x[1:] <= split, cdf[1:] - cdf[:-1],
                     np.where(x[:-1] >= split, sf[:-1] - sf[1:], (1.0 - sf[1:]) - cdf[:-1]))
        np.maximum(w, 0.0, out=w)
        w.setflags(write=False)
        out.append((j0 + first, w))
    return out


@lru_cache(maxsize=512)
def _hd_weight_matrix(n: int, quantiles: tuple) -> _HDWeights:
    """The Harrell-Davis weights of an n-sample, one window per level.

    A level's window is the order statistics left after trimming at most
    ``_HD_TAIL_MASS`` of weight from each tail, and no more.  Its weights
    are bit-identical whatever level set it is built with.  Where the
    windows hold more than half of the n*Q weights the dense product is
    faster (for 600 rows at n=30, deciles: 0.02 against 0.19 ms), so the
    zero-tailed (n, Q) matrix comes along.
    """
    levels = [_check_quantile(q) for q in quantiles]
    windows = _hd_level_windows(n, levels)
    mirrored = tuple(j for j, (lo, w) in enumerate(windows)
                     if 2 * lo + w.size == n and np.array_equal(w, w[::-1]))
    dense = None
    if 2 * sum(w.size for _, w in windows) > n * len(levels):
        dense = np.zeros((n, len(levels)))
        for j, (lo, w) in enumerate(windows):
            dense[lo:lo + w.size, j] = w
        dense.setflags(write=False)
    return _HDWeights(tuple(windows), mirrored, dense)


def _mirror_pairs(rows: np.ndarray, lo: int, w: np.ndarray, out: np.ndarray) -> None:
    """Re-sum a mirrored window in mirror pairs for the rows whose window
    ends are mirror images, x_lo = -x_(hi-1): each order statistic is added
    to its mirror image before weighting, so a window symmetric about zero
    gives exactly zero, as on the counting path.  The test reads only the
    row itself, so a row's estimate does not depend on the rows with it."""
    hi = lo + w.size
    r = np.flatnonzero(rows[:, lo] == -rows[:, hi - 1])
    if r.size:
        half = w.size // 2
        sub = rows[r]
        pairs = np.vecdot(sub[:, lo:lo + half] + sub[:, hi - half:hi][:, ::-1], w[:half])
        if w.size % 2:
            pairs += w[half] * sub[:, lo + half]
        out[r] = pairs


@lru_cache(maxsize=512)
def _window_masses(n: int, quantiles: tuple) -> tuple:
    """Per level of ``_hd_weight_matrix(n, quantiles)``, (lo, below, above,
    rest): for window (lo, w), tables of length w.size + 1 that order
    statistic j reads at i = clip(j - lo, 0, w.size).  ``below[i]`` is the
    window's weight on its first i order statistics and ``above[i]`` that
    on its order statistics from lo + i up, each summed from the window's
    near end.  ``rest[i]`` is the weight from lo + i up as a mass that ends
    in the upper half subtracts it: ``above[i]`` from the upper half on,
    ``above[0] - below[i]`` below it."""
    out = []
    for lo, w in _hd_weight_matrix(n, quantiles).windows:
        below = np.zeros(w.size + 1)
        np.cumsum(w, out=below[1:])
        above = np.zeros(w.size + 1)
        above[:-1] = np.cumsum(w[::-1])[::-1]
        rest = np.where(np.arange(w.size + 1) >= w.size - w.size // 2, above, above[0] - below)
        for table in (below, above, rest):
            table.setflags(write=False)
        out.append((lo, below, above, rest))
    return tuple(out)


@lru_cache(maxsize=512)
def _t7_interp(n: int, quantiles: tuple) -> tuple:
    """(cols, g): the order statistics type 7 reads from rows of length n,
    and its interpolation weights.  ``cols`` lists each level's order
    statistic j = floor((n-1)q) (0-based), then each level's j + 1, or j
    again at n = 1, where g is 0."""
    h = (n - 1) * np.array([_check_quantile(q) for q in quantiles])
    j = np.floor(h).astype(np.intp)
    g = h - j
    cols = np.concatenate([j, np.minimum(j + 1, n - 1)])
    cols.setflags(write=False)
    g.setflags(write=False)
    return cols, g


def _t7_from_order_stats(stats: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Type-7 estimates from the (m, cols.size) order statistics that
    ``_t7_interp`` lists, as an (m, g.size) matrix."""
    q = g.size
    lo = stats[:, :q]
    return lo + g * (stats[:, q:] - lo)


def _value_ranks(cum: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """For each row r of the (D, m) cumulative counts of
    ``_from_cumulative_counts`` and each 0-based order statistic j in
    ``ranks``, the index of the value it holds: how many values k have
    cum[k, r] <= j.  Adding r * (n + 1) to row r lays the rows end to end
    as one ascending sequence, so one search finds every rank of every
    row; the (m, ranks.size) result does not depend on the rows with it."""
    d, m = cum.shape
    offsets = np.arange(m) * (int(cum[-1, 0]) + 1)
    flat = np.add(cum.T, offsets[:, None], order="C").ravel()
    found = np.searchsorted(flat, offsets[:, None] + ranks, side="right")
    found -= d * np.arange(m)[:, None]
    return found


def _from_sorted_rows(rows: np.ndarray, quantiles: tuple, estimator: str) -> np.ndarray:
    """Quantile estimates for every row of an already-sorted (m, n) matrix.

    Returns an (m, len(quantiles)) matrix.  This is the hot path shared by
    the bootstrap engines; rows must be sorted ascending.
    """
    n = rows.shape[1]
    if estimator == HARRELL_DAVIS:
        hd = _hd_weight_matrix(n, quantiles)
        if hd.dense is not None:
            out = rows @ hd.dense
        else:
            # one dot product per row and window: a row's estimates do not
            # depend on the rows reduced with it
            out = np.empty((rows.shape[0], len(quantiles)))
            for j, (lo, w) in enumerate(hd.windows):
                np.vecdot(rows[:, lo:lo + w.size], w, out=out[:, j])
        for j in hd.mirrored:
            _mirror_pairs(rows, *hd.windows[j], out[:, j])
        return out
    if estimator == TYPE7:
        cols, g = _t7_interp(n, quantiles)
        return _t7_from_order_stats(rows[:, cols], g)
    raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")


def _from_cumulative_counts(values: np.ndarray, cum: np.ndarray, quantiles: tuple,
                            estimator: str) -> np.ndarray:
    """``_from_sorted_rows`` for m rows given as counts over shared values.

    ``values`` holds D ascending distinct values, and ``cum[k, r]`` is how
    many elements of row r are at most ``values[k]``, so the last line of
    the (D, m) integer matrix holds the row length n >= 2.  Type 7 reads
    the same two order statistics as the sorted rows, so it is
    bit-identical; Harrell-Davis weighs each value by the window mass of
    its order statistics, which changes only the summation order, and
    gives exactly zero where the sorted rows do.

    A window sums only the values k0 .. k1 that some row's window reaches.
    Every other value has mass exactly +0.0 in every row, so its term is a
    signed zero.  The sum starts at +0.0, as a product sum does, so no
    partial sum is ever -0.0 and no zero term, kept or left out, changes
    one; the kept terms keep their order, so the sum comes out bit for bit.
    """
    n = int(cum[-1, 0])
    if estimator == HARRELL_DAVIS:
        bounds = np.concatenate([np.zeros((1, cum.shape[1]), dtype=cum.dtype), cum])
        # summed from the smallest |value| up, each negative value before
        # its positive mirror: a sample symmetric about zero under equal
        # masses sums to exactly zero, and a value of zero mass leaves the
        # bits of the estimate unchanged
        order = np.lexsort((values > 0.0, np.abs(values)))
        # both non-decreasing in k: value k reaches some row's window
        # (lo, w) iff top[k] > lo and (k == 0 or bottom[k - 1] < lo + w.size)
        top, bottom = cum.max(axis=1), cum.min(axis=1)
        out = np.empty((cum.shape[1], len(quantiles)))
        for j, (lo, below_w, above_w, rest_w) in enumerate(_window_masses(n, quantiles)):
            size = below_w.size - 1
            k0 = int(np.searchsorted(top, lo, side="right"))
            k1 = min(int(np.searchsorted(bottom, lo + size - 1, side="right")), values.size - 1)
            # value k holds order statistics c0 .. c1 - 1 of each row; its
            # mass is a difference of the window weight below c1 and c0
            # where c1 ends in the lower half of the window, and of that
            # from c0 and c1 up elsewhere, so neither tail loses its digits
            # and mirror-image runs of a mirrored window get equal masses
            at = np.clip(bounds[k0:k1 + 2] - lo, 0, size)
            below = np.take(below_w, at)
            mass = below[1:] - below[:-1]
            np.subtract(np.take(rest_w, at[:-1]), np.take(above_w, at[1:]), out=mass,
                        where=at[1:] > size // 2)
            kept = order[(order >= k0) & (order <= k1)]
            terms = mass[kept - k0] * values[kept, None]
            # one value at a time, in order, from +0.0 as the sorted rows'
            # products start: cumsum's bits, summed along the contiguous rows
            total = np.zeros(cum.shape[1])
            for term in terms:
                total += term
            out[:, j] = total
        return out
    if estimator == TYPE7:
        cols, g = _t7_interp(n, quantiles)
        return _t7_from_order_stats(values[_value_ranks(cum, cols)], g)
    raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
