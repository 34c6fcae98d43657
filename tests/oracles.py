"""Independent reference implementations used as test oracles.

These deliberately take different computational routes than the library:
the beta CDF comes from adaptive quadrature of the density (not the
continued fraction), quantile weights are integrated interval by
interval (in mpmath for the multiprecision weights), the ANOVA F
statistics come from explicit textbook sums computed with plain Python
floats, the type-7 quantile is read off one sorted sample at a time,
the order statistics of counted samples are ranked by comparing every
count with every rank, the Harrell-Davis estimates of counted samples sum
every distinct value's term with masses laid out over all n + 1 order
statistics (not only the values each window reaches), the pairwise differences of resampled cells are
built by one broadcast subtraction (not the library's blocked product),
and the generic bootstrap calls a scalar statistic once per replicate
on the library's own resamples.  The
multiplicity decisions come from the step-up scans of Hochberg and
Benjamini-Hochberg, which walk the sorted p-values down to the first one
under its threshold instead of comparing adjusted p-values with alpha.
The ANOVA rates of a simulated condition come from a loop of lone
``anova_f_test`` calls, one per iteration, where the harness evaluates a
whole chunk's F tails at once.  The kurtosis helpers back the heavy-tail
diagnostics of the population tests, and the relabelling helpers build
the re-oriented samples of the orientation tests.  The long-format CSV
reader reads each row as a dict through ``csv.DictReader``, where the
library reads rows by the header's column positions.
"""

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from qshift.bootstrap import _cell_resample_matrices
from qshift.data import _MISSING, DataError, _ordered_levels
from qshift.design import INTERACTION, MAIN_A, MAIN_B, FactorialSample
from qshift.distributions import generate
from qshift.multcomp import _validate_pvalues
from qshift.quantiles import _MAX_ABS, _from_sorted_rows, _hd_weight_matrix
from qshift.rng import stream
from qshift.simulation import anova_f_test


def beta_cdf_quad(x: float, a: float, b: float) -> float:
    """Beta(a, b) CDF at x by adaptive quadrature of the density.

    Power substitutions absorb the endpoint singularity when a < 1 or
    b < 1; the smaller tail piece is integrated for accuracy.  Good to
    roughly 1e-12 absolute.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lbeta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        return math.exp(lbeta + (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))

    if x <= a / (a + b):
        if a < 1.0:
            def f(u):  # t = u**(1/a) removes the t**(a-1) singularity at 0
                return math.exp(lbeta + (b - 1.0) * math.log1p(-(u ** (1.0 / a)))) / a
            val, _ = quad(f, 0.0, x ** a, epsabs=1e-14, epsrel=1e-11, limit=300)
        else:
            val, _ = quad(pdf, 0.0, x, epsabs=1e-14, epsrel=1e-11, limit=300)
        return val
    if b < 1.0:
        def f(u):  # t = 1 - u**(1/b) removes the (1-t)**(b-1) singularity at 1
            return math.exp(lbeta + (a - 1.0) * math.log(1.0 - u ** (1.0 / b))) / b
        val, _ = quad(f, 0.0, (1.0 - x) ** b, epsabs=1e-14, epsrel=1e-11, limit=300)
    else:
        val, _ = quad(pdf, x, 1.0, epsabs=1e-14, epsrel=1e-11, limit=300)
    return 1.0 - val


def hd_weights_quad(n: int, q: float) -> np.ndarray:
    """Harrell-Davis weights, each integrated directly from the density.

    Interior intervals are smooth and handed to QUADPACK as-is; the two
    edge intervals reuse the substitution-based CDF when the density is
    singular there.
    """
    a = (n + 1.0) * q
    b = (n + 1.0) * (1.0 - q)
    lbeta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        return math.exp(lbeta + (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))

    w = np.empty(n)
    for i in range(1, n + 1):
        lo, hi = (i - 1) / n, i / n
        if i == 1 and a < 1.0:
            w[0] = beta_cdf_quad(hi, a, b)
        elif i == n and b < 1.0:
            w[-1] = 1.0 - beta_cdf_quad(lo, a, b)
        else:
            w[i - 1], _ = quad(pdf, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    return w


def hd_weights_mp(n: int, q: float, lo: int, hi: int) -> list:
    """Harrell-Davis weights of order statistics lo .. hi - 1 (0-based) as
    mpmath numbers at 30 digits.

    Each weight integrates the Beta((n+1)q, (n+1)(1-q)) density over
    (i/n, (i+1)/n], in mpmath, so neither the lgamma cancellation nor the
    1 - x rounding of the library applies; the shape parameters are the
    library's float products.  Interior intervals, where the density is
    smooth, take 12-point Gauss-Legendre (about 1e-16 relative against
    mpmath.quad); the two end intervals, where a non-integer shape makes it
    singular, take mpmath's hypergeometric incomplete beta near 0, with the
    shapes swapped for the upper end.
    """
    import mpmath  # only the multiprecision oracle tests need it

    nodes, node_weights = np.polynomial.legendre.leggauss(12)

    with mpmath.workdps(30):
        a = mpmath.mpf((n + 1.0) * q)
        b = mpmath.mpf((n + 1.0) * (1.0 - q))
        lnorm = mpmath.loggamma(a + b) - mpmath.loggamma(a) - mpmath.loggamma(b)

        def density(x):
            return mpmath.exp(lnorm + (a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x))

        out = []
        for i in range(lo, hi):
            left, right = mpmath.mpf(i) / n, mpmath.mpf(i + 1) / n
            if n == 1:
                out.append(mpmath.mpf(1))
                continue
            if i == 0:
                out.append(mpmath.betainc(a, b, 0, right, regularized=True))
                continue
            if i == n - 1:
                out.append(mpmath.betainc(b, a, 0, 1 - left, regularized=True))
                continue
            half = (right - left) / 2
            out.append(half * sum(g * density(left + half * (1 + mpmath.mpf(t)))
                                  for t, g in zip(nodes, node_weights)))
        return out


def hd_quantile_quad(values, q: float) -> float:
    """Brute-force Harrell-Davis estimate from quadrature weights."""
    xs = np.sort(np.asarray(values, dtype=float))
    return float(hd_weights_quad(xs.size, q) @ xs)


def anova_f_textbook(cells) -> tuple:
    """Balanced 2x2 ANOVA F statistics by explicit sums with plain floats.

    ``cells`` holds the four samples in order (1,1), (1,2), (2,1), (2,2),
    all the same length.  Returns (FA, FB, FAB).
    """
    n = len(cells[0])
    assert all(len(c) == n for c in cells)
    means = [sum(float(v) for v in c) / n for c in cells]
    grand = sum(means) / 4.0
    a1 = (means[0] + means[1]) / 2.0
    a2 = (means[2] + means[3]) / 2.0
    b1 = (means[0] + means[2]) / 2.0
    b2 = (means[1] + means[3]) / 2.0
    ss_a = 2 * n * ((a1 - grand) ** 2 + (a2 - grand) ** 2)
    ss_b = 2 * n * ((b1 - grand) ** 2 + (b2 - grand) ** 2)
    ss_ab = 0.0
    for (j, k), m in zip(((0, 0), (0, 1), (1, 0), (1, 1)), means):
        a_mean = a1 if j == 0 else a2
        b_mean = b1 if k == 0 else b2
        ss_ab += n * (m - a_mean - b_mean + grand) ** 2
    ss_w = 0.0
    for c, m in zip(cells, means):
        for v in c:
            ss_w += (float(v) - m) ** 2
    ms_w = ss_w / (4 * (n - 1))
    return ss_a / ms_w, ss_b / ms_w, ss_ab / ms_w


def anova_rates(cond) -> tuple:
    """(rate, se, rate_uncorrected) of an ``anova_means`` condition from
    one lone ``anova_f_test`` call per iteration, on the cells the
    simulation draws, each deciding the condition's contrast at its alpha."""
    effects = (MAIN_A, MAIN_B, INTERACTION)
    rejected = 0
    for i in range(cond.n_sims):
        cells = [generate(spec, cond.n_per_group, stream(cond.seed, "data", i, c))
                 for c, spec in enumerate(cond.cell_specs)]
        rejected += anova_f_test(cells)[effects.index(cond.contrast)] <= cond.alpha
    rate = rejected / cond.n_sims
    return rate, math.sqrt(rate * (1.0 - rate) / cond.n_sims), rate


def sample_kurtosis(x) -> float:
    """Moment-ratio kurtosis m4 / m2^2 (non-excess; 3 for a normal).

    m_k is the k-th central sample moment.  Requires n >= 4 and nonzero
    variance.
    """
    xs = np.asarray(x, dtype=float).ravel()
    if xs.size < 4:
        raise ValueError(f"kurtosis needs at least 4 observations, got {xs.size}")
    centered = xs - xs.mean()
    m2 = np.mean(centered * centered)
    if m2 == 0.0:
        raise ValueError("kurtosis is undefined for a zero-variance sample")
    m4 = np.mean(centered ** 4)
    return float(m4 / (m2 * m2))


def lognormal_kurtosis(sigma: float = 1.0) -> float:
    """Exact kurtosis of a lognormal distribution with log-scale sigma.

    For sigma = 1 this evaluates to e^4 + 2 e^3 + 3 e^2 - 3, about 113.94.
    """
    w = math.exp(sigma * sigma)
    return w ** 4 + 2.0 * w ** 3 + 3.0 * w ** 2 - 3.0


def mc_margin(p: float, n: int, sigmas: float = 4.0) -> float:
    """Binomial concentration band for a Monte Carlo rate estimate."""
    return sigmas * math.sqrt(p * (1.0 - p) / n)


def type7_quantile(values, q: float) -> float:
    """Linear-interpolation quantile estimate (Hyndman-Fan definition 7).

    With h = (n-1)q + 1, returns X_(floor(h)) + (h - floor(h)) *
    (X_(floor(h)+1) - X_(floor(h))); an exact order statistic when h is
    integral.
    """
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    if xs.size == 0:
        raise ValueError("sample must be non-empty")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {q}")
    if xs.size == 1:
        return float(xs[0])
    h = (xs.size - 1) * q
    j = int(h)
    g = h - j
    return float(xs[j] + g * (xs[j + 1] - xs[j]))


def counted_value_ranks(cum, ranks) -> np.ndarray:
    """For each row r of the (D, m) cumulative counts ``cum`` (``cum[k, r]``
    elements of row r are at most value k) and each 0-based order
    statistic j in ``ranks``, the index of the value holding it: the
    number of values k with cum[k, r] <= j, from a comparison of every
    count with every rank."""
    return (cum[:, :, None] <= np.asarray(ranks)).sum(axis=0)


def hd_from_counts_dense(values, cum, quantiles) -> np.ndarray:
    """Harrell-Davis estimates of the rows that ``cum`` counts over the
    ascending distinct ``values`` (as in ``_from_cumulative_counts``),
    every window summed over every value.

    Each window's weight below and from every order statistic is laid out
    over all n + 1 boundaries, a value's mass is a difference of the two
    at its first and one-past-last order statistic (in the lower half of
    the window of the weight below, elsewhere of the weight from there
    up), and the terms of all D values are accumulated with one cumsum in
    |value| order, each negative value before its positive mirror, from
    +0.0 as a product sum starts.
    """
    n = int(cum[-1, 0])
    bounds = np.concatenate([np.zeros((1, cum.shape[1]), dtype=cum.dtype), cum])
    order = np.lexsort((values > 0.0, np.abs(values)))
    terms = values[order, None]
    out = np.empty((cum.shape[1], len(quantiles)))
    for j, (lo, w) in enumerate(_hd_weight_matrix(n, tuple(quantiles)).windows):
        hi = lo + w.size
        below = np.zeros(n + 1)
        np.cumsum(w, out=below[lo + 1:hi + 1])
        below[hi + 1:] = below[hi]
        above = np.zeros(n + 1)
        above[lo:hi] = np.cumsum(w[::-1])[::-1]
        above[:lo] = above[lo]
        below, above = below[bounds], above[bounds]
        mass = below[1:] - below[:-1]
        upper = bounds[:-1] >= hi - w.size // 2
        np.subtract(above[:-1], above[1:], out=mass, where=upper)
        across = ~upper & (bounds[1:] > lo + w.size // 2)
        np.subtract(above[0] - below[:-1], above[1:], out=mass, where=across)
        out[:, j] = (mass[order] * terms).cumsum(axis=0)[-1] + 0.0
    return out


def pairwise_quantiles_by_subtraction(mx, my, quantiles, estimators) -> list:
    """Per estimator, the (B, n_quantiles) estimates of each replicate's
    differences: row b of the (B, n1) ``mx`` minus row b of the (B, n2)
    ``my``, every pair built by one broadcast ``np.subtract``, then sorted
    and reduced all at once."""
    d = np.subtract(mx[:, :, None], my[:, None, :]).reshape(mx.shape[0], -1)
    d.sort(axis=1)
    return [_from_sorted_rows(d, tuple(quantiles), e) for e in estimators]


class NonFiniteStatisticError(ArithmeticError):
    """A bootstrap statistic evaluated to NaN or infinity."""

    def __init__(self, replicate: int, value: float):
        super().__init__(f"statistic returned non-finite value {value!r} on replicate {replicate}")
        self.replicate = replicate
        self.value = value


@dataclass(frozen=True)
class BootstrapDistribution:
    """Replicate statistics, stored sorted ascending."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.sort(np.asarray(self.values, dtype=float)))

    def __len__(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        return self.values if dtype is None else self.values.astype(dtype)


def resample(sample, rng: np.random.Generator) -> np.ndarray:
    """One bootstrap resample: n draws with replacement from the sample."""
    xs = np.asarray(sample, dtype=float)
    if xs.size == 0:
        raise ValueError("cannot resample an empty sample")
    return xs[rng.integers(0, xs.size, size=xs.size)]


def bootstrap_statistic(cells, statistic, config) -> BootstrapDistribution:
    """Bootstrap a scalar statistic of jointly resampled cells, one replicate at a time.

    ``cells`` is a FactorialSample or a sequence of 1-D samples; replicate b
    hands row b of every cell's resample matrix (the library's own
    resamples for ``config``) to ``statistic``, which returns a float.
    Raises NonFiniteStatisticError, carrying the replicate index, when the
    statistic is NaN or infinite.
    """
    arrays = cells.flat_cells() if hasattr(cells, "flat_cells") else tuple(cells)
    mats = _cell_resample_matrices(arrays, config)
    out = np.empty(config.n_boot)
    for b in range(config.n_boot):
        value = float(statistic(tuple(m[b] for m in mats)))
        if not math.isfinite(value):
            raise NonFiniteStatisticError(b, value)
        out[b] = value
    return BootstrapDistribution(out)


def _validate_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(alpha)


def _stepup_reject(p, triggers) -> np.ndarray:
    desc = np.sort(p)[::-1]
    for k in range(1, p.size + 1):
        if triggers(k, desc[k - 1]):
            return p <= desc[k - 1]
    return np.zeros(p.size, dtype=bool)


def hochberg_reject(p, alpha: float) -> np.ndarray:
    """Boolean rejection mask of Hochberg's step-up procedure.

    The threshold test p_[k] <= alpha/k is evaluated in the product form
    k * p_[k] <= alpha, which matches the adjusted-p-value arithmetic
    exactly, so the two decision routes agree even on boundary ties.
    """
    p = _validate_pvalues(p)
    alpha = _validate_alpha(alpha)
    return _stepup_reject(p, lambda k, pk: k * pk <= alpha)


def bh_reject(p, alpha: float) -> np.ndarray:
    """Boolean rejection mask of the Benjamini-Hochberg procedure.

    The test p_[k] <= (C - k + 1) alpha / C is evaluated as
    C * p_[k] <= (C - k + 1) * alpha; with integer multipliers on both
    sides, the rejection set provably contains Hochberg's even in
    floating point (the division form can round an ulp below alpha at
    k = 1 and lose a boundary-tied hypothesis).
    """
    p = _validate_pvalues(p)
    alpha = _validate_alpha(alpha)
    c = p.size
    return _stepup_reject(p, lambda k, pk: c * pk <= (c - k + 1) * alpha)


def transposed(sample: FactorialSample) -> FactorialSample:
    """Interchange the roles of the two factors (swap cells (1,2) and (2,1))."""
    cells = sample.cells
    return FactorialSample(
        ((cells[0][0], cells[1][0]), (cells[0][1], cells[1][1])),
        sample.factor_b,
        sample.factor_a,
    )


def swapped_a_levels(sample: FactorialSample) -> FactorialSample:
    """Exchange the two levels of factor A."""
    return FactorialSample(
        (sample.cells[1], sample.cells[0]),
        (sample.factor_a[1], sample.factor_a[0]),
        sample.factor_b,
    )


def read_long_csv_by_dict(path, factor_a: str, factor_b: str, value: str,
                          level_order=None) -> tuple:
    """``read_long_csv`` with one ``csv.DictReader`` dict per row: a short
    row's absent cells read as None, and of a column named twice the last
    copy is read.  Blank lines before the header are counted and skipped,
    and a row is numbered by its file line.  Same (sample, n_dropped) and
    error messages wherever no column that is read is named twice."""
    groups = {}
    seen_a, seen_b = set(), set()
    dropped = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        blank = 0
        first = next(fh, None)
        while first in ("\n", "\r\n", "\r"):
            blank += 1
            first = next(fh, None)
        reader = csv.DictReader(itertools.chain([first] if first else [], fh))
        if reader.fieldnames is None:
            raise DataError(f"{path}: file is empty")
        for col in (factor_a, factor_b, value):
            if col not in reader.fieldnames:
                raise DataError(
                    f"{path}: missing column {col!r}; available columns are "
                    f"{reader.fieldnames}"
                )
        for row in reader:
            lineno = blank + reader.line_num
            raw = row.get(value)
            if raw is None or raw.strip().lower() in _MISSING:
                dropped += 1
                continue
            try:
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
            la = (row.get(factor_a) or "").strip()
            lb = (row.get(factor_b) or "").strip()
            if not la or not lb:
                raise DataError(f"{path}: row {lineno}: missing factor label")
            if abs(v) > _MAX_ABS:
                raise DataError(
                    f"{path}: row {lineno}: value {raw!r} of cell ({la!r}, {lb!r}) is beyond "
                    f"{_MAX_ABS:.4g} in magnitude, where differences of values overflow"
                )
            seen_a.add(la)
            seen_b.add(lb)
            groups.setdefault((la, lb), []).append(v)

    if not groups:
        raise DataError(f"{path}: no usable data rows")
    want_a, want_b = level_order if level_order is not None else (None, None)
    levels_a = _ordered_levels(path, seen_a, want_a, "factor A", factor_a)
    levels_b = _ordered_levels(path, seen_b, want_b, "factor B", factor_b)
    cells = []
    for la in levels_a:
        row_cells = []
        for lb in levels_b:
            if (la, lb) not in groups:
                raise DataError(f"{path}: no rows for cell ({la!r}, {lb!r})")
            row_cells.append(groups[(la, lb)])
        cells.append(tuple(row_cells))
    return FactorialSample(tuple(cells), levels_a, levels_b), dropped
