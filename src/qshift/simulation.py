"""Monte Carlo evaluation of familywise error rates and power.

A condition fixes the four cell populations, the per-group sample size,
the analysis method and the multiplicity correction.  Each iteration
generates fresh cells, runs the method, and records whether anything in
the quantile family was rejected; the familywise rate is the fraction of
iterations with at least one rejection.  Iterations draw from streams
addressed by (seed, iteration), so results are identical no matter how
the work is split across processes.

The classic two-way ANOVA F test on means is included as a baseline.
Iterations reduce the same bootstrap replicates as the analysis
functions, through the column-wise signed-count p-value.
"""

import ctypes
import functools
import json
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from .bootstrap import DECILES, BootstrapConfig, _check_integer, signed_pvalue
from .contrasts import _cell_thetas, contrast_value
from .design import CONTRASTS, INTERACTION, MAIN_A, MAIN_B
from .distributions import DistributionSpec, generate
from .multcomp import CORRECTIONS, adjust_pvalues
from .pairwise import IBAND_QUANTILES, _iband_star
from .quantiles import _as_sample, _f_sf
from .rng import derive_seed, stream

__all__ = [
    "METHODS",
    "SimCondition",
    "SimulationReport",
    "DegenerateDataError",
    "ExperimentError",
    "anova_f_test",
    "anova_f_statistics",
    "sweep",
    "load_experiment",
    "report_csv_rows",
    "REPORT_COLUMNS",
    "DESIGN_FLAGS",
]

METHODS = ("decinter_hd", "decinter_t7", "iband_hd", "iband_t7", "anova_means")

# implementation choices a reader of the numbers needs to know; written
# into every simulation metadata block
DESIGN_FLAGS = {
    "mixed_normal_form": "0.9*N(0,1) + 0.1*N(0,100)",
    "mixed_lognormal_form": "0.9*exp(N(0,1)) + 0.1*10*exp(N(0,1))",
    "beta_binomial_trials": "nbin - 1 (support has exactly nbin values)",
    "ci_upper_order_statistic": "u = B - l",
    "ci_index_rounding": "round half to even",
    "bootstrap_samples": "shared across quantiles",
    "main_effect_scale": "mean of cell quantiles per level",
    "hd_window": "each level sums its window, dropping at most 1e-17 of "
                 "Harrell-Davis weight per tail, on every path; a window of "
                 "zeros gives exactly 0, a tie",
}


class DegenerateDataError(ValueError):
    """Input data leave a test statistic undefined (e.g. zero variance)."""


class ExperimentError(ValueError):
    """An experiment file failed validation."""


# the order of the effects in anova_f_statistics' triple
_EFFECTS = (MAIN_A, MAIN_B, INTERACTION)


def anova_f_statistics(data) -> tuple:
    """Balanced two-way ANOVA F statistics ((FA, FB, FAB), df_within).

    Each effect psi is ``contrast_value`` of the four cell means.  Each F
    has 1 numerator and 4(n-1) within degrees of freedom: F = n psi^2 /
    MS_w for the main effects and n psi^2 / (4 MS_w) for the interaction,
    whose cell residuals are +-psi/4.  Each cell is scaled by the power of
    two that puts its own max|y| in [0.5, 1) before its deviations from
    its mean are taken, so no cell's spread is flushed to zero by another
    cell's magnitude.  Every cell's deviations are then brought to the
    scale that puts the largest deviation of all in [0.5, 1) before they
    are squared and summed, and the cell means and effects to the scale of
    the largest |y|.  Power-of-two scaling is exact, so F keeps its bits,
    and no sum of squares over- or underflows.  An F beyond the largest
    float is inf.
    """
    return _anova_f_statistics(data.flat_cells() if hasattr(data, "flat_cells") else tuple(
        _as_sample(c, f"cell ({i // 2 + 1},{i % 2 + 1})") for i, c in enumerate(data)
    ))


def _anova_f_statistics(cells) -> tuple:
    """``anova_f_statistics`` of four cells that are already samples, such
    as the drawn cells of a simulation iteration."""
    sizes = {c.size for c in cells}
    if len(sizes) != 1:
        raise ValueError(f"cells must be balanced, got sizes {[c.size for c in cells]}")
    n = sizes.pop()
    if n < 2:
        raise ValueError(f"need at least 2 observations per cell, got {n}")

    y = np.stack(cells)
    scale = np.frexp(np.abs(y).max(axis=1))[1]
    y = np.ldexp(y, -scale[:, None])
    means = y.mean(axis=1)
    dev = y - means[:, None]
    # four values each: Python's math is faster than numpy's here
    scales, spread = scale.tolist(), np.abs(dev).max(axis=1).tolist()
    if not any(spread):
        raise DegenerateDataError("zero within-cell variance; F statistics are undefined")
    # the largest deviation of all, unscaled, lies in [0.5, 1) * 2^top
    top = max(s + math.frexp(v)[1] for s, v in zip(scales, spread) if v)
    df_w = 4 * (n - 1)
    ms_w = float(np.sum(np.ldexp(dev, (scale - top)[:, None]) ** 2)) / df_w
    largest = max(scales)
    means = [math.ldexp(m, s - largest) for m, s in zip(means.tolist(), scales)]
    psi_sq = [contrast_value(means, kind)[2] ** 2 for kind in _EFFECTS]
    with np.errstate(over="ignore"):
        f = n * np.ldexp(psi_sq, 2 * (largest - top)) / np.array([ms_w, ms_w, 4.0 * ms_w])
    return tuple(f.tolist()), df_w


def anova_f_test(data) -> tuple:
    """Balanced two-way fixed-effects ANOVA p-values (pA, pB, pAB).

    Requires equal cell sizes n >= 2; each F statistic has (1, 4(n-1))
    degrees of freedom.  The three tails come from the evaluator a
    simulation chunk uses for all of its iterations at once, with the
    same bits.

    Raises
    ------
    ValueError
        If the design is unbalanced (the simulations are balanced).
    DegenerateDataError
        If the within-cell variance is zero.
    """
    stats, df_w = anova_f_statistics(data)
    return tuple(_f_sf(stats, df_w).tolist())


@dataclass(frozen=True)
class SimCondition:
    """One simulation condition of the error-rate / power study.

    ``quantiles`` holds, once built, the levels the method tests: the
    given ones, else the deciles for ``decinter_*`` and
    ``IBAND_QUANTILES`` for ``iband_*``; it is always empty for
    ``anova_means``.
    """

    cell_specs: tuple
    n_per_group: int
    method: str
    contrast: str = INTERACTION
    correction: str = "bh"
    n_sims: int = 2000
    n_boot: int = 600
    alpha: float = 0.05
    seed: int = 0
    quantiles: tuple | None = None
    name: str = ""

    def __post_init__(self):
        specs = tuple(self.cell_specs)
        if len(specs) != 4 or not all(isinstance(s, DistributionSpec) for s in specs):
            raise ValueError("cell_specs must hold exactly four DistributionSpec entries")
        object.__setattr__(self, "cell_specs", specs)
        for name in ("n_per_group", "n_sims", "n_boot", "seed"):
            _check_integer(name, getattr(self, name))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method == "anova_means":
            quantiles = ()  # the ANOVA tests means
        elif self.quantiles is not None:
            quantiles = self.quantiles
        else:
            quantiles = IBAND_QUANTILES if self.method.startswith("iband") else DECILES
        object.__setattr__(self, "quantiles", tuple(float(q) for q in quantiles))
        if self.contrast not in CONTRASTS:
            raise ValueError(f"unknown contrast {self.contrast!r}; expected one of {CONTRASTS}")
        if self.correction not in CORRECTIONS:
            raise ValueError(f"unknown correction {self.correction!r}; expected one of {CORRECTIONS}")
        if self.n_sims < 1:
            raise ValueError(f"n_sims must be at least 1, got {self.n_sims}")
        if self.n_per_group < 1:
            raise ValueError(f"n_per_group must be at least 1, got {self.n_per_group}")
        if self.method == "anova_means" and self.n_per_group < 2:
            raise ValueError(f"anova_means needs n_per_group >= 2, got {self.n_per_group}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.method.startswith("iband") and self.contrast != INTERACTION:
            raise ValueError("the pairwise-difference test supports the interaction only")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.method != "anova_means":
            self.bootstrap_config()  # raises on bad n_boot / alpha / quantiles

    @property
    def mode(self) -> str:
        """'fwer' when all four populations are identical, else 'power'."""
        return "fwer" if all(s == self.cell_specs[0] for s in self.cell_specs) else "power"

    def bootstrap_config(self, seed: int = 0) -> BootstrapConfig:
        """The bootstrap settings of an iteration whose resamples draw from
        ``seed``; raises ValueError for ``anova_means``, which resamples
        nothing."""
        if self.method == "anova_means":
            raise ValueError("anova_means draws no bootstrap, so it has no bootstrap config")
        return BootstrapConfig(n_boot=self.n_boot, alpha=self.alpha, seed=seed,
                               estimator=self.method.partition("_")[2], quantiles=self.quantiles)


@dataclass(frozen=True)
class SimulationReport:
    """Estimated familywise rate for one condition.

    ``rate`` is the fraction of iterations with at least one rejection
    after the configured correction (the FWER under a null condition,
    the familywise power otherwise); ``rate_uncorrected`` ignores the
    correction.  ``se`` is the binomial standard error of ``rate``.

    A sweep runs the conditions that share a unit (the same method
    family, cells, sizes, iterations, replicates, seed and quantiles)
    together: each iteration's data, resamples and sort serve them all.
    A unit's interval runs from the previous unit's last chunk's result
    (for the first unit, from the start of the sweep) to its own, so the
    intervals of a sweep add up to its duration even though a pool runs
    the chunks of several units at once.  The first unit also pays the
    workers' start-up, and no unit pays the pool's shutdown.
    ``wall_time`` is the condition's share of its unit's interval, in
    proportion to the seconds its chunks spent on the condition's own
    work: its estimator's reduction, split evenly among the conditions
    that share the estimator, its p-values, and its part of each chunk's
    decision (an ANOVA condition's only work).  So the shares of siblings
    are coupled: a condition's ``wall_time`` moves when a sibling's own
    work gets faster or slower, even if its own does not.  A condition
    alone in its unit gets the whole interval.  A failed condition
    reports 0, and the time up to its failure is charged to no
    condition.  Wall time is informational and excluded from equality.
    """

    condition: SimCondition
    rate: float
    se: float
    rate_uncorrected: float
    per_quantile_rates: tuple
    n_sims: int
    wall_time: float = field(compare=False)
    error: str | None = None


def _unit_key(cond: SimCondition) -> tuple:
    """What the conditions of one unit share: the same cells, resamples and
    sorts in every iteration.  Estimator, contrast, correction, alpha and
    name may differ within a unit."""
    return (cond.method.partition("_")[0], cond.cell_specs, cond.n_per_group,
            cond.n_sims, cond.n_boot, cond.seed, cond.quantiles)


def _iterate(cond: SimCondition, i: int, siblings: tuple = ()):
    """Run iteration i of the unit ``(cond, *siblings)``.

    The cells are generated, resampled and sorted once, and each estimator
    the unit uses reduces them once.  Returns one (p-values, own_s) per
    condition, ``cond`` first: the p-values of its quantile family, and the
    seconds of its own work, its estimator's reduction (split evenly among
    the conditions that share the estimator) plus its p-values.  An ANOVA
    unit's iteration returns ``anova_f_statistics`` of its cells instead.
    Nothing is decided here: ``_run_chunk`` decides the chunk.
    """
    unit = (cond, *siblings)
    cells = [
        generate(spec, cond.n_per_group, stream(cond.seed, "data", i, c))
        for c, spec in enumerate(cond.cell_specs)
    ]
    if cond.method == "anova_means":
        return _anova_f_statistics(cells)

    pvalues = []
    methods = [member.method for member in unit]
    estimators = tuple(dict.fromkeys(m.partition("_")[2] for m in methods))
    seconds = [0.0] * len(estimators)
    config = cond.bootstrap_config(seed=derive_seed(cond.seed, "boot", i))
    decinter = cond.method.startswith("decinter")
    reduced = (_cell_thetas if decinter else _iband_star)(cells, config, estimators, seconds)
    for member, method in zip(unit, methods):
        k = estimators.index(method.partition("_")[2])
        start = time.perf_counter()
        star = contrast_value(reduced[k], member.contrast)[2] if decinter else reduced[k]
        own = seconds[k] / methods.count(method)
        pvalues.append((signed_pvalue(star), own + time.perf_counter() - start))
    return pvalues


def _run_chunk(args):
    """Per condition of the unit, (n_corrected, n_uncorrected, per_q, own_s)
    over the iterations start .. stop - 1: the sweep's one decision site.

    Each condition's p-values form one (iterations, C) matrix; an ANOVA
    condition's one column comes from the chunk's one ``_f_sf`` call.
    Every condition decides alike: a level is hit where its p-value is at
    most alpha, an iteration rejects where an adjusted p-value is (the
    tables' rule).  ``own_s`` adds the decision's seconds to its
    iterations' own (the F tails are charged to no condition).
    """
    unit, start, stop = args
    outcomes = [_iterate(unit[0], i, unit[1:]) for i in range(start, stop)]
    if unit[0].method == "anova_means":
        pvals = _f_sf([f for f, _ in outcomes], outcomes[0][1])
        chunk = [(pvals[:, [_EFFECTS.index(member.contrast)]], 0.0) for member in unit]
    else:
        chunk = [(np.stack([p for p, _ in its]), sum(own for _, own in its))
                 for its in zip(*outcomes)]
    totals = []
    for member, (pvals, own) in zip(unit, chunk):
        mark = time.perf_counter()
        hits = pvals <= member.alpha
        rejected = adjust_pvalues(pvals, member.correction) <= member.alpha
        per_q = hits[:, :len(member.quantiles)].sum(axis=0)
        totals.append((int(rejected.any(axis=1).sum()), int(hits.any(axis=1).sum()), per_q,
                       own + time.perf_counter() - mark))
    return totals


def _units(conditions) -> list:
    """The indices of each unit's conditions, units in order of their first."""
    units = {}
    for k, cond in enumerate(conditions):
        units.setdefault(_unit_key(cond), []).append(k)
    return list(units.values())


def _chunks(unit: tuple, workers: int) -> list:
    """The (unit, start, stop) iteration ranges, about four per worker."""
    n_sims = unit[0].n_sims
    step = math.ceil(n_sims / (min(workers, n_sims) * 4))
    return [(unit, s, min(s + step, n_sims)) for s in range(0, n_sims, step)]


def _unit_reports(unit: tuple, chunks, interval: float) -> list:
    """One report per condition of the unit, with ``interval`` split among
    them in proportion to the seconds of each one's own work."""
    totals = [[sum(parts) for parts in zip(*per_chunk)] for per_chunk in zip(*chunks)]
    own = sum(total[3] for total in totals)
    return [_report(cond, total, interval * total[3] / own)
            for cond, total in zip(unit, totals)]


def _report(cond: SimCondition, totals, wall_time: float, error=None) -> SimulationReport:
    n_corr, n_uncorr, per_q, _ = totals
    n = cond.n_sims
    rate = n_corr / n
    return SimulationReport(condition=cond, rate=rate, se=math.sqrt(rate * (1.0 - rate) / n),
                            rate_uncorrected=n_uncorr / n,
                            per_quantile_rates=tuple((per_q / n).tolist()), n_sims=n,
                            wall_time=wall_time, error=error)


def _failed_reports(unit: tuple, exc: Exception) -> list:
    """A failed report for each condition of the unit, with NaN rates; each
    names the others."""
    reports = []
    for k, cond in enumerate(unit):
        error = f"{type(exc).__name__}: {exc}"
        others = [member.name for j, member in enumerate(unit) if j != k]
        if others:
            error += f" (shared with {', '.join(others)})"
        totals = (math.nan, math.nan, np.full(len(cond.quantiles), math.nan), 0.0)
        reports.append(_report(cond, totals, 0.0, error))
    return reports


def _check_workers(workers) -> None:
    """Reject a worker count that is not an integer of at least 1."""
    _check_integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def sweep(conditions, workers: int | None = None, progress=None) -> list:
    """Run every condition on at most one process pool, reporting in order.

    The conditions that share a unit (see ``_unit_key``: the same method
    family, cells, sizes, iterations, replicates, seed and quantiles) share
    every iteration's data, resamples and sort, wherever they stand in the
    list; a chunk runs a range of one unit's iterations.  ``workers``, an
    integer of at least 1, is capped at the largest ``n_sims``; at one,
    the chunks run in this process.  Above one, the pool starts with the
    first unit and the chunks of every unit are queued on it at once, in
    order of each unit's first condition, so a worker never idles at a
    unit boundary.  A unit that raises gives each of its conditions a
    report with the exception on ``error`` (naming the others it was
    shared with) and NaN rates; its queued chunks are cancelled and the
    sweep goes on.  A dead worker breaks the pool and every chunk on it,
    and any of them may have killed it, so the unit is rerun once, alone,
    on a fresh pool, and fails only if that pool breaks too; the units
    after it are queued again.
    ``progress(i, condition, report)`` is called for each condition, in
    condition order, once its unit is done, when given.
    """
    conditions = list(conditions)
    if not conditions:
        raise ValueError("sweep needs at least one condition")
    workers = 1 if workers is None else workers
    _check_workers(workers)
    workers = min(workers, max(cond.n_sims for cond in conditions))
    units = _units(conditions)
    groups = [tuple(conditions[k] for k in members) for members in units]
    tasks = [_chunks(unit, workers) for unit in groups]
    pool = None
    queued = []  # one list of futures per unit not yet read, in order
    reports = [None] * len(conditions)
    reported = 0  # conditions passed to progress so far
    mark = time.perf_counter()
    try:
        for u, (members, unit) in enumerate(zip(units, groups)):
            futures = []
            error = None
            try:
                if workers == 1:
                    chunks = list(map(_run_chunk, tasks[u]))
                else:
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers)
                    if not queued:
                        queued = [[pool.submit(_run_chunk, t) for t in ts] for ts in tasks[u:]]
                    futures = queued.pop(0)
                    try:
                        chunks = [f.result() for f in futures]
                    except BrokenProcessPool:
                        pool.shutdown()
                        queued = []
                        pool = ProcessPoolExecutor(max_workers=workers)
                        chunks = list(pool.map(_run_chunk, tasks[u]))
            except Exception as exc:  # noqa: BLE001 - aggregate without aborting the sweep
                for f in futures:
                    f.cancel()
                if isinstance(exc, BrokenProcessPool):
                    pool.shutdown()
                    pool = None
                    queued = []
                error = exc
            now = time.perf_counter()
            done = (_unit_reports(unit, chunks, now - mark) if error is None
                    else _failed_reports(unit, error))
            mark = now
            for k, report in zip(members, done):
                reports[k] = report
            # every condition before the next unit's first belongs to a unit done by now
            upto = units[u + 1][0] if u + 1 < len(units) else len(conditions)
            if progress is not None:
                for i in range(reported, upto):
                    progress(i, conditions[i], reports[i])
            reported = upto
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return reports


# --- experiment files -------------------------------------------------


def _parse_cells(cells, shifts) -> tuple:
    if cells is None:
        raise ValueError("missing 'cells'")
    if isinstance(cells, dict):
        specs = [DistributionSpec(**cells)] * 4
    elif isinstance(cells, list) and len(cells) == 4:
        specs = [DistributionSpec(**c) for c in cells]
    else:
        raise ValueError("'cells' must be one spec or a list of four")
    if shifts is not None:
        if not (isinstance(shifts, list) and len(shifts) == 4):
            raise ValueError("'shifts' must list four numbers")
        offsets = [float(d) for d in shifts]  # names a null or a non-numeric string
        if any(isinstance(d, (bool, str)) for d in shifts):
            raise ValueError(f"'shifts' must list four numbers, got {shifts!r}")
        specs = [replace(s, shift=s.shift + d) for s, d in zip(specs, offsets)]
    return tuple(specs)


# the fields an experiment entry may list, each with the name suffix of a
# value in a list of more than one; each field expands outside the ones
# before it, and its suffix goes before theirs
_GRID_FIELDS = (("n_per_group", "-n{}"), ("method", "-{}"))


def load_experiment(source) -> list:
    """Parse an experiment file (path or already-loaded dict) into conditions.

    The file is a JSON object with optional ``seed`` (master seed,
    default 0) and ``defaults``, plus a non-empty ``conditions`` list.
    Within a condition, ``n_per_group`` and ``method`` may be lists; the
    grid is expanded into one condition per combination.  Conditions
    without their own ``seed`` inherit the master seed, so variants that
    share populations also share simulated data.  Names must be unique;
    a bad entry raises an :class:`ExperimentError` naming ``conditions[i]``.
    """
    if isinstance(source, dict):
        obj = source
    else:
        with open(source, "r", encoding="utf-8-sig") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ExperimentError(f"invalid JSON in experiment file: {exc}") from exc
    if not isinstance(obj, dict):
        raise ExperimentError("experiment file must hold a JSON object")
    unknown = set(obj) - {"seed", "defaults", "conditions"}
    if unknown:
        raise ExperimentError(f"unknown top-level fields {sorted(unknown)}")
    master = obj.get("seed", 0)
    defaults = obj.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ExperimentError("'defaults' must be an object")
    raw = obj.get("conditions")
    if not isinstance(raw, list) or not raw:
        raise ExperimentError("experiment file needs a non-empty 'conditions' list")

    conditions = []
    names = set()
    for idx, entry in enumerate(raw):
        # the two dataclasses check every field; a stray one is a TypeError naming it
        try:
            rest = {"seed": master, "name": f"cond{idx}", **defaults, **entry}
            specs = _parse_cells(rest.pop("cells", None), rest.pop("shifts", None))
            declared = rest.pop("mode", None)
            grid = [("", {})]  # (name suffix, grid fields) of each condition
            for key, template in _GRID_FIELDS:
                values = rest.pop(key, None)
                if values is None or values == []:
                    raise ValueError(f"missing or empty {key!r}")
                values = values if isinstance(values, list) else [values]
                tag = template if len(values) > 1 else ""
                grid = [(tag.format(v) + suffix, {key: v, **fields})
                        for v in values for suffix, fields in grid]
            name = rest.pop("name")
            for suffix, fields in grid:
                cond = SimCondition(cell_specs=specs, name=name + suffix, **fields, **rest)
                if declared is not None and declared != cond.mode:
                    raise ValueError(f"declared mode {declared!r} but the cell "
                                     f"populations imply {cond.mode!r}")
                if cond.name in names:
                    raise ValueError(f"condition name {cond.name!r} is used twice")
                names.add(cond.name)
                conditions.append(cond)
        except (TypeError, ValueError) as exc:
            raise ExperimentError(f"conditions[{idx}]: {exc}") from exc
    return conditions


# --- report serialization ---------------------------------------------

REPORT_COLUMNS = (
    "name", "mode", "method", "contrast", "correction", "n_per_group",
    "n_sims", "n_boot", "alpha", "seed", "quantiles",
    "rate", "se", "rate_uncorrected", "per_quantile_rates", "error",
)


def report_csv_rows(reports) -> list:
    """Reports flattened to CSV-ready string rows (deterministic bytes)."""
    rows = []
    for rep in reports:
        cond = rep.condition
        rows.append((
            cond.name,
            cond.mode,
            cond.method,
            cond.contrast,
            cond.correction,
            str(cond.n_per_group),
            str(cond.n_sims),
            "" if cond.method == "anova_means" else str(cond.n_boot),
            repr(cond.alpha),
            str(cond.seed),
            " ".join(f"{q:g}" for q in cond.quantiles),
            repr(rep.rate),
            repr(rep.se),
            repr(rep.rate_uncorrected),
            " ".join(repr(r) for r in rep.per_quantile_rates),
            rep.error or "",
        ))
    return rows


def _blas_name():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return deps.get("blas", {}).get("name")


# the OpenBLAS build that numpy (and scipy) wheels ship
_OPENBLAS = "libscipy_openblas64_"


@functools.cache
def _openblas():
    """The (getter, setter) of the loaded scipy-openblas library's thread
    count, looked up once per process; None where no such library is
    loaded.  numpy loads the library when it is imported, so the lookup
    cannot come too early, and a forked child inherits it."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = [line.split(maxsplit=5)[5].strip() for line in fh if _OPENBLAS in line]
    except OSError:
        return None
    for path in dict.fromkeys(paths):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def _blas_threads():
    """The thread count of the loaded scipy-openblas library, read through
    its own getter; None where no such library is loaded."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def _single_blas_thread() -> None:
    """Set the loaded scipy-openblas library, if any, to one thread.

    The setter is called only when the count is not 1 already: after a
    fork, each call of it restarts a worker thread that spins a whole CPU.
    """
    blas = _openblas()
    if blas is not None and blas[0]() != 1:
        blas[1](1)


def report_metadata(reports, workers: int | None = None) -> dict:
    """JSON-ready metadata block for a batch of reports.

    The ``run`` block holds the facts of the run that do not change the
    numbers: versions, BLAS and its thread count in this process (null
    where no scipy-openblas library is loaded), the worker count the
    sweep was given (null when not given; otherwise an integer of at
    least 1, as ``sweep`` takes it), and each condition's wall time and
    iterations per second (null for a failed condition).
    """
    from . import __version__

    if workers is not None:
        _check_workers(workers)
        workers = int(workers)

    return {
        "schema_version": 1,
        "design_flags": dict(DESIGN_FLAGS),
        "n_conditions": len(reports),
        "failed_conditions": [r.condition.name for r in reports if r.error],
        "run": {
            "qshift_version": __version__,
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "blas": _blas_name(),
            "blas_threads": _blas_threads(),
            "workers": workers,
            "conditions": [{
                "name": r.condition.name,
                "wall_time_s": r.wall_time,
                "iters_per_s": None if r.error or r.wall_time <= 0 else r.n_sims / r.wall_time,
            } for r in reports],
        },
    }
