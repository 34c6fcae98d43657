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

import json
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from .bootstrap import DECILES, BootstrapConfig, _check_integer, signed_pvalue
from .contrasts import _psi_star, contrast_value
from .design import CONTRASTS, INTERACTION, MAIN_A, MAIN_B
from .distributions import DistributionSpec, generate
from .multcomp import CORRECTIONS, adjust_pvalues
from .pairwise import IBAND_QUANTILES, _iband_star
from .quantiles import _as_sample, _betainc_grid
from .rng import derive_seed, stream

__all__ = [
    "METHODS",
    "SimCondition",
    "SimulationReport",
    "DegenerateDataError",
    "ExperimentError",
    "anova_f_test",
    "anova_f_statistics",
    "run_fwer",
    "run_power",
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
    whose cell residuals are +-psi/4.  The cells are first scaled by the
    power of two that puts max|y| in [0.5, 1); that is exact and leaves F
    unchanged, so no sum of squares over- or underflows.
    """
    cells = data.flat_cells() if hasattr(data, "flat_cells") else tuple(
        _as_sample(c, f"cell ({i // 2 + 1},{i % 2 + 1})") for i, c in enumerate(data)
    )
    sizes = {c.size for c in cells}
    if len(sizes) != 1:
        raise ValueError(f"cells must be balanced, got sizes {[c.size for c in cells]}")
    n = sizes.pop()
    if n < 2:
        raise ValueError(f"need at least 2 observations per cell, got {n}")

    y = np.stack(cells)
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    means = y.mean(axis=1)
    df_w = 4 * (n - 1)
    ms_w = float(np.sum((y - means[:, None]) ** 2)) / df_w
    if ms_w == 0.0:
        raise DegenerateDataError("zero within-cell variance; F statistics are undefined")
    means = means.tolist()
    return tuple(
        n * contrast_value(means, kind)[2] ** 2 / (4.0 * ms_w if kind == INTERACTION else ms_w)
        for kind in _EFFECTS
    ), df_w


def anova_f_test(data) -> tuple:
    """Balanced two-way fixed-effects ANOVA p-values (pA, pB, pAB).

    Requires equal cell sizes n >= 2; each F statistic has (1, 4(n-1))
    degrees of freedom.

    Raises
    ------
    ValueError
        If the design is unbalanced (the simulations are balanced).
    DegenerateDataError
        If the within-cell variance is zero.
    """
    stats, df_w = anova_f_statistics(data)
    # P(F(1, d) > f) = I_x(d/2, 1/2) at x = d/(d + f), so f = 0 gives p = 1;
    # 1 - x is passed as f/(d + f), which keeps its digits for f near 0
    f = np.array(stats)
    return tuple(_betainc_grid(df_w / (df_w + f), f / (df_w + f), df_w / 2.0, 0.5).tolist())


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
        estimator = "hd" if self.method.endswith("_hd") else "t7"
        return BootstrapConfig(
            n_boot=self.n_boot,
            alpha=self.alpha,
            seed=seed,
            estimator=estimator,
            quantiles=self.quantiles,
        )


@dataclass(frozen=True)
class SimulationReport:
    """Estimated familywise rate for one condition.

    ``rate`` is the fraction of iterations with at least one rejection
    after the configured correction (the FWER under a null condition,
    the familywise power otherwise); ``rate_uncorrected`` ignores the
    correction.  ``se`` is the binomial standard error of ``rate``.

    ``wall_time`` runs from the previous condition's report (for the
    first condition, from the start of the sweep) to this condition's
    last chunk's result, so the wall times of a sweep add up to its
    duration even though a pool runs the chunks of several conditions at
    once.  The first condition also pays the workers' start-up, and no
    condition pays the pool's shutdown.  A failed condition reports 0,
    and the time up to its failure is charged to no condition.
    Wall time is informational and excluded from equality.
    """

    condition: SimCondition
    rate: float
    se: float
    rate_uncorrected: float
    per_quantile_rates: tuple
    n_sims: int
    wall_time: float = field(compare=False)
    error: str | None = None


def _iterate(cond: SimCondition, i: int):
    """Run iteration i; returns (rejected_corrected, rejected_uncorrected, per_q)."""
    cells = [
        generate(spec, cond.n_per_group, stream(cond.seed, "data", i, c))
        for c, spec in enumerate(cond.cell_specs)
    ]
    if cond.method == "anova_means":
        p = anova_f_test(cells)[_EFFECTS.index(cond.contrast)]
        rejected = p <= cond.alpha
        return rejected, rejected, np.zeros(0, dtype=bool)

    config = cond.bootstrap_config(seed=derive_seed(cond.seed, "boot", i))
    if cond.method.startswith("decinter"):
        pvals = signed_pvalue(_psi_star(cells, cond.contrast, config))
    else:
        pvals = signed_pvalue(_iband_star(cells, config))
    per_q = pvals <= cond.alpha
    # the rule the analysis tables print: reject where p.adj <= alpha
    corrected = adjust_pvalues(pvals, cond.correction) <= cond.alpha
    return bool(corrected.any()), bool(per_q.any()), per_q


def _run_chunk(args):
    cond, start, stop = args
    n_corr = 0
    n_uncorr = 0
    per_q = np.zeros(len(cond.quantiles), dtype=np.int64)
    for i in range(start, stop):
        corr, uncorr, q_mask = _iterate(cond, i)
        n_corr += corr
        n_uncorr += uncorr
        per_q += q_mask
    return n_corr, n_uncorr, per_q


def _chunks(cond: SimCondition, workers: int) -> list:
    """The (condition, start, stop) iteration ranges, about four per worker."""
    step = math.ceil(cond.n_sims / (min(workers, cond.n_sims) * 4))
    return [(cond, s, min(s + step, cond.n_sims)) for s in range(0, cond.n_sims, step)]


def _report(cond: SimCondition, chunks, wall_time: float) -> SimulationReport:
    n_corr, n_uncorr, per_q = (sum(parts) for parts in zip(*chunks))
    rate = n_corr / cond.n_sims
    return SimulationReport(
        condition=cond,
        rate=rate,
        se=math.sqrt(rate * (1.0 - rate) / cond.n_sims),
        rate_uncorrected=n_uncorr / cond.n_sims,
        per_quantile_rates=tuple((per_q / cond.n_sims).tolist()),
        n_sims=cond.n_sims,
        wall_time=wall_time,
    )


def _failed_report(cond: SimCondition, exc: Exception) -> SimulationReport:
    return SimulationReport(
        condition=cond,
        rate=float("nan"),
        se=float("nan"),
        rate_uncorrected=float("nan"),
        per_quantile_rates=(float("nan"),) * len(cond.quantiles),
        n_sims=cond.n_sims,
        wall_time=0.0,
        error=f"{type(exc).__name__}: {exc}",
    )


def _gather(futures) -> list:
    """The futures' results in order; on an error the rest are cancelled."""
    try:
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        raise


def _run(conditions, workers, isolate: bool, progress=None) -> list:
    """Run the conditions on at most one process pool, reporting in order.

    ``workers`` is capped at the largest ``n_sims``; at one, each
    condition's chunks run in this process.  Above one, the pool is
    started with the first condition, the chunks of every condition are
    queued on it at once, in condition order, and the results are read
    back in that order, so a worker never idles at a condition boundary.
    A report's wall time runs from the previous report (the first: from
    the start of the run) to the condition's last result.

    With ``isolate``, a condition that raises gets a failed report and
    the run goes on: its queued chunks are cancelled and the rest of the
    queue is kept.  A worker that dies breaks the pool and every chunk
    still on it; if chunks of later conditions were queued, any of them
    may have killed it, so the condition is rerun alone on a fresh pool
    and fails only if that pool breaks too.  The conditions after it are
    queued again on a working pool.  Without ``isolate``, the error
    propagates.
    """
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, max(cond.n_sims for cond in conditions))
    tasks = [_chunks(cond, workers) for cond in conditions]
    pool = None
    queued = []  # one list of futures per condition not yet read, in order
    reports = []
    mark = time.perf_counter()
    try:
        for i, cond in enumerate(conditions):
            try:
                if workers == 1:
                    chunks = list(map(_run_chunk, tasks[i]))
                else:
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers)
                    if not queued:
                        queued = [[pool.submit(_run_chunk, t) for t in ts] for ts in tasks[i:]]
                    futures = queued.pop(0)
                    try:
                        chunks = _gather(futures)
                    except BrokenProcessPool:
                        if not queued:
                            raise
                        pool.shutdown()
                        queued = []
                        pool = ProcessPoolExecutor(max_workers=workers)
                        chunks = list(pool.map(_run_chunk, tasks[i]))
                now = time.perf_counter()
                report = _report(cond, chunks, now - mark)
            except Exception as exc:  # noqa: BLE001 - aggregate without aborting the sweep
                if isinstance(exc, BrokenProcessPool):
                    pool.shutdown()
                    pool = None
                    queued = []
                if not isolate:
                    raise
                now = time.perf_counter()
                report = _failed_report(cond, exc)
            mark = now
            reports.append(report)
            if progress is not None:
                progress(i, cond, report)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return reports


def run_fwer(cond: SimCondition, workers: int | None = None) -> SimulationReport:
    """Estimate the familywise Type I error rate of a null condition.

    All four cell populations must be identical so every hypothesis in
    the family is true.
    """
    if cond.mode != "fwer":
        raise ValueError("FWER conditions need four identical cell populations")
    return _run([cond], workers, isolate=False)[0]


def run_power(cond: SimCondition, workers: int | None = None) -> SimulationReport:
    """Estimate familywise power for a condition with unequal populations."""
    if cond.mode != "power":
        raise ValueError("power conditions need at least one differing cell population")
    return _run([cond], workers, isolate=False)[0]


def sweep(conditions, workers: int | None = None, progress=None) -> list:
    """Run every condition, collecting per-condition failures instead of raising.

    Conditions validate themselves when built, so a sweep never starts on
    an invalid one.  All conditions share one pool of ``workers``
    processes, capped at the largest ``n_sims``; ``workers = 1`` runs in
    this process.  Runtime failures, a dead worker included, are recorded
    on the report's ``error`` field with NaN rates; a dead worker fails
    only the condition whose chunk killed it (see ``_run``).
    ``progress(i, condition, report)`` is called after each condition,
    in order, when given.
    """
    conditions = list(conditions)
    if not conditions:
        raise ValueError("sweep needs at least one condition")
    return _run(conditions, workers, isolate=True, progress=progress)


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


def _grid_values(values, key: str) -> list:
    if values is None or values == []:
        raise ValueError(f"missing or empty {key!r}")
    return values if isinstance(values, list) else [values]


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
            n_values = _grid_values(rest.pop("n_per_group", None), "n_per_group")
            methods = _grid_values(rest.pop("method", None), "method")
            name = rest.pop("name")
            for method in methods:
                for n in n_values:
                    suffix = ""
                    if len(methods) > 1:
                        suffix += f"-{method}"
                    if len(n_values) > 1:
                        suffix += f"-n{n}"
                    cond = SimCondition(cell_specs=specs, n_per_group=n, method=method,
                                        name=name + suffix, **rest)
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


def report_metadata(reports, workers: int | None = None) -> dict:
    """JSON-ready metadata block for a batch of reports.

    The ``run`` block holds the facts of the run that do not change the
    numbers: versions, BLAS, the worker count the sweep was given, and
    each condition's wall time and iterations per second (null for a
    failed condition).
    """
    from . import __version__

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
            "workers": workers,
            "conditions": [{
                "name": r.condition.name,
                "wall_time_s": r.wall_time,
                "iters_per_s": None if r.error or r.wall_time <= 0 else r.n_sims / r.wall_time,
            } for r in reports],
        },
    }
