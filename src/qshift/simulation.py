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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .bootstrap import DECILES, BootstrapConfig, signed_pvalue
from .contrasts import _psi_star
from .design import CONTRASTS, INTERACTION, MAIN_A, MAIN_B
from .distributions import DistributionSpec, generate
from .multcomp import CORRECTIONS, bh_reject, hochberg_reject
from .pairwise import IBAND_QUANTILES, _iband_star
from .quantiles import regularized_incomplete_beta
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
}


class DegenerateDataError(ValueError):
    """Input data leave a test statistic undefined (e.g. zero variance)."""


class ExperimentError(ValueError):
    """An experiment file failed validation."""


def _f_sf(f: float, d1: int, d2: int) -> float:
    """Upper tail probability of the F(d1, d2) distribution."""
    if f <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return regularized_incomplete_beta(x, d2 / 2.0, d1 / 2.0)


def anova_f_statistics(data) -> tuple:
    """Balanced two-way ANOVA F statistics ((FA, FB, FAB), df_within).

    Each F has 1 numerator degree of freedom and 4(n-1) within degrees.
    """
    cells = data.flat_cells() if hasattr(data, "flat_cells") else tuple(
        np.asarray(c, dtype=float) for c in data
    )
    sizes = {c.size for c in cells}
    if len(sizes) != 1:
        raise ValueError(f"cells must be balanced, got sizes {[c.size for c in cells]}")
    n = sizes.pop()
    if n < 2:
        raise ValueError(f"need at least 2 observations per cell, got {n}")

    y = np.stack(cells).reshape(2, 2, n)
    cell_means = y.mean(axis=2)
    grand = cell_means.mean()
    a_eff = cell_means.mean(axis=1) - grand
    b_eff = cell_means.mean(axis=0) - grand
    ss_a = 2 * n * float(np.sum(a_eff ** 2))
    ss_b = 2 * n * float(np.sum(b_eff ** 2))
    ss_ab = n * float(np.sum((cell_means - cell_means.mean(axis=1, keepdims=True)
                              - cell_means.mean(axis=0, keepdims=True) + grand) ** 2))
    ss_w = float(np.sum((y - cell_means[:, :, None]) ** 2))
    df_w = 4 * (n - 1)
    ms_w = ss_w / df_w
    if ms_w == 0.0:
        raise DegenerateDataError("zero within-cell variance; F statistics are undefined")
    return (ss_a / ms_w, ss_b / ms_w, ss_ab / ms_w), df_w


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
    return tuple(_f_sf(f, 1, df_w) for f in stats)


@dataclass(frozen=True)
class SimCondition:
    """One simulation condition of the error-rate / power study."""

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
        if self.quantiles is not None:
            object.__setattr__(self, "quantiles", tuple(float(q) for q in self.quantiles))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.contrast not in CONTRASTS:
            raise ValueError(f"unknown contrast {self.contrast!r}; expected one of {CONTRASTS}")
        if self.correction not in CORRECTIONS:
            raise ValueError(f"unknown correction {self.correction!r}; expected one of {CORRECTIONS}")
        if self.n_sims < 1:
            raise ValueError(f"n_sims must be at least 1, got {self.n_sims}")
        if self.n_per_group < 1:
            raise ValueError(f"n_per_group must be at least 1, got {self.n_per_group}")
        if self.method.startswith("iband") and self.contrast != INTERACTION:
            raise ValueError("the pairwise-difference test supports the interaction only")

    @property
    def mode(self) -> str:
        """'fwer' when all four populations are identical, else 'power'."""
        return "fwer" if all(s == self.cell_specs[0] for s in self.cell_specs) else "power"

    def effective_quantiles(self) -> tuple:
        if self.quantiles is not None:
            return self.quantiles
        return IBAND_QUANTILES if self.method.startswith("iband") else DECILES

    def bootstrap_config(self, seed: int = 0) -> BootstrapConfig:
        estimator = "hd" if self.method.endswith("_hd") else "t7"
        return BootstrapConfig(
            n_boot=self.n_boot,
            alpha=self.alpha,
            seed=seed,
            estimator=estimator,
            quantiles=self.effective_quantiles(),
        )


@dataclass(frozen=True)
class SimulationReport:
    """Estimated familywise rate for one condition.

    ``rate`` is the fraction of iterations with at least one rejection
    after the configured correction (the FWER under a null condition,
    the familywise power otherwise); ``rate_uncorrected`` ignores the
    correction.  ``se`` is the binomial standard error of ``rate``.
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


def _validate_condition(cond: SimCondition) -> None:
    if not 0.0 < cond.alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {cond.alpha}")
    if cond.method != "anova_means":
        cond.bootstrap_config()  # raises on bad n_boot / alpha / quantiles


_CONTRAST_INDEX = {MAIN_A: 0, MAIN_B: 1, INTERACTION: 2}


def _iterate(cond: SimCondition, i: int):
    """Run iteration i; returns (rejected_corrected, rejected_uncorrected, per_q)."""
    cells = [
        generate(spec, cond.n_per_group, stream(cond.seed, "data", i, c))
        for c, spec in enumerate(cond.cell_specs)
    ]
    if cond.method == "anova_means":
        p = anova_f_test(cells)[_CONTRAST_INDEX[cond.contrast]]
        rejected = p <= cond.alpha
        return rejected, rejected, np.zeros(0, dtype=bool)

    config = cond.bootstrap_config(seed=derive_seed(cond.seed, "boot", i))
    if cond.method.startswith("decinter"):
        pvals = signed_pvalue(_psi_star(cells, cond.contrast, config))
    else:
        pvals = signed_pvalue(_iband_star(cells, config))
    per_q = pvals <= cond.alpha
    if cond.correction == "none":
        corrected = per_q
    elif cond.correction == "hochberg":
        corrected = hochberg_reject(pvals, cond.alpha)
    else:
        corrected = bh_reject(pvals, cond.alpha)
    return bool(corrected.any()), bool(per_q.any()), per_q


def _run_chunk(args):
    cond, start, stop = args
    n_q = 0 if cond.method == "anova_means" else len(cond.effective_quantiles())
    n_corr = 0
    n_uncorr = 0
    per_q = np.zeros(n_q, dtype=np.int64)
    for i in range(start, stop):
        corr, uncorr, q_mask = _iterate(cond, i)
        n_corr += corr
        n_uncorr += uncorr
        per_q += q_mask
    return n_corr, n_uncorr, per_q


def _run_condition(cond: SimCondition, workers: int | None = None) -> SimulationReport:
    _validate_condition(cond)
    t0 = time.perf_counter()
    workers = 1 if workers is None else max(1, int(workers))
    workers = min(workers, cond.n_sims)
    if workers == 1:
        n_corr, n_uncorr, per_q = _run_chunk((cond, 0, cond.n_sims))
    else:
        step = math.ceil(cond.n_sims / (workers * 4))
        tasks = [(cond, s, min(s + step, cond.n_sims)) for s in range(0, cond.n_sims, step)]
        n_corr = n_uncorr = 0
        per_q = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for c, u, q in pool.map(_run_chunk, tasks):
                n_corr += c
                n_uncorr += u
                per_q = per_q + q
    rate = n_corr / cond.n_sims
    return SimulationReport(
        condition=cond,
        rate=rate,
        se=math.sqrt(rate * (1.0 - rate) / cond.n_sims),
        rate_uncorrected=n_uncorr / cond.n_sims,
        per_quantile_rates=tuple((np.asarray(per_q, dtype=float) / cond.n_sims).tolist()),
        n_sims=cond.n_sims,
        wall_time=time.perf_counter() - t0,
    )


def run_fwer(cond: SimCondition, workers: int | None = None) -> SimulationReport:
    """Estimate the familywise Type I error rate of a null condition.

    All four cell populations must be identical so every hypothesis in
    the family is true.
    """
    if cond.mode != "fwer":
        raise ValueError("FWER conditions need four identical cell populations")
    return _run_condition(cond, workers)


def run_power(cond: SimCondition, workers: int | None = None) -> SimulationReport:
    """Estimate familywise power for a condition with unequal populations."""
    if cond.mode != "power":
        raise ValueError("power conditions need at least one differing cell population")
    return _run_condition(cond, workers)


def sweep(conditions, workers: int | None = None, progress=None) -> list:
    """Run every condition, collecting per-condition failures instead of raising.

    All conditions are validated before any executes; validation problems
    raise immediately.  Runtime failures are recorded on the report's
    ``error`` field with NaN rates.  ``progress(i, condition, report)`` is
    called after each condition when given.
    """
    conditions = list(conditions)
    if not conditions:
        raise ValueError("sweep needs at least one condition")
    for cond in conditions:
        _validate_condition(cond)
    reports = []
    for i, cond in enumerate(conditions):
        try:
            report = _run_condition(cond, workers)
        except Exception as exc:  # noqa: BLE001 - aggregate without aborting the sweep
            nq = 0 if cond.method == "anova_means" else len(cond.effective_quantiles())
            report = SimulationReport(
                condition=cond,
                rate=float("nan"),
                se=float("nan"),
                rate_uncorrected=float("nan"),
                per_quantile_rates=(float("nan"),) * nq,
                n_sims=cond.n_sims,
                wall_time=0.0,
                error=f"{type(exc).__name__}: {exc}",
            )
        reports.append(report)
        if progress is not None:
            progress(i, cond, report)
    return reports


# --- experiment files -------------------------------------------------

_SPEC_FIELDS = {"kind", "mean", "r", "s", "nbin", "g", "h", "shift"}
_COND_FIELDS = {
    "name", "method", "contrast", "correction", "n_per_group", "cells", "shifts",
    "n_sims", "n_boot", "alpha", "seed", "quantiles", "mode",
}


def _parse_spec(obj, where: str) -> DistributionSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ExperimentError(f"{where}: each cell spec must be an object with a 'kind'")
    unknown = set(obj) - _SPEC_FIELDS
    if unknown:
        raise ExperimentError(f"{where}: unknown spec fields {sorted(unknown)}")
    try:
        return DistributionSpec(**obj)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"{where}: {exc}") from exc


def _parse_cells(merged: dict, where: str) -> tuple:
    cells = merged.get("cells")
    if cells is None:
        raise ExperimentError(f"{where}: missing 'cells'")
    if isinstance(cells, dict):
        specs = [_parse_spec(cells, where)] * 4
    elif isinstance(cells, list) and len(cells) == 4:
        specs = [_parse_spec(c, where) for c in cells]
    else:
        raise ExperimentError(f"{where}: 'cells' must be one spec or a list of four")
    shifts = merged.get("shifts")
    if shifts is not None:
        if not (isinstance(shifts, list) and len(shifts) == 4):
            raise ExperimentError(f"{where}: 'shifts' must list four numbers")
        specs = [replace(s, shift=s.shift + float(d)) for s, d in zip(specs, shifts)]
    return tuple(specs)


def load_experiment(source) -> list:
    """Parse an experiment file (path or already-loaded dict) into conditions.

    The file is a JSON object with optional ``seed`` (master seed,
    default 0) and ``defaults``, plus a non-empty ``conditions`` list.
    Within a condition, ``n_per_group`` and ``method`` may be lists; the
    grid is expanded into one condition per combination.  Conditions
    without their own ``seed`` inherit the master seed, so variants that
    share populations also share simulated data.
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
    for idx, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ExperimentError(f"conditions[{idx}] must be an object")
        merged = {**defaults, **entry}
        where = f"conditions[{idx}]"
        unknown = set(merged) - _COND_FIELDS
        if unknown:
            raise ExperimentError(f"{where}: unknown fields {sorted(unknown)}")
        name = str(merged.get("name", f"cond{idx}"))
        specs = _parse_cells(merged, where)
        n_values = merged.get("n_per_group")
        if n_values is None:
            raise ExperimentError(f"{where}: missing 'n_per_group'")
        if not isinstance(n_values, list):
            n_values = [n_values]
        methods = merged.get("method")
        if methods is None:
            raise ExperimentError(f"{where}: missing 'method'")
        if not isinstance(methods, list):
            methods = [methods]
        for method in methods:
            for n in n_values:
                suffix = ""
                if len(methods) > 1:
                    suffix += f"-{method}"
                if len(n_values) > 1:
                    suffix += f"-n{n}"
                try:
                    cond = SimCondition(
                        cell_specs=specs,
                        n_per_group=int(n),
                        method=str(method),
                        contrast=str(merged.get("contrast", INTERACTION)),
                        correction=str(merged.get("correction", "bh")),
                        n_sims=int(merged.get("n_sims", 2000)),
                        n_boot=int(merged.get("n_boot", 600)),
                        alpha=float(merged.get("alpha", 0.05)),
                        seed=int(merged.get("seed", master)),
                        quantiles=(tuple(merged["quantiles"])
                                   if merged.get("quantiles") is not None else None),
                        name=name + suffix,
                    )
                except (TypeError, ValueError) as exc:
                    raise ExperimentError(f"{where}: {exc}") from exc
                declared = merged.get("mode")
                if declared is not None and declared != cond.mode:
                    raise ExperimentError(
                        f"{where}: declared mode {declared!r} but the cell "
                        f"populations imply {cond.mode!r}"
                    )
                conditions.append(cond)
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
            str(cond.n_boot),
            repr(cond.alpha),
            str(cond.seed),
            " ".join(f"{q:g}" for q in cond.effective_quantiles()),
            repr(rep.rate),
            repr(rep.se),
            repr(rep.rate_uncorrected),
            " ".join(repr(r) for r in rep.per_quantile_rates),
            rep.error or "",
        ))
    return rows


def report_metadata(reports) -> dict:
    """JSON-ready metadata block for a batch of reports."""
    return {
        "schema_version": 1,
        "design_flags": dict(DESIGN_FLAGS),
        "n_conditions": len(reports),
        "failed_conditions": [r.condition.name for r in reports if r.error],
    }
