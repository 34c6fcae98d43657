"""Quantile-shift inference for 2x2 between-subjects factorial designs.

Decile-level interaction and main-effect tests based on the
Harrell-Davis quantile estimator with a percentile bootstrap, quantile
comparison of all-pairwise-difference distributions, familywise and FDR
multiplicity control, and a Monte Carlo harness for validating error
rates and power.
"""

from .bootstrap import DECILES, BootstrapConfig, InferenceResult, percentile_ci, signed_pvalue
from .contrasts import contrast_value, decinter
from .data import DataError, read_long_csv
from .design import CONTRASTS, INTERACTION, MAIN_A, MAIN_B, FactorialSample, QuantileTestRow
from .distributions import KINDS, DistributionSpec, generate
from .multcomp import CORRECTIONS, adjust_pvalues
from .pairwise import (
    IBAND_QUANTILES,
    iband,
    median_diff_test,
    pairwise_differences,
    ph_probability,
)
from .quantiles import ESTIMATORS, estimate_quantiles, hd_quantile
from .rng import derive_seed, stream
from .simulation import (
    METHODS,
    DegenerateDataError,
    ExperimentError,
    SimCondition,
    SimulationReport,
    anova_f_statistics,
    anova_f_test,
    load_experiment,
    run_fwer,
    run_power,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "CONTRASTS",
    "CORRECTIONS",
    "DECILES",
    "DataError",
    "DegenerateDataError",
    "DistributionSpec",
    "ESTIMATORS",
    "ExperimentError",
    "FactorialSample",
    "IBAND_QUANTILES",
    "INTERACTION",
    "InferenceResult",
    "KINDS",
    "MAIN_A",
    "MAIN_B",
    "METHODS",
    "QuantileTestRow",
    "SimCondition",
    "SimulationReport",
    "adjust_pvalues",
    "anova_f_statistics",
    "anova_f_test",
    "contrast_value",
    "decinter",
    "derive_seed",
    "estimate_quantiles",
    "generate",
    "hd_quantile",
    "iband",
    "load_experiment",
    "median_diff_test",
    "pairwise_differences",
    "percentile_ci",
    "ph_probability",
    "read_long_csv",
    "run_fwer",
    "run_power",
    "signed_pvalue",
    "stream",
    "sweep",
]
