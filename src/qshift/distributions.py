"""Random generators for the simulation populations, plus a kurtosis diagnostic.

The continuous populations include two scale-contaminated mixtures: the
mixed normal draws N(0,1) with probability .9 and N(0,10^2) otherwise,
and the mixed lognormal scales a standard lognormal draw by 10 with
probability .1.  Both are classic heavy-tailed stress cases.  The
beta-binomial uses nbin - 1 trials so its support has exactly nbin
distinct values, producing heavy ties.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import _check_integer

__all__ = [
    "DistributionSpec",
    "generate",
    "sample_kurtosis",
    "lognormal_kurtosis",
    "KINDS",
]

KINDS = (
    "normal",
    "mixed_normal",
    "lognormal",
    "mixed_lognormal",
    "poisson",
    "beta_binomial",
    "g_and_h",
)

_CONTAMINATION_RATE = 0.1
_CONTAMINATION_SCALE = 10.0


@dataclass(frozen=True)
class DistributionSpec:
    """A named population with its parameters and a post-generation shift.

    Only the fields relevant to ``kind`` are used: ``mean`` for poisson;
    ``r``, ``s``, ``nbin`` for beta_binomial; ``g``, ``h`` for g_and_h.
    """

    kind: str
    mean: float = 9.0
    r: float = 1.0
    s: float = 9.0
    nbin: int = 10
    g: float = 0.0
    h: float = 0.0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "poisson" and not self.mean > 0:
            raise ValueError(f"poisson mean must be positive, got {self.mean}")
        if self.kind == "beta_binomial":
            if not (self.r > 0 and self.s > 0):
                raise ValueError(f"beta-binomial needs r, s > 0, got r={self.r}, s={self.s}")
            _check_integer("nbin", self.nbin)
            if self.nbin < 2:
                raise ValueError(f"beta-binomial needs nbin >= 2, got {self.nbin}")
        if self.kind == "g_and_h" and self.h < 0:
            raise ValueError(f"g-and-h tail parameter h must be >= 0, got {self.h}")
        if isinstance(self.shift, bool) or not math.isfinite(self.shift):
            raise ValueError(f"shift must be a finite number, got {self.shift!r}")


def _contaminate(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    scale = np.where(rng.random(base.size) < _CONTAMINATION_RATE, _CONTAMINATION_SCALE, 1.0)
    return base * scale


def generate(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. values from the specified population, plus its shift.

    The draw order within a kind is fixed (base variates first, then any
    contamination uniforms), so a given stream always yields the same
    sample regardless of the shift.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    kind = spec.kind
    if kind == "normal":
        x = rng.standard_normal(n)
    elif kind == "mixed_normal":
        x = _contaminate(rng.standard_normal(n), rng)
    elif kind == "lognormal":
        x = np.exp(rng.standard_normal(n))
    elif kind == "mixed_lognormal":
        x = _contaminate(np.exp(rng.standard_normal(n)), rng)
    elif kind == "poisson":
        x = rng.poisson(spec.mean, n).astype(float)
    elif kind == "beta_binomial":
        p = rng.beta(spec.r, spec.s, n)
        x = rng.binomial(spec.nbin - 1, p).astype(float)
    elif kind == "g_and_h":
        z = rng.standard_normal(n)
        tail = np.exp(spec.h * z * z / 2.0)
        if spec.g == 0.0:
            x = z * tail
        else:
            x = np.expm1(spec.g * z) / spec.g * tail
    else:  # pragma: no cover - guarded by DistributionSpec
        raise ValueError(f"unknown distribution kind {kind!r}")
    return x + spec.shift


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
