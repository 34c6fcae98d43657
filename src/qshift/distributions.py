"""Random generators for the simulation populations.

The continuous populations include two scale-contaminated mixtures: the
mixed normal draws N(0,1) with probability .9 and N(0,10^2) otherwise,
and the mixed lognormal scales a standard lognormal draw by 10 with
probability .1.  Both are classic heavy-tailed stress cases.  The
beta-binomial uses nbin - 1 trials so its support has exactly nbin
distinct values, producing heavy ties.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .bootstrap import _check_integer
from .quantiles import _MAX_ABS

__all__ = [
    "DistributionSpec",
    "generate",
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

    Each kind reads ``shift`` and only its own parameters, ``mean`` for
    poisson; ``r``, ``s``, ``nbin`` for beta_binomial; ``g``, ``h`` for
    g_and_h.  Any other field must keep its default.
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
        # json.load reads NaN and Infinity, which would generate NaN cells
        for name in ("mean", "r", "s", "g", "h", "shift"):
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        own = {"poisson": ("mean",), "beta_binomial": ("r", "s", "nbin"),
               "g_and_h": ("g", "h")}.get(self.kind, ())
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("kind", "shift", *own) and value != f.default:
                raise ValueError(f"{self.kind} does not read {f.name}, got {f.name}={value!r}")
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


def _contaminate(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    scale = np.where(rng.random(base.size) < _CONTAMINATION_RATE, _CONTAMINATION_SCALE, 1.0)
    return base * scale


def generate(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. values from the specified population, plus its shift.

    The draw order within a kind is fixed (base variates first, then any
    contamination uniforms), so a given stream always yields the same
    sample regardless of the shift.  A draw holding a NaN or a value
    beyond ``_MAX_ABS`` in magnitude, which the analyses reject, raises a
    ``ValueError``.
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
        # an overflow to inf is reported by the bound check below
        with np.errstate(over="ignore"):
            tail = np.exp(spec.h * z * z / 2.0)
        if spec.g == 0.0:
            x = z * tail
        else:
            x = np.expm1(spec.g * z) / spec.g * tail
    else:  # pragma: no cover - guarded by DistributionSpec
        raise ValueError(f"unknown distribution kind {kind!r}")
    x = x + spec.shift
    if not np.abs(x).max() <= _MAX_ABS:  # false on NaN too
        raise ValueError(f"{spec} drew a NaN or a value beyond {_MAX_ABS:.4g} "
                         f"in magnitude")
    return x
