"""Deterministic random-stream addressing.

Every stochastic component in the package draws from a generator obtained
through :func:`stream`, addressed by a master seed plus a path of tags
(purpose strings, cell indices, iteration indices).  Identical addresses
always produce identical streams, so results never depend on execution
order or worker count.
"""

import hashlib

import numpy as np

__all__ = ["stream", "derive_seed"]


def _coerce_tag(tag) -> int:
    if isinstance(tag, (bool, float)):
        raise TypeError(f"stream tag must be int or str, got {tag!r}")
    if isinstance(tag, (int, np.integer)):
        if tag < 0:
            raise ValueError(f"stream tags must be non-negative, got {tag}")
        return int(tag)
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream tag must be int or str, got {type(tag).__name__}")


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = tuple(_coerce_tag(t) for t in path)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def stream(seed: int, *path) -> np.random.Generator:
    """Return the PCG64 generator addressed by ``(seed, *path)``.

    Path elements may be non-negative ints or strings (hashed stably).
    Distinct addresses yield statistically independent streams.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path) -> int:
    """Collapse ``(seed, *path)`` into a single 64-bit child seed."""
    state = _seed_sequence(seed, path).generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)
