"""Seeded randomness, the global L2 norm, and the package's two numeric error types.

Randomness comes from a PCG64 generator so that equal seeds give equal
streams within one installation (bitwise reproducibility across library
versions is out of scope).
"""

from __future__ import annotations

import math

import numpy as np

Rng = np.random.Generator


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DivergenceError(RuntimeError):
    """A computation produced non-finite or overflowing values."""


def make_rng(seed: int) -> Rng:
    """Deterministic 64-bit generator from an integer seed."""
    return np.random.Generator(np.random.PCG64(seed))


def l2_norm(arrays) -> float:
    """Euclidean norm of all elements across every array in the collection."""
    total = 0.0
    with np.errstate(over="ignore"):  # an overflowing sum is reported as an infinite norm
        for a in arrays:
            flat = np.asarray(a, dtype=np.float64).ravel()
            total += float(np.dot(flat, flat))
    return math.sqrt(total)
