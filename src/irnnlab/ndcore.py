"""Dense float64 linear algebra plus seeded randomness; the base layer for everything else.

Matrices are 2-D row-major ``numpy.float64`` arrays, vectors are 1-D. All
operations are shape-checked and pure. Randomness comes from a PCG64
generator so that equal seeds give equal streams within one installation
(bitwise reproducibility across library versions is out of scope).
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


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def _as_vector(a, name: str = "vector") -> np.ndarray:
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def matvec(m, v) -> np.ndarray:
    """Matrix-vector product; result[i] = sum_j m[i, j] * v[j]."""
    m = _as_matrix(m)
    v = _as_vector(v)
    if m.shape[1] != v.shape[0]:
        raise ShapeError(
            f"matvec: matrix shape {m.shape} is incompatible with vector shape {v.shape}"
        )
    return m @ v


def identity(n: int) -> np.ndarray:
    """The n-by-n identity matrix."""
    if n < 1:
        raise ValueError(f"identity: n must be >= 1, got {n}")
    return np.eye(n, dtype=np.float64)


def scaled_identity(n: int, s: float) -> np.ndarray:
    """n-by-n matrix with s on the diagonal and zeros elsewhere."""
    if n < 1:
        raise ValueError(f"scaled_identity: n must be >= 1, got {n}")
    return np.eye(n, dtype=np.float64) * float(s)


def gaussian_fill(rows: int, cols: int, mean: float, std: float, rng: Rng) -> np.ndarray:
    """rows-by-cols matrix of i.i.d. Normal(mean, std**2) draws."""
    if rows < 1 or cols < 1:
        raise ValueError(f"gaussian_fill: dimensions must be >= 1, got {rows}x{cols}")
    if std < 0:
        raise ValueError(f"gaussian_fill: std must be >= 0, got {std}")
    return rng.normal(loc=mean, scale=std, size=(rows, cols))


def gaussian_vector(n: int, mean: float, std: float, rng: Rng) -> np.ndarray:
    """Length-n vector of i.i.d. Normal(mean, std**2) draws."""
    if n < 1:
        raise ValueError(f"gaussian_vector: n must be >= 1, got {n}")
    if std < 0:
        raise ValueError(f"gaussian_vector: std must be >= 0, got {std}")
    return rng.normal(loc=mean, scale=std, size=n)


def l2_norm(arrays) -> float:
    """Euclidean norm of all elements across every array in the collection."""
    total = 0.0
    with np.errstate(over="ignore"):  # an overflowing sum is reported as an infinite norm
        for a in arrays:
            flat = np.asarray(a, dtype=np.float64).ravel()
            total += float(np.dot(flat, flat))
    return math.sqrt(total)


def add(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return a + b


def sub(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    return a - b


def scale(a, s: float) -> np.ndarray:
    return np.asarray(a, dtype=np.float64) * float(s)


def hadamard(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: shapes {a.shape} and {b.shape} differ")
    return a * b


def outer(u, v) -> np.ndarray:
    u = _as_vector(u, "outer: left operand")
    v = _as_vector(v, "outer: right operand")
    return np.outer(u, v)


def transpose(m) -> np.ndarray:
    """Transposed copy (keeps the row-major layout invariant)."""
    return _as_matrix(m).T.copy()
