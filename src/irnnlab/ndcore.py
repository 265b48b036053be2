"""Seeded randomness, the global L2 norm, the package's error types, and the payload reader.

Randomness comes from a PCG64 generator so that equal seeds give equal
streams within one installation (bitwise reproducibility across library
versions is out of scope).

Every binary file (ADDP datasets, IDX images and labels, IRNN checkpoints)
is a header and one payload array. Its loader parses the header and checks
the file size against it with ``check_size`` before allocating anything.
IDX files and checkpoints are then read by ``read_payload`` straight into one
array (``network`` copies a checkpoint's once into its parameter vector); ADDP
files are streamed in blocks of examples (``tasks.load_adding``), never whole.
"""

from __future__ import annotations

import math
import os

import numpy as np

Rng = np.random.Generator


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DivergenceError(RuntimeError):
    """A computation produced non-finite or overflowing values."""


class DataFormatError(ValueError):
    """A data or checkpoint file failed structural validation."""


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


def check_size(path, size: int, expected: int) -> None:
    """Raise ``DataFormatError`` unless ``size``, the bytes the file ``path`` holds or
    yielded, is the ``expected`` header plus payload: a short file is reported as
    truncated, and a long one by its trailing bytes."""
    if size < expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {size} (truncated at offset {size})")
    if size > expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes, found {size} ({size - expected} trailing bytes at offset {expected})"
        )


def read_payload(fh, path, offset: int, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Read the rest of the binary file ``fh``, positioned at ``offset`` just past its
    header, into one new array of ``shape`` and ``dtype``.

    The file must hold exactly the header plus that payload. Its size is checked
    (``check_size``) before the array is allocated, and again after the read.
    """
    dtype = np.dtype(dtype)
    expected = offset + dtype.itemsize * math.prod(shape)
    size = os.fstat(fh.fileno()).st_size
    if size == expected:
        payload = np.empty(shape, dtype=dtype)
        size = offset + fh.readinto(payload)
    check_size(path, size, expected)
    return payload
