"""Seeded randomness, the package's error types, the payload reader, and the atomic writer.

Randomness comes from a PCG64 generator so that equal seeds give equal
streams within one installation (bitwise reproducibility across library
versions is out of scope).

Every binary file (ADDP datasets, IDX images and labels, IRNN checkpoints)
is a header and one payload array. Its loader parses the header and checks
the file size against it with ``check_size`` before allocating anything.
IDX files and checkpoints are then read by ``read_payload`` straight into one
array (``network`` copies a checkpoint's once into its parameter vector); ADDP
files are streamed in blocks of examples (``tasks.load_adding``), never whole.
ADDP files and checkpoints are written through ``atomic_write``, so a failed or
interrupted save never leaves a truncated file under the final name.
"""

from __future__ import annotations

import contextlib
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


@contextlib.contextmanager
def atomic_write(path, size: int):
    """Yield ``path.tmp``, in the same directory, open for binary writing. When the block
    ends normally it replaces ``path`` (``os.replace``); when it raises it is unlinked. So
    ``path`` holds either its old bytes or all of the new ones.

    The ``size`` bytes the file will hold are allocated up front where the platform offers
    ``os.posix_fallocate``: ext4 starts writing back a file that is renamed over another
    unless its blocks are allocated, which took longer than the write itself. The file is
    cut to the bytes written, so a wrong ``size`` costs time, never bytes.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fh.fileno(), 0, size)
            yield fh
            fh.truncate()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
