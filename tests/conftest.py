"""Shared fixtures: tiny synthetic datasets and IDX file builders."""

from __future__ import annotations

import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import irnnlab
from irnnlab import gen_adding, make_rng


def blas_threads_env(threads: str) -> dict:
    """The environment for a fresh interpreter that imports this ``irnnlab`` and starts
    OpenBLAS with ``threads`` threads."""
    src = str(Path(irnnlab.__file__).parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def peak_traced_bytes(fn):
    """Run ``fn()`` and return its result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def write_idx_images(path, images: np.ndarray) -> None:
    """images: (N, rows, cols) uint8."""
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def write_mask_value(path, example: int, step: int, value: float) -> int:
    """Overwrite one mask double of the ADDP file ``path``; returns its byte offset."""
    raw = bytearray(path.read_bytes())
    t_steps = struct.unpack_from("<q", raw, 8)[0]
    offset = 24 + 8 * (example * (2 * t_steps + 1) + t_steps + step)
    raw[offset : offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    return offset


@pytest.fixture
def synthetic_mnist(tmp_path):
    """A small fake MNIST pair: 40 images 28x28 whose mean brightness encodes the label."""
    rng = np.random.default_rng(99)
    n = 40
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.zeros((n, 28, 28), dtype=np.uint8)
    for i, lab in enumerate(labels):
        images[i] = rng.integers(0, 20, size=(28, 28)) + 20 * int(lab)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


@pytest.fixture
def tiny_adding():
    """Small adding dataset pair for fast training tests."""
    rng = make_rng(5)
    return gen_adding(8, 512, rng), gen_adding(8, 128, rng)
