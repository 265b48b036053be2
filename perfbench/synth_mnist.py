"""Seeded synthetic MNIST-shaped data written as the four standard IDX files.

Each class has a fixed prototype of three thick strokes on a 32x32 canvas;
an image is its class prototype cropped at a random offset (up to four
pixels each way) with per-pixel intensity noise, so images are mostly zero
like MNIST digits and the classes are separable. The same seed always gives
the same bytes, and nothing is read from the environment or downloaded.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
CLASSES = 10
_CANVAS = 32
_CHUNK = 5000

FILE_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    protos = np.zeros((CLASSES, _CANVAS, _CANVAS), dtype=np.float32)
    along = np.linspace(0.0, 1.0, 48)
    for k in range(CLASSES):
        for _ in range(3):
            a, b = rng.uniform(6, _CANVAS - 8, size=(2, 2))
            rows = np.rint(a[0] + (b[0] - a[0]) * along).astype(int)
            cols = np.rint(a[1] + (b[1] - a[1]) * along).astype(int)
            for dr in (0, 1):
                for dc in (0, 1):
                    protos[k, rows + dr, cols + dc] = 1.0
    return protos


def _images(rng: np.random.Generator, protos: np.ndarray, labels: np.ndarray) -> np.ndarray:
    out = np.empty((len(labels), SIDE, SIDE), dtype=np.uint8)
    span = np.arange(SIDE)
    for start in range(0, len(labels), _CHUNK):
        lab = labels[start : start + _CHUNK]
        n = len(lab)
        rows = rng.integers(0, _CANVAS - SIDE + 1, size=n)[:, None] + span
        cols = rng.integers(0, _CANVAS - SIDE + 1, size=n)[:, None] + span
        crop = protos[lab[:, None, None], rows[:, :, None], cols[:, None, :]]
        scale = 150.0 + 105.0 * rng.random((n, SIDE, SIDE), dtype=np.float32)
        out[start : start + n] = (crop * scale).astype(np.uint8)
    return out


def _write_images(path: Path, images: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, len(images), SIDE, SIDE))
        fh.write(images.tobytes())


def _write_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def write_idx_set(out_dir, n_train: int, n_test: int, seed: int) -> None:
    """Write the train and test IDX image and label files named in FILE_NAMES."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    protos = _prototypes(rng)
    paths = [out_dir / name for name in FILE_NAMES]
    for (img_path, lab_path), n in zip((paths[0:2], paths[2:4]), (n_train, n_test)):
        labels = rng.integers(0, CLASSES, size=n)
        _write_images(img_path, _images(rng, protos, labels))
        _write_labels(lab_path, labels)
