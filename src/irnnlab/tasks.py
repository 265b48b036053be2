"""Benchmark data: the adding problem and pixel-by-pixel MNIST sequences.

Adding problem: each example is a length-T signal drawn uniformly from
[0, 1] plus a mask that is 1 at exactly two distinct positions; the
regression target is the sum of the two marked signal values. The model
input at step t is the 2-vector (signal[t], mask[t]).

Generated datasets persist as a flat binary (``ADDP0001``): 8-byte magic,
int64 T, int64 n (little-endian), then per example T signal doubles, T mask
doubles, and one target double.

MNIST loads from the standard IDX files (big-endian magic 0x00000803 for
images, 0x00000801 for labels). ``prepare_pixel_sequences`` turns a whole
set, once, into T = side*side step sequences of one pixel each, scanline
order, scaled to [0, 1]; an optional fixed permutation reorders the pixel
sequence identically for every image, and an optional average-pool
downsample (to any side dividing 28) shortens the sequence for desk-scale
runs. Training and evaluation slice their minibatches from that one set.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ndcore import Rng, make_rng
from .network import SequenceBatch

ADDING_MAGIC = b"ADDP0001"
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Widely quoted reference MSE for the constant-1 predictor on this task; the
# analytic value for the sum of two independent U[0,1] draws is 1/6.
REPORTED_CONSTANT_BASELINE_MSE = 0.1767
ANALYTIC_CONSTANT_BASELINE_MSE = 1.0 / 6.0


class DataFormatError(ValueError):
    """A data file failed structural validation."""


@dataclass
class AddingDataset:
    """Adding-problem examples: signal (n, T), mask (n, T), target (n,)."""

    signal: np.ndarray
    mask: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return self.signal.shape[0]

    @property
    def steps(self) -> int:
        return self.signal.shape[1]

    def batch(self, indices) -> SequenceBatch:
        """Inputs of shape (T, B, 2) with channels (signal, mask)."""
        sig = self.signal[indices]
        msk = self.mask[indices]
        inputs = np.stack((sig, msk), axis=-1).transpose(1, 0, 2)
        return SequenceBatch(inputs=np.ascontiguousarray(inputs), targets=self.target[indices])


def gen_adding(t_steps: int, n: int, rng: Rng) -> AddingDataset:
    """Generate n examples of length t_steps.

    The two mask positions are uniform over all distinct pairs anywhere in
    the sequence (drawn as a random position plus a random nonzero offset).
    """
    if t_steps < 2:
        raise ValueError(f"sequence length must be >= 2, got {t_steps}")
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    signal = rng.uniform(0.0, 1.0, size=(n, t_steps))
    first = rng.integers(0, t_steps, size=n)
    second = (first + rng.integers(1, t_steps, size=n)) % t_steps
    mask = np.zeros((n, t_steps), dtype=np.float64)
    rows = np.arange(n)
    mask[rows, first] = 1.0
    mask[rows, second] = 1.0
    target = signal[rows, first] + signal[rows, second]
    return AddingDataset(signal=signal, mask=mask, target=target)


def baseline_mse(ds: AddingDataset) -> float:
    """MSE of the constant predictor 1.0 over the dataset."""
    residual = 1.0 - ds.target
    return float(np.mean(residual * residual))


def save_adding(ds: AddingDataset, path) -> None:
    """Write the ADDP0001 flat binary."""
    n, t_steps = ds.signal.shape
    rows = np.concatenate(
        (ds.signal, ds.mask, ds.target[:, None]), axis=1
    ).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(ADDING_MAGIC)
        fh.write(struct.pack("<qq", t_steps, n))
        fh.write(rows.tobytes())


def load_adding(path) -> AddingDataset:
    """Read an ADDP0001 file back bit-identically."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 24 or data[:8] != ADDING_MAGIC:
        raise DataFormatError(f"{path}: bad magic at offset 0 (expected {ADDING_MAGIC!r})")
    t_steps, n = struct.unpack_from("<qq", data, 8)
    if t_steps < 2 or n < 1:
        raise DataFormatError(f"{path}: invalid header T={t_steps}, n={n} at offset 8")
    expected = 24 + 8 * n * (2 * t_steps + 1)
    if len(data) != expected:
        raise DataFormatError(f"{path}: expected {expected} bytes, found {len(data)} (truncated at offset {len(data)})")
    rows = np.frombuffer(data, dtype="<f8", offset=24).astype(np.float64).reshape(n, 2 * t_steps + 1)
    return AddingDataset(
        signal=rows[:, :t_steps].copy(),
        mask=rows[:, t_steps : 2 * t_steps].copy(),
        target=rows[:, -1].copy(),
    )


@dataclass
class MnistSeqDataset:
    """Raw MNIST images (N, side*side) as bytes and labels (N,)."""

    images: np.ndarray
    labels: np.ndarray
    side: int

    def __len__(self) -> int:
        return self.images.shape[0]


def _read_be_u32(data: bytes, offset: int, path) -> int:
    if offset + 4 > len(data):
        raise DataFormatError(f"{path}: truncated at offset {offset} (file has {len(data)} bytes)")
    return struct.unpack_from(">I", data, offset)[0]


def load_mnist(images_path, labels_path) -> MnistSeqDataset:
    """Parse an IDX image/label file pair with full structural validation."""
    with open(images_path, "rb") as fh:
        img_data = fh.read()
    magic = _read_be_u32(img_data, 0, images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise DataFormatError(
            f"{images_path}: bad magic 0x{magic:08X} at offset 0 (expected 0x{IDX_IMAGE_MAGIC:08X})"
        )
    count = _read_be_u32(img_data, 4, images_path)
    rows = _read_be_u32(img_data, 8, images_path)
    cols = _read_be_u32(img_data, 12, images_path)
    if rows != cols:
        raise DataFormatError(f"{images_path}: images must be square, got {rows}x{cols}")
    expected = 16 + count * rows * cols
    if len(img_data) != expected:
        raise DataFormatError(
            f"{images_path}: expected {expected} bytes for {count} images, found {len(img_data)}"
            f" (truncated at offset {len(img_data)})"
        )
    images = np.frombuffer(img_data, dtype=np.uint8, offset=16).reshape(count, rows * cols).copy()

    with open(labels_path, "rb") as fh:
        lab_data = fh.read()
    magic = _read_be_u32(lab_data, 0, labels_path)
    if magic != IDX_LABEL_MAGIC:
        raise DataFormatError(
            f"{labels_path}: bad magic 0x{magic:08X} at offset 0 (expected 0x{IDX_LABEL_MAGIC:08X})"
        )
    lab_count = _read_be_u32(lab_data, 4, labels_path)
    if len(lab_data) != 8 + lab_count:
        raise DataFormatError(
            f"{labels_path}: expected {8 + lab_count} bytes for {lab_count} labels,"
            f" found {len(lab_data)} (truncated at offset {len(lab_data)})"
        )
    if lab_count != count:
        raise DataFormatError(
            f"count mismatch: {images_path} holds {count} images but {labels_path} holds {lab_count} labels"
        )
    labels = np.frombuffer(lab_data, dtype=np.uint8, offset=8).copy()
    return MnistSeqDataset(images=images, labels=labels, side=rows)


def make_permutation(n: int, seed: int) -> np.ndarray:
    """Fixed random permutation of 0..n-1 (Fisher-Yates under the seeded rng)."""
    if n < 1:
        raise ValueError(f"permutation length must be >= 1, got {n}")
    return make_rng(seed).permutation(n)


def save_permutation(perm: np.ndarray, path) -> None:
    """Persist a permutation as one index per line."""
    Path(path).write_text("".join(f"{int(i)}\n" for i in perm), encoding="ascii")


def load_permutation(path) -> np.ndarray:
    text = Path(path).read_text(encoding="ascii").split()
    perm = np.array([int(tok) for tok in text], dtype=np.int64)
    _validate_permutation(perm, len(perm), path)
    return perm


def _validate_permutation(perm: np.ndarray, n: int, origin="permutation") -> None:
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"{origin}: not a bijection on 0..{n - 1}")


@dataclass
class PixelSequenceDataset:
    """Precomputed pixel sequences for training: floats (N, T) in [0, 1], labels (N,)."""

    floats: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.floats.shape[0]

    def batch(self, indices) -> SequenceBatch:
        inputs = np.ascontiguousarray(self.floats[indices].T[:, :, None])
        return SequenceBatch(inputs=inputs, targets=self.labels[indices])


def prepare_pixel_sequences(
    ds: MnistSeqDataset,
    permutation: np.ndarray | None = None,
    downsample: int | None = None,
) -> PixelSequenceDataset:
    """Every image as a row of T floats in [0, 1], computed once so per-batch slicing is cheap.

    Downsampling average-pools the raw bytes first; the permutation then
    reorders the flattened pixel sequence identically for every image.
    Pooling and permuting stay in integers: each block sum is exact in
    uint32 (at most 255 * 28**2), and one float64 conversion followed by
    the divisions by factor**2 and 255 rounds exactly as the float mean
    would, so no float array larger than the result is built.
    """
    side = ds.side if downsample is None else downsample
    if side < 1 or ds.side % side != 0:
        raise ValueError(f"downsample side {side} does not divide image side {ds.side}")
    factor = ds.side // side
    pixels = ds.images
    if factor > 1:
        # strided views add up the block's rows, then its columns: 2*factor passes
        imgs = ds.images.reshape(-1, ds.side, ds.side)
        rows = imgs[:, ::factor].astype(np.uint32)
        for i in range(1, factor):
            rows += imgs[:, i::factor]
        pixels = rows[:, :, ::factor].copy()
        for j in range(1, factor):
            pixels += rows[:, :, j::factor]
        del rows
        pixels = pixels.reshape(-1, side * side)
    if permutation is not None:
        _validate_permutation(np.asarray(permutation), side * side)
        pixels = np.take(pixels, permutation, axis=1)
    floats = pixels.astype(np.float64)
    if factor > 1:
        floats /= factor * factor
    floats /= 255.0
    return PixelSequenceDataset(floats=floats, labels=ds.labels.astype(np.int64))
