"""Benchmark data: the adding problem and pixel-by-pixel MNIST sequences.

Adding problem: each example is a length-T signal drawn uniformly from
[0, 1] plus a mask that is 1 at exactly two distinct positions; the
regression target is the sum of the two marked signal values. The model
input at step t is the 2-vector (signal[t], mask[t]). A set holds its mask
as bool, one byte per entry; a batch casts it to 0.0/1.0 inputs.

Generated datasets persist as a flat binary (``ADDP0001``): 8-byte magic,
int64 T, int64 n (little-endian), then per example T signal doubles, T mask
doubles, and one target double. Writing promotes the bool mask to 1.0/0.0.
``load_adding`` streams the payload ``_IO_ROWS`` examples at a time into the
signal, the bool mask and the target, and rejects a mask value other than 0
or 1 (-0.0 reads as 0). MNIST loads from the standard IDX files (big-endian
magic 0x00000803 for images, 0x00000801 for labels, which must be digits
0-9), each payload read whole with ``ndcore.read_payload``.

A pixel set is one type from file to batch: the image bytes in scanline
order, the label bytes, and a recipe that each minibatch applies to the rows
it draws, in integers, before building their floats in [0, 1]. ``load_mnist``
returns the T = side*side recipe (no pooling, identity order);
``prepare_pixel_sequences`` swaps in an average-pool downsample (to any side
dividing the image side) that shortens the sequence for desk-scale runs and a
fixed permutation that reorders it identically for every image.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .ndcore import DataFormatError, Rng, atomic_write, check_size, make_rng, read_payload
from .network import SequenceBatch

ADDING_MAGIC = b"ADDP0001"
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
MNIST_CLASSES = 10  # labels are the digits 0 .. MNIST_CLASSES - 1

# Widely quoted reference MSE for the constant-1 predictor on this task; the
# analytic value for the sum of two independent U[0,1] draws is 1/6.
REPORTED_CONSTANT_BASELINE_MSE = 0.1767
ANALYTIC_CONSTANT_BASELINE_MSE = 1.0 / 6.0

# Examples per block when writing and reading ADDP files, so no whole-file copy is
# built; a block of T=150 examples is 616 KB.
_IO_ROWS = 256


@dataclass
class AddingDataset:
    """Adding-problem examples: float64 signal (n, T), bool mask (n, T) at one
    byte per entry, True at the marked steps, and float64 target (n,)."""

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
        inputs = np.empty((sig.shape[1], sig.shape[0], 2))
        inputs[:, :, 0] = sig.T
        inputs[:, :, 1] = self.mask[indices].T
        return SequenceBatch(inputs=inputs, targets=self.target[indices])


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
    mask = np.zeros((n, t_steps), dtype=bool)
    rows = np.arange(n)
    mask[rows, first] = True
    mask[rows, second] = True
    target = signal[rows, first] + signal[rows, second]
    return AddingDataset(signal=signal, mask=mask, target=target)


def baseline_mse(ds: AddingDataset) -> float:
    """MSE of the constant predictor 1.0 over the dataset."""
    residual = 1.0 - ds.target
    return float(np.mean(residual * residual))


def save_adding(ds: AddingDataset, path) -> None:
    """Write the ADDP0001 flat binary, ``_IO_ROWS`` examples at a time, atomically (``atomic_write``)."""
    n, t_steps = ds.signal.shape
    with atomic_write(path, 24 + 8 * n * (2 * t_steps + 1)) as fh:
        fh.write(ADDING_MAGIC)
        fh.write(struct.pack("<qq", t_steps, n))
        for start in range(0, n, _IO_ROWS):
            part = slice(start, start + _IO_ROWS)
            rows = np.concatenate((ds.signal[part], ds.mask[part], ds.target[part, None]), axis=1)
            fh.write(rows.astype("<f8", copy=False))


def load_adding(path) -> AddingDataset:
    """Read an ADDP0001 file back bit-identically, with the mask as bool.

    After the size check, the payload is read ``_IO_ROWS`` examples at a time
    into one reused block and split into the signal, the mask and the target,
    so the (n, 2T+1) doubles are never held whole. A mask value other than 0
    or 1 (NaN included) is rejected, naming its example and offset; -0.0 reads
    as 0.
    """
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24 or header[:8] != ADDING_MAGIC:
            raise DataFormatError(f"{path}: bad magic at offset 0 (expected {ADDING_MAGIC!r})")
        t_steps, n = struct.unpack_from("<qq", header, 8)
        if t_steps < 2 or n < 1:
            raise DataFormatError(f"{path}: invalid header T={t_steps}, n={n} at offset 8")
        width = 2 * t_steps + 1
        expected = 24 + 8 * n * width
        check_size(path, os.fstat(fh.fileno()).st_size, expected)
        ds = AddingDataset(signal=np.empty((n, t_steps)), mask=np.empty((n, t_steps), dtype=bool),
                           target=np.empty(n))
        buf = np.empty((min(_IO_ROWS, n), width), dtype="<f8")
        for start in range(0, n, _IO_ROWS):
            rows = buf[: n - start]
            if fh.readinto(rows) < rows.nbytes:  # the file shrank since its size was checked
                check_size(path, fh.tell(), expected)
            part, values = slice(start, start + len(rows)), rows[:, t_steps:-1]
            ds.signal[part] = rows[:, :t_steps]
            ds.mask[part] = values  # a cast: True where nonzero, NaN included
            if np.count_nonzero(values == 1.0) != np.count_nonzero(ds.mask[part]):  # a nonzero other than 1
                row, step = np.argwhere((values != 0.0) & (values != 1.0))[0]
                example, offset = start + row, 24 + 8 * ((start + row) * width + t_steps + step)
                raise DataFormatError(
                    f"{path}: mask value {float(values[row, step])!r} of example {example} at offset {offset}"
                    " is not 0 or 1"
                )
            ds.target[part] = rows[:, -1]
    return ds


def _read_idx(path, magic: int, dims: int) -> tuple[np.ndarray, list[int]]:
    """The ``dims`` header sizes of an IDX file with the given magic, and its payload
    as one flat uint8 array."""
    with open(path, "rb") as fh:
        header = fh.read(4 + 4 * dims)
        if len(header) < 4 + 4 * dims:
            raise DataFormatError(f"{path}: truncated at offset {len(header)} (the header takes {4 + 4 * dims} bytes)")
        found, *sizes = struct.unpack(f">{1 + dims}I", header)
        if found != magic:
            raise DataFormatError(f"{path}: bad magic 0x{found:08X} at offset 0 (expected 0x{magic:08X})")
        return read_payload(fh, path, len(header), (math.prod(sizes),), np.uint8), sizes


def load_mnist(images_path, labels_path) -> PixelImageDataset:
    """Parse an IDX image/label file pair with full structural validation.

    Each file is read straight into one uint8 array after its header and size
    are checked, so each is held once, and the set holds both arrays as read.
    Labels must be digits 0-9.
    """
    images, (count, rows, cols) = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    if rows != cols:
        raise DataFormatError(f"{images_path}: images must be square, got {rows}x{cols}")
    if count == 0 or rows == 0:
        what, offset = ("count", 4) if count == 0 else ("side", 8)
        raise DataFormatError(f"{images_path}: image {what} 0 at offset {offset}")
    labels, (lab_count,) = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if lab_count != count:
        raise DataFormatError(
            f"count mismatch: {images_path} holds {count} images but {labels_path} holds {lab_count} labels"
        )
    if labels.max() >= MNIST_CLASSES:
        first = int(np.argmax(labels >= MNIST_CLASSES))
        raise DataFormatError(
            f"{labels_path}: label {labels[first]} at offset {8 + first} is not a digit 0-{MNIST_CLASSES - 1}"
        )
    return PixelImageDataset(images=images.reshape(count, rows * cols), labels=labels, side=rows, factor=1,
                             permutation=np.arange(rows * cols))


def make_permutation(n: int, seed: int) -> np.ndarray:
    """Fixed random permutation of 0..n-1 (Fisher-Yates under the seeded rng)."""
    if n < 1:
        raise ValueError(f"permutation length must be >= 1, got {n}")
    return make_rng(seed).permutation(n)


@dataclass
class PixelSequenceDataset:
    """Pixel sequences given as floats (N, T) in [0, 1], labels (N,)."""

    floats: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.floats.shape[0]

    def batch(self, indices) -> SequenceBatch:
        inputs = np.ascontiguousarray(self.floats[indices].T[:, :, None])
        return SequenceBatch(inputs=inputs, targets=self.labels[indices])


@dataclass
class PixelImageDataset:
    """The images' own bytes (N, side*side) in scanline order, labels (N,), and the
    recipe every batch applies: average-pool each ``factor`` x ``factor`` block, then
    reorder the pooled sequence by ``permutation``. Floats in [0, 1] are built only
    for the rows drawn."""

    images: np.ndarray
    labels: np.ndarray
    side: int
    factor: int
    permutation: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def floats(self) -> np.ndarray:
        """The whole set as floats (N, T) in [0, 1]: one batch of every row, transposed."""
        return self.batch(slice(None)).inputs[:, :, 0].T

    def batch(self, indices) -> SequenceBatch:
        """Inputs of shape (T, B, 1). The rows drawn are pooled in integers, the
        ``factor`` row views of each block summed and then its ``factor`` column
        views, exact in uint16 while 255 * factor**2 fits and in uint32 beyond. The
        sums are permuted, then divided by factor**2 and by 255, the float block
        mean's own two roundings (dividing by 1 is exact), so the values match it
        bit for bit."""
        pixels, f, side = self.images[indices], self.factor, self.side
        if f > 1:
            n = len(pixels)
            by_row = pixels.reshape(n, side // f, f, side)
            sums = by_row[:, :, 0].astype(np.uint16 if 255 * f * f <= np.iinfo(np.uint16).max else np.uint32)
            for i in range(1, f):
                sums += by_row[:, :, i]
            by_col = sums.reshape(n, side // f, side // f, f)
            pixels = by_col[..., 0].copy()
            for j in range(1, f):
                pixels += by_col[..., j]
            pixels = pixels.reshape(n, len(self.permutation))
        inputs = np.divide(pixels.T[self.permutation], f * f, dtype=np.float64)
        inputs /= 255.0
        return SequenceBatch(inputs=inputs[:, :, None], targets=self.labels[indices])


def prepare_pixel_sequences(
    ds: PixelImageDataset,
    permutation: np.ndarray | None = None,
    downsample: int | None = None,
) -> PixelImageDataset:
    """The same images and labels, uncopied, batched as sequences of T = side*side
    pooled pixels in the given order.

    This checks that the side divides the image side and that the permutation is
    a bijection, and sets the recipe; pooling and permuting are left to each batch,
    so no array of the whole set is built. The recipe always applies to the image
    bytes, so preparing a prepared set replaces its recipe.
    """
    side = ds.side if downsample is None else downsample
    if side < 1 or ds.side % side != 0:
        raise ValueError(f"downsample side {side} does not divide image side {ds.side}")
    t = side * side
    permutation = np.arange(t) if permutation is None else np.asarray(permutation)
    if permutation.shape != (t,) or not np.array_equal(np.sort(permutation), np.arange(t)):
        raise ValueError(f"permutation: not a bijection on 0..{t - 1}")
    return replace(ds, factor=ds.side // side, permutation=permutation)
