"""Unrolled sequence model: recurrent cell plus readout head, with full BPTT.

The model runs the cell's whole-sequence kernel over T steps from a zero
initial state, applies the readout to the final hidden state only, and
scores it with mean squared error (regression) or cross-entropy (softmax
classification), averaged over the batch. ``forward`` keeps the kernel's
tape (``cells.CellTape``: per step the feature-major (H+D+1, B) operand
[h; x; 1], the (G*H, B) pre-activations or LSTM gate activations stacked
i|f|o|g, and the LSTM cell states); ``evaluate`` and ``predict`` run the
same kernel with reused scratch slots instead. ``backward`` injects the
head's delta at h_T and runs the cell's backward kernel over the tape,
which returns exact gradients for every parameter block.

Checkpoint format (little-endian throughout):

    offset  0   magic ``IRNN0001`` (8 bytes)
    offset  8   int64 cell (0 rnn, 1 lstm)
    offset 16   int64 activation (0 relu, 1 tanh, 2 linear; 0 for lstm)
    offset 24   int64 hidden
    offset 32   int64 input_dim
    offset 40   int64 head (0 regression, 1 softmax)
    offset 48   int64 classes (0 for regression)
    offset 56   int64 init kind (0 baseline default, 1 identity, 2 iscale, 3 gauss)
    offset 64   float64 init value
    offset 72   float64 input_init_std
    offset 80   float64 forget_bias
    offset 88   parameter blocks as raw float64, row-major, in block order
                (rnn: W, V, b, U, c; lstm: Wi, Vi, bi, Wf, Vf, bf, Wo, Vo,
                bo, Wg, Vg, bg, U, c)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .cells import (
    ACTIVATIONS,
    CellTape,
    LstmParams,
    RnnParams,
    lstm_backward,
    lstm_forward,
    rnn_backward,
    rnn_forward,
)
from .init import DEFAULT_INPUT_STD, InitScheme, init_input_and_bias, init_recurrent, init_tanh_baseline
from .ndcore import DivergenceError, Rng, ShapeError, gaussian_fill, gaussian_vector

CellParams = Union[RnnParams, LstmParams]

CHECKPOINT_MAGIC = b"IRNN0001"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: cell kind, sizes, head, and initialization."""

    cell: str  # "rnn" | "lstm"
    hidden: int
    input_dim: int
    head: str  # "regression" | "softmax"
    activation: str = "relu"  # rnn only
    classes: int = 0  # softmax only
    init: InitScheme | None = None  # rnn only; None = activation-matched baseline
    input_init_std: float = DEFAULT_INPUT_STD
    forget_bias: float = 1.0  # lstm only

    def __post_init__(self):
        if self.cell not in ("rnn", "lstm"):
            raise ValueError(f"unknown cell {self.cell!r}")
        if self.head not in ("regression", "softmax"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.hidden < 1 or self.input_dim < 1:
            raise ValueError(f"hidden and input_dim must be >= 1, got {self.hidden}, {self.input_dim}")
        if self.head == "softmax" and self.classes < 2:
            raise ValueError(f"softmax head needs classes >= 2, got {self.classes}")
        if self.cell == "rnn" and self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.input_init_std < 0:
            raise ValueError(f"input_init_std must be >= 0, got {self.input_init_std}")

    @property
    def head_dim(self) -> int:
        return 1 if self.head == "regression" else self.classes


@dataclass
class HeadParams:
    """Readout weights: U (1xH regression, KxH softmax) and bias c."""

    U: np.ndarray
    c: np.ndarray

    def blocks(self) -> dict[str, np.ndarray]:
        return {"U": self.U, "c": self.c}


@dataclass
class SequenceBatch:
    """Model inputs of shape (T, B, D) plus regression targets or class labels (B,)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 3:
            raise ShapeError(f"inputs must have shape (T, B, D), got {self.inputs.shape}")
        if self.targets.shape != (self.inputs.shape[1],):
            raise ShapeError(
                f"targets shape {self.targets.shape} does not match batch size {self.inputs.shape[1]}"
            )

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]

    @property
    def size(self) -> int:
        return self.inputs.shape[1]


@dataclass
class Tape:
    """Everything ``backward`` needs from one forward pass."""

    spec: ModelSpec
    cell: CellTape
    h_last: np.ndarray
    predictions: np.ndarray  # (B,) predictions or (B, K) probabilities
    batch: SequenceBatch


@dataclass
class Gradients:
    """Per-block gradients plus the hidden-state deltas at both ends of the unroll."""

    blocks: dict[str, np.ndarray]
    dh0: np.ndarray
    dh_last: np.ndarray


class ForwardResult(NamedTuple):
    loss: float
    predictions: np.ndarray
    tape: Tape


def init_params(spec: ModelSpec, rng: Rng) -> tuple[CellParams, HeadParams]:
    """Build freshly initialized cell and head parameters.

    Draw order is fixed: recurrent matrix (when random), input matrix, bias,
    then head U and c. RNN specs with ``init=None`` use the activation-matched
    baseline: tanh gets the 1/sqrt(H) recipe, relu/linear get Gaussian(0.001)
    everywhere. LSTM gate weights are Gaussian(input_init_std); gate biases
    are zero except the forget bias, which is set to ``forget_bias``.
    """
    h, d, std = spec.hidden, spec.input_dim, spec.input_init_std
    if spec.cell == "rnn":
        if spec.init is None:
            if spec.activation == "tanh":
                w, v, b = init_tanh_baseline(h, d, rng)
            else:
                w = gaussian_fill(h, h, 0.0, std, rng)
                v, b = init_input_and_bias(std, h, d, rng)
        else:
            w = init_recurrent(spec.init, h, rng)
            v, b = init_input_and_bias(std, h, d, rng)
        params: CellParams = RnnParams(W=w, V=v, b=b, activation=spec.activation)
    else:
        triples = {}
        for gate in ("i", "f", "o", "g"):
            triples[f"W{gate}"] = gaussian_fill(h, h, 0.0, std, rng)
            triples[f"V{gate}"] = gaussian_fill(h, d, 0.0, std, rng)
            triples[f"b{gate}"] = np.zeros(h, dtype=np.float64)
        triples["bf"] = np.full(h, float(spec.forget_bias), dtype=np.float64)
        params = LstmParams(**triples)
    k = spec.head_dim
    u = gaussian_fill(k, h, 0.0, std, rng)
    c = gaussian_vector(k, 0.0, std, rng) if std > 0 else np.zeros(k, dtype=np.float64)
    return params, HeadParams(U=u, c=c)


def param_blocks(params: CellParams, head: HeadParams) -> dict[str, np.ndarray]:
    """All trainable blocks in the documented fixed order (cell blocks, then U, c)."""
    out = dict(params.blocks())
    out.update(head.blocks())
    return out


def _check_batch(spec: ModelSpec, batch: SequenceBatch) -> None:
    if spec.head == "softmax":
        labels = batch.targets
        if not np.issubdtype(labels.dtype, np.integer):
            raise ShapeError(f"softmax targets must be integer labels, got dtype {labels.dtype}")
        if labels.min() < 0 or labels.max() >= spec.classes:
            raise ValueError(
                f"labels must lie in [0, {spec.classes}), got range [{labels.min()}, {labels.max()}]"
            )


def _rollout(spec: ModelSpec, params: CellParams, inputs: np.ndarray, keep: bool):
    """Run the cell kernel over a (T, B, D) input block; returns (h_last, cell tape)."""
    kernel = rnn_forward if spec.cell == "rnn" else lstm_forward
    return kernel(params, inputs, keep)


def head_outputs(spec: ModelSpec, head: HeadParams, h_last: np.ndarray) -> np.ndarray:
    """Predictions from a final hidden state: (B,) scalars or (B, K) probabilities."""
    logits = h_last @ head.U.T + head.c
    if spec.head == "regression":
        return logits[:, 0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=1, keepdims=True)


def head_loss(spec: ModelSpec, predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean loss over the batch: MSE for regression, cross-entropy for softmax."""
    if spec.head == "regression":
        residual = predictions - targets
        loss = float(np.mean(residual * residual))
    else:
        b = predictions.shape[0]
        picked = predictions[np.arange(b), targets]
        loss = float(-np.mean(np.log(picked)))
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")
    return loss


def forward(spec: ModelSpec, params: CellParams, head: HeadParams, batch: SequenceBatch) -> ForwardResult:
    """Full-sequence forward pass; returns (loss, predictions, tape)."""
    _check_batch(spec, batch)
    h_last, cell = _rollout(spec, params, batch.inputs, keep=True)
    predictions = head_outputs(spec, head, h_last)
    loss = head_loss(spec, predictions, batch.targets)
    tape = Tape(spec=spec, cell=cell, h_last=h_last, predictions=predictions, batch=batch)
    return ForwardResult(loss, predictions, tape)


def backward(spec: ModelSpec, params: CellParams, head: HeadParams, tape: Tape) -> Gradients:
    """Exact gradients of the mean loss for every parameter block.

    The loss reads the final state only, so the hidden delta is injected at
    t = T and propagated backward through the tape by the cell's kernel.
    """
    if tape.spec != spec:
        raise ValueError("tape was produced under a different model spec")
    if tape.h_last.shape[1] != spec.hidden or tape.cell.steps != tape.batch.steps:
        raise ShapeError("tape does not match the given spec/batch")
    b = tape.batch.size
    h_last = tape.h_last
    if spec.head == "regression":
        dpred = (2.0 / b) * (tape.predictions - tape.batch.targets)
        du = (dpred @ h_last)[None, :]
        dc_head = np.array([dpred.sum()])
        dh = dpred[:, None] * head.U
    else:
        dlogits = tape.predictions.copy()
        dlogits[np.arange(b), tape.batch.targets] -= 1.0
        dlogits /= b
        du = dlogits.T @ h_last
        dc_head = dlogits.sum(axis=0)
        dh = dlogits @ head.U
    dh_last = dh.copy()
    if spec.cell == "rnn":
        dh, blocks = rnn_backward(params, tape.cell, dh)
    else:
        dh, _, blocks = lstm_backward(params, tape.cell, dh, np.zeros_like(dh))
    blocks["U"] = du
    blocks["c"] = dc_head
    return Gradients(blocks=blocks, dh0=dh, dh_last=dh_last)


def predict(spec: ModelSpec, params: CellParams, head: HeadParams, inputs: np.ndarray) -> np.ndarray:
    """Run the forward computation without a loss.

    Returns scalar predictions (regression) or argmax class indices
    (softmax; ties break toward the lowest class index).
    """
    h_last, _ = _rollout(spec, params, np.asarray(inputs), keep=False)
    out = head_outputs(spec, head, h_last)
    if spec.head == "regression":
        return out
    return np.argmax(out, axis=1)


_SPEC_STRUCT = struct.Struct("<8sqqqqqqqddd")
_CELL_CODES = {"rnn": 0, "lstm": 1}
_ACT_CODES = {"relu": 0, "tanh": 1, "linear": 2}
_HEAD_CODES = {"regression": 0, "softmax": 1}
_INIT_CODES = {None: 0, "identity": 1, "iscale": 2, "gauss": 3}


def _block_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Every block's shape, in checkpoint order: the cell's (W, V, b) per gate, then U, c."""
    h, d, k = spec.hidden, spec.input_dim, spec.head_dim
    gates = (RnnParams if spec.cell == "rnn" else LstmParams).gates
    kinds = {"W": (h, h), "V": (h, d), "b": (h,)}
    return {**{f"{kind}{g}": kinds[kind] for g in gates for kind in "WVb"}, "U": (k, h), "c": (k,)}


def save_checkpoint(path, spec: ModelSpec, params: CellParams, head: HeadParams) -> None:
    """Write spec and parameters in the flat binary format documented above."""
    init_kind = None if spec.init is None else spec.init.kind
    header = _SPEC_STRUCT.pack(
        CHECKPOINT_MAGIC,
        _CELL_CODES[spec.cell],
        _ACT_CODES[spec.activation] if spec.cell == "rnn" else 0,
        spec.hidden,
        spec.input_dim,
        _HEAD_CODES[spec.head],
        spec.classes,
        _INIT_CODES[init_kind],
        0.0 if spec.init is None else spec.init.value,
        spec.input_init_std,
        spec.forget_bias,
    )
    blocks = param_blocks(params, head)
    with open(path, "wb") as fh:
        fh.write(header)
        for name in _block_shapes(spec):
            fh.write(np.ascontiguousarray(blocks[name], dtype="<f8").tobytes())


def _decode(path, field: str, offset: int, codes: dict, code: int):
    for name, value in codes.items():
        if value == code:
            return name
    raise ValueError(f"{path}: unknown {field} code {code} at offset {offset}")


def load_checkpoint(path) -> tuple[ModelSpec, CellParams, HeadParams]:
    """Read a checkpoint back; values round-trip bit-identically."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _SPEC_STRUCT.size or data[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic or truncated header)")
    (_, cell_c, act_c, hidden, input_dim, head_c, classes, init_c, init_val, input_std, fb) = (
        _SPEC_STRUCT.unpack_from(data)
    )
    cell = _decode(path, "cell", 8, _CELL_CODES, cell_c)
    activation = _decode(path, "activation", 16, _ACT_CODES, act_c)
    head_kind = _decode(path, "head", 40, _HEAD_CODES, head_c)
    init_kind = _decode(path, "init kind", 56, _INIT_CODES, init_c)
    scheme = None if init_kind is None else InitScheme(init_kind, init_val)
    spec = ModelSpec(
        cell=cell,
        hidden=int(hidden),
        input_dim=int(input_dim),
        head=head_kind,
        activation=activation,
        classes=int(classes),
        init=scheme,
        input_init_std=input_std,
        forget_bias=fb,
    )
    shapes = _block_shapes(spec)
    expected = _SPEC_STRUCT.size + 8 * sum(int(np.prod(s)) for s in shapes.values())
    if len(data) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(data)}")
    offset = _SPEC_STRUCT.size
    blocks: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        blocks[name] = (
            np.frombuffer(data, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += 8 * count
    head = HeadParams(U=blocks.pop("U"), c=blocks.pop("c"))
    params: CellParams = RnnParams(**blocks, activation=activation) if cell == "rnn" else LstmParams(**blocks)
    return spec, params, head
