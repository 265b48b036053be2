"""Unrolled sequence model: recurrent cell plus readout head, with full BPTT.

The model runs the cell's whole-sequence kernel over T steps from a zero
initial state, applies the readout to the final hidden state only, and
scores it with mean squared error (regression) or cross-entropy (softmax
classification), averaged over the batch. ``forward`` keeps the kernel's
tape (the tuple of arrays laid out in ``cells``: per step the feature-major
(H+D+1, B) operand [h; x; 1], and for the LSTM also the (4H, B) gate
activations stacked i|f|o|g and the cell states) in a ``Tape`` together with
the spec and the loss gradient at the head outputs, and h_T is read off its
last operand slot. ``score``, which ``harness.evaluate`` runs on every chunk,
runs the same kernel with reused scratch slots and keeps no tape. The kernel
runs in the dtype of the cell operand it is given:
float64 for every model this module builds, float32 for the copy that
``evaluate`` passes to ``score``. The head and the loss are float64 either
way, since h_T @ U.T promotes. ``backward(params, head, tape)`` carries
that gradient through the head to h_T and runs the cell's backward kernel
over the tape under the tape's spec, which writes exact gradients for every
parameter block.

In memory a model is one float64 vector, laid out by ``_layout``: the cell's
(G*H, H+D+1) operand [W | V | b] (``cells``), then U (K, H), then c (K,).
Every named block is a view of it; ``backward`` returns the gradient as one
vector of the same layout. A checkpoint stores each block whole instead.

Checkpoint format (little-endian throughout):

    offset  0   magic ``IRNN0001`` (8 bytes)
    offset  8   int64 cell (0 rnn, 1 lstm)
    offset 16   int64 activation (0 relu, 1 tanh, 2 linear; 0 for lstm)
    offset 24   int64 hidden
    offset 32   int64 input_dim
    offset 40   int64 head (0 regression, 1 softmax)
    offset 48   int64 classes (0 for regression)
    offset 56   int64 init kind: index in ``init.KINDS`` (0 baseline, 1 identity,
                2 iscale, 3 gauss; 0 for lstm)
    offset 64   float64 init value
    offset 72   float64 input_init_std
    offset 80   float64 forget_bias
    offset 88   parameter blocks as raw float64, row-major, in block order
                (rnn: W, V, b, U, c; lstm: Wi, Vi, bi, Wf, Vf, bf, Wo, Vo,
                bo, Wg, Vg, bg, U, c)

``load_checkpoint`` validates the header and the spec (so a field that does not
apply, such as an lstm's activation, must hold its one allowed value), then reads the payload,
sized by ``_layout``, through ``ndcore.read_payload``, which checks the file size before it
allocates. It splits the payload by the sizes of the ``param_blocks`` views of a new vector,
in file order: the file holds each block whole, the vector interleaves W, V and b by row.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .cells import (
    ACTIVATIONS,
    LstmParams,
    RnnParams,
    lstm_backward,
    lstm_forward,
    rnn_backward,
    rnn_forward,
)
from .init import DEFAULT_INPUT_STD, KINDS, InitScheme
from .ndcore import DivergenceError, Rng, ShapeError, atomic_write, read_payload

CellParams = Union[RnnParams, LstmParams]

CHECKPOINT_MAGIC = b"IRNN0001"

# The model choices in checkpoint-code order; the CLI offers the same lists.
CELLS = ("rnn", "lstm")
HEADS = ("regression", "softmax")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: cell kind, sizes, head, and initialization."""

    cell: str  # "rnn" | "lstm"
    hidden: int
    input_dim: int
    head: str  # "regression" | "softmax"
    activation: str = "relu"  # rnn only; relu for an lstm
    classes: int = 0  # softmax only; 0 for regression
    init: InitScheme = InitScheme("baseline")  # rnn only; baseline for an lstm
    input_init_std: float = DEFAULT_INPUT_STD
    forget_bias: float = 1.0  # lstm only; 1.0 for an rnn

    def __post_init__(self):
        if self.cell not in CELLS:
            raise ValueError(f"unknown cell {self.cell!r}")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.hidden < 1 or self.input_dim < 1:
            raise ValueError(f"hidden and input_dim must be >= 1, got {self.hidden}, {self.input_dim}")
        if self.head == "softmax" and self.classes < 2:
            raise ValueError(f"softmax head needs classes >= 2, got {self.classes}")
        if self.head == "regression" and self.classes != 0:
            raise ValueError(f"regression head takes classes 0, got {self.classes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not isinstance(self.init, InitScheme):
            raise TypeError(f"init must be an InitScheme, got {self.init!r}")
        if self.cell == "lstm" and (self.activation, self.init.kind) != ("relu", "baseline"):
            raise ValueError(
                f"an lstm takes activation relu and init baseline, got {self.activation} and {self.init.kind}"
            )
        if not 0 <= self.input_init_std < math.inf:
            raise ValueError(f"input_init_std must be finite and >= 0, got {self.input_init_std}")
        if not math.isfinite(self.forget_bias):
            raise ValueError(f"forget_bias must be finite, got {self.forget_bias}")
        if self.cell == "rnn" and self.forget_bias != 1.0:
            raise ValueError(f"an rnn takes forget_bias 1.0, got {self.forget_bias}")

    @property
    def head_dim(self) -> int:
        return 1 if self.head == "regression" else self.classes


@dataclass
class HeadParams:
    """Readout weights: U (1xH regression, KxH softmax) and bias c."""

    U: np.ndarray
    c: np.ndarray


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
    def size(self) -> int:
        return self.inputs.shape[1]


@dataclass
class Tape:
    """What ``backward`` needs from one forward pass besides its parameters, which a tape never holds."""

    spec: ModelSpec
    cell: tuple  # the cell kernel's tape
    dlogits: np.ndarray  # (B, K) gradient of the mean loss at the head outputs
    h_last = property(lambda self: self.cell[0][-1, : self.spec.hidden].T)  # h_T as (B, H)


@dataclass
class Gradients:
    """The gradient vector and its named block views, plus the (B, H) delta at the zero initial
    state; the delta injected at h_T is ``tape.dlogits @ head.U``."""

    vector: np.ndarray
    blocks: dict[str, np.ndarray]
    dh0: np.ndarray


class ForwardResult(NamedTuple):
    loss: float
    predictions: np.ndarray
    tape: Tape


def _layout(spec: ModelSpec) -> tuple[type, tuple[int, int], int]:
    """The cell class, its operand shape and the length of the model vector (module docstring)."""
    cell = RnnParams if spec.cell == "rnn" else LstmParams
    shape = cell.operand_shape(spec.hidden, spec.input_dim)
    return cell, shape, math.prod(shape) + spec.head_dim * spec.hidden + spec.head_dim


def _model(spec: ModelSpec) -> tuple[np.ndarray, CellParams, HeadParams]:
    """A new zero vector laid out by ``_layout``, and the cell and head as views of it."""
    h, k = spec.hidden, spec.head_dim
    cell, shape, size = _layout(spec)
    n = math.prod(shape)
    theta = np.zeros(size)
    head = HeadParams(U=theta[n : n + k * h].reshape(k, h), c=theta[n + k * h :])
    return theta, cell(theta[:n].reshape(shape)), head


def param_vector(params: CellParams, head: HeadParams) -> np.ndarray:
    """The one vector whose views the blocks of ``init_params`` or ``load_checkpoint`` are."""
    theta = params.a.base
    if theta is None or head.U.base is not theta or head.c.base is not theta:
        raise ValueError("the parameter blocks are not views of one vector")
    return theta


def init_params(spec: ModelSpec, rng: Rng) -> tuple[CellParams, HeadParams]:
    """Build freshly initialized cell and head parameters, views of one new vector.

    Draw order is fixed: recurrent matrix (when random), input matrix, bias,
    then head U and c. The RNN recurrent matrix is ``np.eye(H)`` for identity,
    ``np.eye(H) * s`` for iscale:<s> and Gaussian(0, std**2) for gauss:<std>;
    V and b are Gaussian(input_init_std). The baseline scheme is matched to
    the activation: tanh gets W ~ N(0, 1/H), V ~ N(0, 1/D) and a zero b;
    relu/linear get Gaussian(input_init_std) everywhere. LSTM gate
    weights are Gaussian(input_init_std); gate biases are zero except the
    forget bias, which is set to ``forget_bias``.
    """
    h, kind, value = spec.hidden, spec.init.kind, spec.init.value
    _, params, head = _model(spec)
    blocks = param_blocks(params, head)
    scales = dict.fromkeys(blocks, spec.input_init_std)  # N(0, scale**2) in block order; None is 0
    if spec.cell == "lstm":
        scales.update(dict.fromkeys(("bi", "bf", "bo", "bg")))
    elif kind == "baseline" and spec.activation == "tanh":
        scales.update(W=1.0 / np.sqrt(h), V=1.0 / np.sqrt(spec.input_dim), b=None)
    elif kind != "baseline":
        scales["W"] = value if kind == "gauss" else None  # identity and iscale are set below
    for name, scale in scales.items():
        blocks[name][...] = 0.0 if scale is None else rng.normal(0.0, scale, size=blocks[name].shape)
    if kind in ("identity", "iscale"):
        params.W[...] = np.eye(h) * value if kind == "iscale" else np.eye(h)
    if spec.cell == "lstm":
        params.bf[...] = spec.forget_bias
    return params, head


def param_blocks(params: CellParams, head: HeadParams) -> dict[str, np.ndarray]:
    """All trainable blocks in the documented fixed order (cell blocks, then U, c)."""
    return {**params.blocks(), "U": head.U, "c": head.c}


def _run(spec: ModelSpec, params: CellParams, head: HeadParams, batch: SequenceBatch, keep: bool):
    """Check the batch, run the cell kernel (taped when ``keep``, on scratch
    slots otherwise) and score h_T; returns (mean loss, predictions, hits,
    tape). Predictions are (B,) scalars or (B, K) probabilities; hits counts
    the lanes whose argmax class is the label (softmax; a tie goes to the
    lowest class) or is 0 (regression)."""
    targets, b = batch.targets, batch.size
    if spec.head == "softmax":
        if not np.issubdtype(targets.dtype, np.integer):
            raise ShapeError(f"softmax targets must be integer labels, got dtype {targets.dtype}")
        if targets.min() < 0 or targets.max() >= spec.classes:
            raise ValueError(
                f"labels must lie in [0, {spec.classes}), got range [{targets.min()}, {targets.max()}]"
            )
    if spec.cell == "rnn":
        h_last, cell = rnn_forward(params, spec.activation, batch.inputs, keep)
    else:
        h_last, cell = lstm_forward(params, batch.inputs, keep)
    logits = h_last @ head.U.T + head.c
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a non-finite loss raises below
        if spec.head == "regression":
            predictions = logits[:, 0]
            residual = predictions - targets
            loss = float(np.mean(residual * residual))
            dlogits = (2.0 / b) * residual[:, None]
            hits = 0
        else:
            shifted = logits - logits.max(axis=1, keepdims=True)
            expz = np.exp(shifted)
            predictions = expz / expz.sum(axis=1, keepdims=True)
            lanes = np.arange(b)
            loss = float(-np.mean(np.log(predictions[lanes, targets])))
            hits = int(np.sum(np.argmax(predictions, axis=1) == targets))
            dlogits = predictions.copy()
            dlogits[lanes, targets] -= 1.0
            dlogits /= b
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")
    return loss, predictions, hits, Tape(spec=spec, cell=cell, dlogits=dlogits)


def forward(spec: ModelSpec, params: CellParams, head: HeadParams, batch: SequenceBatch) -> ForwardResult:
    """Full-sequence forward pass; returns (loss, predictions, tape)."""
    loss, predictions, _, tape = _run(spec, params, head, batch, keep=True)
    return ForwardResult(loss, predictions, tape)


def score(spec: ModelSpec, params: CellParams, head: HeadParams, batch: SequenceBatch) -> tuple[float, int]:
    """Tape-free pass in the dtype of ``params.a``; returns the loss summed over the batch and the
    hit count (see ``_run``), both computed in float64."""
    loss, _, hits, _ = _run(spec, params, head, batch, keep=False)
    return loss * batch.size, hits


def backward(params: CellParams, head: HeadParams, tape: Tape) -> Gradients:
    """Exact gradients of the mean loss for every parameter block, under the spec the tape was
    made with; ``params`` and ``head`` are the ones ``forward`` ran.

    The loss reads the final state only, so the hidden delta is injected at
    t = T and propagated backward through the tape by the cell's kernel.
    """
    spec, dlogits = tape.spec, tape.dlogits
    dh = dlogits @ head.U
    g, grad, grad_head = _model(spec)
    if spec.cell == "rnn":
        dh = rnn_backward(params, spec.activation, tape.cell, dh, grad)
    else:
        dh = lstm_backward(params, tape.cell, dh, grad)
    np.matmul(dlogits.T, tape.h_last, out=grad_head.U)
    np.sum(dlogits, axis=0, out=grad_head.c)
    return Gradients(vector=g, blocks=param_blocks(grad, grad_head), dh0=dh)


# The header after the magic, in file order: (field, struct code, names by code).
# Field k sits at offset 8 + 8k; a field with names stores its name's index there.
_HEADER = (
    ("cell", "q", CELLS),
    ("activation", "q", ACTIVATIONS),
    ("hidden", "q", None),
    ("input_dim", "q", None),
    ("head", "q", HEADS),
    ("classes", "q", None),
    ("init kind", "q", KINDS),
    ("init value", "d", None),
    ("input_init_std", "d", None),
    ("forget_bias", "d", None),
)
_SPEC_STRUCT = struct.Struct("<8s" + "".join(code for _, code, _ in _HEADER))


def save_checkpoint(path, spec: ModelSpec, params: CellParams, head: HeadParams) -> None:
    """Write spec and parameters in the flat binary format documented above, atomically (``atomic_write``)."""
    fields = {**vars(spec), "init kind": spec.init.kind, "init value": spec.init.value}
    header = _SPEC_STRUCT.pack(
        CHECKPOINT_MAGIC,
        *(fields[field] if names is None else names.index(fields[field]) for field, _, names in _HEADER),
    )
    blocks = param_blocks(params, head).values()
    with atomic_write(path, len(header) + 8 * sum(block.size for block in blocks)) as fh:
        fh.write(header)
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelSpec, CellParams, HeadParams]:
    """Read a checkpoint back (see the module docstring); values round-trip bit-identically."""
    with open(path, "rb") as fh:
        header = fh.read(_SPEC_STRUCT.size)
        if len(header) < _SPEC_STRUCT.size or header[:8] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic or truncated header)")
        fields = {}
        for k, ((field, _, names), value) in enumerate(zip(_HEADER, _SPEC_STRUCT.unpack(header)[1:])):
            offset = 8 + 8 * k
            if names is not None and not 0 <= value < len(names):
                raise ValueError(f"{path}: unknown {field} code {value} at offset {offset}")
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite {field} {value} at offset {offset}")
            fields[field] = value if names is None else names[value]
        kind, value = fields.pop("init kind"), fields.pop("init value")
        spec = ModelSpec(**fields, init=InitScheme(kind, value))
        payload = read_payload(fh, path, _SPEC_STRUCT.size, (_layout(spec)[2],), "<f8")
    _, params, head = _model(spec)
    views = param_blocks(params, head).values()
    for view, part in zip(views, np.split(payload, np.cumsum([view.size for view in views])[:-1])):
        view[...] = part.reshape(view.shape)
    return spec, params, head
