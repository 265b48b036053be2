"""Recurrent cells as whole-sequence kernels: one forward and one backward pass each.

The plain RNN cell computes

    h_t = g(W h_{t-1} + V x_t + b),    g in {relu, tanh, linear}

and the LSTM cell is the standard forget-gate variant without peepholes:

    i = sigmoid(Wi h + Vi x + bi)        input gate
    f = sigmoid(Wf h + Vf x + bf)        forget gate
    o = sigmoid(Wo h + Vo x + bo)        output gate
    g = tanh(Wg h + Vg x + bg)           candidate
    c = f * c_prev + i * g
    h = o * tanh(c)

Both start from a zero state. The kernels are feature-major: a state is
(H, B), one column per lane. A cell's weights are stacked once per call
into A = [W | V | b] of shape (G*H, H+D+1), G = 1 for the RNN and G = 4
for the LSTM with gate rows in i|f|o|g order, so a step is one GEMM
A @ [h_{t-1}; x_t; 1] whose gates are contiguous (H, B) row blocks. The
LSTM forward pass negates the i|f|o rows of A, so its GEMM yields -z
exactly for the three logistic gates.

Tape layout (``CellTape``) for T steps; without a tape the same loop
writes into 2 reused slots of ``s`` and ``c`` and 1 of ``z`` and ``tc``:

    s   (T+1, H+D+1, B)  s[t] is the step-t operand [h_{t-1}; x_t; 1],
                         so s[t+1, :H] holds h_t
    z   (T, G*H, B)      RNN pre-activations; LSTM gate activations i|f|o|g
    c   (T+1, H, B)      LSTM cell states, c[0] = 0; tc (T, H, B) is tanh(c_t)

The backward kernels walk the tape in reverse. Each step takes the
gradients of all blocks as one GEMM of the (G*H, B) pre-activation delta
against the step's operand [h_{t-1}; x_t; 1], added into a stacked
(G*H, H+D+1) sum in reverse time order; it is returned as per-block views
named like ``blocks()``. Gradients are summed over lanes (the 1/B of a mean
loss arrives through the incoming delta); the rectifier uses g'(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .ndcore import DivergenceError, ShapeError

ACTIVATIONS = ("relu", "tanh", "linear")

# Any hidden or cell state beyond this magnitude aborts the run as diverged.
OVERFLOW_LIMIT = 1e100


class _Cell:
    """Shape checks and named blocks shared by the cells: one (W, V, b) triple per gate."""

    gates: ClassVar[tuple[str, ...]]

    def __post_init__(self):
        h, d = self.hidden, self.input_dim
        for gate in self.gates:
            w, v, b = (getattr(self, f"{kind}{gate}") for kind in "WVb")
            if w.shape != (h, h) or v.shape != (h, d) or b.shape != (h,):
                raise ShapeError(
                    f"gate {gate!r} has shapes W {w.shape}, V {v.shape}, b {b.shape};"
                    f" expected ({h},{h}), ({h},{d}), ({h},)"
                )

    @property
    def hidden(self) -> int:
        return getattr(self, f"W{self.gates[0]}").shape[0]

    @property
    def input_dim(self) -> int:
        return getattr(self, f"V{self.gates[0]}").shape[1]

    def blocks(self) -> dict[str, np.ndarray]:
        return {f"{kind}{gate}": getattr(self, f"{kind}{gate}") for gate in self.gates for kind in "WVb"}


@dataclass
class RnnParams(_Cell):
    """Weights of one RNN cell: recurrent W (HxH), input V (HxD), bias b (H)."""

    W: np.ndarray
    V: np.ndarray
    b: np.ndarray
    activation: str = "relu"

    gates: ClassVar[tuple[str, ...]] = ("",)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        super().__post_init__()


@dataclass
class LstmParams(_Cell):
    """Weights of one LSTM cell, one (W, V, b) triple per gate i/f/o/g."""

    Wi: np.ndarray
    Vi: np.ndarray
    bi: np.ndarray
    Wf: np.ndarray
    Vf: np.ndarray
    bf: np.ndarray
    Wo: np.ndarray
    Vo: np.ndarray
    bo: np.ndarray
    Wg: np.ndarray
    Vg: np.ndarray
    bg: np.ndarray

    gates: ClassVar[tuple[str, ...]] = ("i", "f", "o", "g")


@dataclass
class CellTape:
    """Arrays of one forward pass, laid out as in the module docstring."""

    steps: int
    s: np.ndarray
    z: np.ndarray
    c: np.ndarray | None = None
    tc: np.ndarray | None = None


def sigmoid_of_negated(neg_z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid(z) = 1 / (1 + exp(neg_z)) from neg_z = -z; ``out`` may be ``neg_z`` itself.

    The LSTM kernel negates the gate rows of its stacked weights, so its GEMM
    yields -z exactly and the logistic needs no negation pass. exp(neg_z)
    overflows to inf for z < -709, which gives the correct limit 0.
    """
    with np.errstate(over="ignore"):
        out = np.exp(neg_z, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _stacked(p) -> np.ndarray:
    """The (G*H, H+D+1) operand [W | V | b], gate rows in ``p.gates`` order."""
    blocks = p.blocks()
    return np.vstack([np.hstack((blocks[f"W{g}"], blocks[f"V{g}"], blocks[f"b{g}"][:, None])) for g in p.gates])


def _split(p, stacked: np.ndarray) -> dict[str, np.ndarray]:
    """Per-block views of a stacked (G*H, H+D+1) gradient, named like ``p.blocks()``."""
    h, d = p.hidden, p.input_dim
    out = {}
    for k, gate in enumerate(p.gates):
        rows = stacked[k * h : (k + 1) * h]
        out[f"W{gate}"], out[f"V{gate}"], out[f"b{gate}"] = rows[:, :h], rows[:, h : h + d], rows[:, h + d]
    return out


def _bounded(a: np.ndarray) -> bool:
    """Whether every entry lies in [-OVERFLOW_LIMIT, OVERFLOW_LIMIT]; NaN fails both comparisons."""
    return a.max() <= OVERFLOW_LIMIT and a.min() >= -OVERFLOW_LIMIT


def _check_finite(states: list[np.ndarray], first_step: int = 0) -> None:
    """Name the first step at which a (steps, H, B) state is NaN, inf or beyond OVERFLOW_LIMIT.

    Two reductions per array cover all steps; the steps are scanned only when they fail.
    """
    if all(_bounded(a) for a in states):
        return
    for t in range(states[0].shape[0]):
        if not all(_bounded(a[t]) for a in states):
            raise DivergenceError(f"non-finite or overflowing activation at step {first_step + t}")


def _arrays(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Uninitialised arrays carved from one allocation.

    malloc reuses one large block from call to call, whereas several large
    blocks freed together go back to the OS and are page-faulted in again.
    """
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty(sum(sizes))
    offsets = np.cumsum([0] + sizes)
    return [flat[o : o + n].reshape(shape) for o, n, shape in zip(offsets, sizes, shapes)]


def _start(p, inputs: np.ndarray, keep: bool) -> tuple[list[np.ndarray], int, int]:
    """Validate inputs and allocate the tape (or scratch) arrays; returns (arrays, s slots, z slots).

    A tape gets the input rows of all steps in one copy; scratch slots get them step by step.
    """
    if inputs.ndim != 3 or inputs.shape[2] != p.input_dim or min(inputs.shape) < 1:
        raise ShapeError(f"inputs must have shape (T>=1, B>=1, {p.input_dim}), got {inputs.shape}")
    t_steps, b, _ = inputs.shape
    h = p.hidden
    ns, nz = (t_steps + 1, t_steps) if keep else (2, 1)
    shapes = [(ns, h + p.input_dim + 1, b), (nz, len(p.gates) * h, b)]
    if isinstance(p, LstmParams):
        shapes += [(ns, h, b), (nz, h, b)]
    arrays = _arrays(*shapes)
    arrays[0][0, :h] = 0.0
    arrays[0][:, h + p.input_dim] = 1.0
    if keep:
        arrays[0][:t_steps, h : h + p.input_dim] = inputs.transpose(0, 2, 1)
    return arrays, ns, nz


_ACTIVATE = {
    "relu": lambda z, out: np.maximum(z, 0.0, out=out),
    "tanh": lambda z, out: np.tanh(z, out=out),
    "linear": lambda z, out: np.copyto(out, z),
}


def rnn_forward(p: RnnParams, inputs: np.ndarray, keep: bool = True) -> tuple[np.ndarray, CellTape]:
    """Run the RNN over (T, B, D) inputs; returns (h_T as (B, H), tape).

    With ``keep`` false the tape holds only the scratch slots of the last step.
    """
    h, d, t_steps = p.hidden, p.input_dim, inputs.shape[0]
    (s, z), ns, nz = _start(p, inputs, keep)
    a, activate = _stacked(p), _ACTIVATE[p.activation]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t_steps):
            if not keep:
                s[t % ns, h : h + d] = inputs[t].T
            ht = s[(t + 1) % ns, :h]
            activate(np.matmul(a, s[t % ns], out=z[t % nz]), ht)
            if not keep:
                _check_finite([ht[None]], t)
    if keep:
        _check_finite([s[1:, :h]])
    return s[t_steps % ns, :h].T, CellTape(t_steps, s, z)


def lstm_forward(p: LstmParams, inputs: np.ndarray, keep: bool = True) -> tuple[np.ndarray, CellTape]:
    """Run the LSTM over (T, B, D) inputs; returns (h_T as (B, H), tape)."""
    h, d, t_steps = p.hidden, p.input_dim, inputs.shape[0]
    (s, gates, c, tc), ns, nz = _start(p, inputs, keep)
    c[0] = 0.0
    a = _stacked(p)
    np.negative(a[: 3 * h], out=a[: 3 * h])  # the GEMM then yields -z for i|f|o
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t_steps):
            if not keep:
                s[t % ns, h : h + d] = inputs[t].T
            gt = np.matmul(a, s[t % ns], out=gates[t % nz])
            sigmoid_of_negated(gt[: 3 * h], out=gt[: 3 * h])
            np.tanh(gt[3 * h :], out=gt[3 * h :])
            i, f, o, g = gt[:h], gt[h : 2 * h], gt[2 * h : 3 * h], gt[3 * h :]
            ct, tct = c[(t + 1) % ns], tc[t % nz]
            np.multiply(f, c[t % ns], out=ct)
            ct += np.multiply(i, g, out=tct)
            np.tanh(ct, out=tct)
            ht = np.multiply(o, tct, out=s[(t + 1) % ns, :h])
            if not keep:
                _check_finite([ht[None], ct[None]], t)
    if keep:
        _check_finite([s[1:, :h], c[1:]])
    return s[t_steps % ns, :h].T, CellTape(t_steps, s, gates, c, tc)


def _reverse_start(p, tape: CellTape, *deltas: np.ndarray):
    """Validate the (B, H) deltas at the final state and allocate the reverse pass.

    Returns the contiguous (H, G*H) transposed recurrent weights, the zeroed
    stacked gradient with a same-shaped step buffer, a (G*H, B) buffer for
    the pre-activation delta, and the deltas feature-major.
    """
    h, b = p.hidden, tape.s.shape[2]
    for delta in deltas:
        if delta.shape != (b, h):
            raise ShapeError(f"delta shape {delta.shape} does not match the taped (B, H) = {(b, h)}")
    if tape.z.shape[0] != tape.steps:
        raise ShapeError("tape holds scratch slots only; run the forward kernel with keep=True")
    a = _stacked(p)
    wt = np.ascontiguousarray(a[:, :h].T)
    return wt, np.zeros_like(a), np.empty_like(a), np.empty((a.shape[0], b)), [np.ascontiguousarray(d.T) for d in deltas]


def rnn_backward(p: RnnParams, tape: CellTape, dh: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Reverse the taped pass from the (B, H) delta at h_T; returns (dh_0 as (B, H), gradients)."""
    h = p.hidden
    wt, grad, step, dz, (dh,) = _reverse_start(p, tape, dh)
    for t in reversed(range(tape.steps)):
        if p.activation == "relu":
            np.multiply(dh, tape.z[t] > 0.0, out=dz)
        elif p.activation == "tanh":
            ht = tape.s[t + 1, :h]
            np.multiply(dh, 1.0 - ht * ht, out=dz)
        else:
            dz[...] = dh
        dh = wt @ dz
        grad += np.matmul(dz, tape.s[t].T, out=step)
    return dh.T, _split(p, grad)


def lstm_backward(
    p: LstmParams, tape: CellTape, dh: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Reverse the taped pass from (B, H) deltas at h_T and c_T.

    Returns (dh_0, dc_0, gradients). Gate derivatives use sigma' = s(1-s)
    and tanh' = 1 - t**2 on the taped activations.
    """
    h = p.hidden
    wt, grad, step, dz, (dh, dc) = _reverse_start(p, tape, dh, dc)
    dzi, dzf, dzo, dzg = dz[:h], dz[h : 2 * h], dz[2 * h : 3 * h], dz[3 * h :]
    for t in reversed(range(tape.steps)):
        gt, tct = tape.z[t], tape.tc[t]
        i, f, o, g = gt[:h], gt[h : 2 * h], gt[2 * h : 3 * h], gt[3 * h :]
        dc_total = dc + dh * o * (1.0 - tct * tct)
        np.multiply(1.0 - gt[: 3 * h], gt[: 3 * h], out=dz[: 3 * h])  # sigma' of i, f, o
        dzi *= dc_total * g
        dzf *= dc_total * tape.c[t]
        dzo *= dh * tct
        np.multiply(dc_total * i, 1.0 - g * g, out=dzg)
        dc = dc_total * f
        dh = wt @ dz
        grad += np.matmul(dz, tape.s[t].T, out=step)
    return dh.T, dc.T, _split(p, grad)
