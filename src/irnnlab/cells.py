"""Recurrent cells as whole-sequence kernels: one forward and one backward pass each.

The plain RNN cell computes

    h_t = g(W h_{t-1} + V x_t + b),    g in {relu, tanh, linear}

where both RNN kernels take g's name as an argument, so the model spec
(``network.ModelSpec``) alone holds it. The LSTM cell is the standard
forget-gate variant without peepholes:

    i = sigmoid(Wi h + Vi x + bi)        input gate
    f = sigmoid(Wf h + Vf x + bf)        forget gate
    o = sigmoid(Wo h + Vo x + bo)        output gate
    g = tanh(Wg h + Vg x + bg)           candidate
    c = f * c_prev + i * g
    h = o * tanh(c)

Both start from a zero state. The kernels are feature-major: a state is
(H, B), one column per lane. A cell's weights are one operand A = [W | V | b]
of shape (G*H, H+D+1), G = 1 for the RNN and G = 4 for the LSTM with gate
rows in i|f|o|g order, and its named blocks are views of A. A step is one
GEMM A @ [h_{t-1}; x_t; 1], with A read in place, whose gates are contiguous
(H, B) row blocks. The LSTM negates the i|f|o rows of a per-call copy of A,
so its GEMM yields -z exactly for the three logistic gates.

A tape is the tuple of arrays ``_start`` allocates, ``(s,)`` for the RNN and
``(s, z, c, tc)`` for the LSTM, for T = len(s) - 1 steps; the tape-free pass
(``keep=False``) runs the same loop on 2 reused slots of ``s`` and ``c`` and
1 of ``z`` and ``tc``, and returns no tape:

    s   (T+1, H+D+1, B)  s[t] is the step-t operand [h_{t-1}; x_t; 1],
                         so s[t+1, :H] holds h_t
    z   (T, 4*H, B)      LSTM gate activations i|f|o|g
    c   (T+1, H, B)      LSTM cell states, c[0] = 0; tc (T, H, B) is tanh(c_t)

An RNN tape holds ``s`` alone: each step's GEMM is written straight into the
rows of h_t and activated there, and g'(z) is read off h = g(z): [h > 0]
for relu (so g'(0) = 0), 1 - h**2 for tanh and 1 for linear.

The forward arrays take the dtype of the operand A, and the inputs are cast
as they are copied into ``s``, taped or not, under the step loop's error state.
Models are float64; ``harness.evaluate`` runs the tape-free pass on a float32
copy of A, where any input or state past float32's range is inf and fails the
overflow check at its step, before ``OVERFLOW_LIMIT`` can.
The check reads h alone, by its maximum where h >= -1 (relu, tanh, LSTM). The
LSTM's c needs none: |c_t| <= t, and a NaN in c_t is a NaN in h_t = o*tanh(c_t).

The backward kernels walk the tape in reverse and add into the operand of
the gradient cell ``out``, whose named blocks are views of it. The LSTM takes
each step's gradients of all blocks as one GEMM of the (4*H, B)
pre-activation delta against the step's operand [h_{t-1}; x_t; 1]. The RNN
runs lane-major in reverse blocks of ``BLOCK`` steps: it writes g' of the
block's states into a (BLOCK, B, H) buffer, makes each step two calls,
dz_t = dh * g'_t in place and dh = dz_t @ W, and then adds the block's
gradients as one (H, BLOCK*B) x (BLOCK*B, H+D+1) GEMM against a lane-major
copy of the block's operands. Gradients are summed over lanes (the 1/B of a
mean loss arrives through the incoming delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .ndcore import DivergenceError, ShapeError

# activation: (g applied in place to z, g' of the output h = g(z) written into ``out``,
# whether g(z) >= -1 so that the overflow check needs only the maximum)
_ACTIVATION = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda h, out: np.greater(h, 0.0, out=out), True),
    "tanh": (lambda z: np.tanh(z, out=z), lambda h, out: np.subtract(1.0, np.square(h, out=out), out=out), True),
    "linear": (lambda z: z, lambda h, out: np.copyto(out, 1.0), False),
}
ACTIVATIONS = tuple(_ACTIVATION)

# Any hidden or cell state beyond this magnitude aborts the run as diverged.
OVERFLOW_LIMIT = 1e100

# Reverse steps per weight-gradient GEMM in ``rnn_backward``: 6 steps of 16 lanes keep the
# (100, 96) x (96, 103) GEMM of the paper's shapes under OpenBLAS's small-matrix bound M*N*K <= 1e6.
BLOCK = 6


@dataclass
class _Cell:
    """A cell's weights as one operand A = [W | V | b] of shape (G*H, H+D+1), gate rows in
    ``gates`` order; each named block (``W``, ``Vf``, ...) is a view of it."""

    a: np.ndarray
    gates: ClassVar[tuple[str, ...]]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in cls(np.empty(cls.operand_shape(1, 1))).blocks():
            setattr(cls, name, property(lambda self, name=name: self.blocks()[name]))

    @classmethod
    def operand_shape(cls, h: int, d: int) -> tuple[int, int]:
        return len(cls.gates) * h, h + d + 1

    @classmethod
    def from_blocks(cls, **kwargs):
        """A cell on a new operand holding copies of the named blocks."""
        h, d = np.shape(kwargs[f"W{cls.gates[0]}"])[0], np.shape(kwargs[f"V{cls.gates[0]}"])[1]
        cell = cls(np.empty(cls.operand_shape(h, d)))
        for name, view in cell.blocks().items():
            block = np.asarray(kwargs.pop(name))
            if block.shape != view.shape:
                raise ShapeError(f"block {name} has shape {block.shape}; expected {view.shape}")
            view[...] = block
        if kwargs:
            raise TypeError(f"unknown blocks {sorted(kwargs)}")
        return cell

    def __post_init__(self):
        shape, g = np.shape(self.a), len(self.gates)
        if len(shape) != 2 or shape[0] % g or not 0 < shape[0] // g < shape[1] - 1:
            raise ShapeError(f"operand shape {shape} is not (G*H, H+D+1) with G = {g} and H, D >= 1")

    @property
    def hidden(self) -> int:
        return self.a.shape[0] // len(self.gates)

    @property
    def input_dim(self) -> int:
        return self.a.shape[1] - self.hidden - 1

    def blocks(self) -> dict[str, np.ndarray]:
        """The named views of A, per gate W (H, H), V (H, D) and b (H,), in checkpoint order."""
        h, d = self.hidden, self.input_dim
        out = {}
        for k, gate in enumerate(self.gates):
            rows = self.a[k * h : (k + 1) * h]
            out[f"W{gate}"], out[f"V{gate}"], out[f"b{gate}"] = rows[:, :h], rows[:, h : h + d], rows[:, h + d]
        return out


@dataclass
class RnnParams(_Cell):
    """Weights of one RNN cell: recurrent W (HxH), input V (HxD), bias b (H)."""

    gates: ClassVar[tuple[str, ...]] = ("",)


@dataclass
class LstmParams(_Cell):
    """Weights of one LSTM cell, one (W, V, b) triple per gate i/f/o/g."""

    gates: ClassVar[tuple[str, ...]] = ("i", "f", "o", "g")


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


def _check_finite(states: np.ndarray, first_step: int = 0, floored: bool = False) -> None:
    """Name the first step at which the (steps, H, B) ``states`` are NaN, inf or beyond OVERFLOW_LIMIT.

    Two reductions, the maximum and minimum, cover all steps (NaN fails both comparisons);
    the maximum alone when the states are ``floored``, never below -1. They compare as Python
    floats, since numpy compares a float32 one in float32, where OVERFLOW_LIMIT is inf. The
    steps are scanned only when they fail.
    """
    bounded = lambda a: float(a.max()) <= OVERFLOW_LIMIT and (floored or float(a.min()) >= -OVERFLOW_LIMIT)
    if bounded(states):
        return
    for t in range(states.shape[0]):
        if not bounded(states[t]):
            raise DivergenceError(f"non-finite or overflowing activation at step {first_step + t}")


def _start(p, inputs: np.ndarray, keep: bool) -> tuple[tuple[np.ndarray, ...], int, int]:
    """Validate inputs and allocate ``s`` (and the LSTM's ``z``, ``c``, ``tc``), one ``np.empty`` each
    in the operand's dtype; returns (arrays, s slots, z slots), the arrays the tape when ``keep``.

    A tape gets the input rows of all steps in one copy; scratch slots get them step by step.
    Either copy casts the inputs to the slots' dtype.
    """
    if inputs.ndim != 3 or inputs.shape[2] != p.input_dim or min(inputs.shape) < 1:
        raise ShapeError(f"inputs must have shape (T>=1, B>=1, {p.input_dim}), got {inputs.shape}")
    t_steps, b, _ = inputs.shape
    h = p.hidden
    ns, nz = (t_steps + 1, t_steps) if keep else (2, 1)
    shapes = [(ns, h + p.input_dim + 1, b)]
    if isinstance(p, LstmParams):
        shapes += [(nz, 4 * h, b), (ns, h, b), (nz, h, b)]
    arrays = tuple(np.empty(shape, p.a.dtype) for shape in shapes)
    arrays[0][0, :h] = 0.0
    arrays[0][:, h + p.input_dim] = 1.0
    if keep:
        arrays[0][:t_steps, h : h + p.input_dim] = inputs.transpose(0, 2, 1)
    return arrays, ns, nz


def rnn_forward(
    p: RnnParams, activation: str, inputs: np.ndarray, keep: bool = True
) -> tuple[np.ndarray, tuple | None]:
    """Run the RNN with the named activation (one of ``ACTIVATIONS``) over (T, B, D) inputs;
    returns (h_T as (B, H), tape), the tape None without ``keep``."""
    h, d, t_steps = p.hidden, p.input_dim, inputs.shape[0]
    a, (activate, _, floored) = p.a, _ACTIVATION[activation]
    with np.errstate(over="ignore", invalid="ignore"):  # a float32 cast or state past range is inf; checked below
        tape, ns, _ = _start(p, inputs, keep)
        (s,) = tape
        for t in range(t_steps):
            if not keep:
                s[t % ns, h : h + d] = inputs[t].T
            ht = activate(np.matmul(a, s[t % ns], out=s[(t + 1) % ns, :h]))
            if not keep:
                _check_finite(ht[None], t, floored)
    if keep:
        _check_finite(s[1:, :h], 0, floored)
    return s[t_steps % ns, :h].T, tape if keep else None


def lstm_forward(p: LstmParams, inputs: np.ndarray, keep: bool = True) -> tuple[np.ndarray, tuple | None]:
    """Run the LSTM over (T, B, D) inputs; returns (h_T as (B, H), tape), the tape None without ``keep``."""
    h, d, t_steps = p.hidden, p.input_dim, inputs.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a float32 cast or state past range is inf; checked below
        tape, ns, nz = _start(p, inputs, keep)
        s, gates, c, tc = tape
        c[0] = 0.0
        a = np.concatenate((-p.a[: 3 * h], p.a[3 * h :]))  # a copy (threads share p.a) whose GEMM yields -z for i|f|o
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
                _check_finite(ht[None], t, floored=True)
    if keep:
        _check_finite(s[1:, :h], floored=True)
    return s[t_steps % ns, :h].T, tape if keep else None


def _reverse_start(p, s: np.ndarray, out, delta: np.ndarray):
    """Validate the (B, H) delta at the final state of the taped operands ``s``; returns the
    gradient operand ``out.a`` to add into and a same-shaped step buffer."""
    h, b = p.hidden, s.shape[2]
    if delta.shape != (b, h):
        raise ShapeError(f"delta shape {delta.shape} does not match the taped (B, H) = {(b, h)}")
    return out.a, np.empty_like(p.a)


def rnn_backward(p: RnnParams, activation: str, tape: tuple, dh: np.ndarray, out: RnnParams) -> np.ndarray:
    """Reverse the pass that ``rnn_forward`` taped under ``activation`` from the (B, H) delta at h_T,
    adding the gradients into the cell ``out``; returns dh_0 as (B, H)."""
    (s,), h, derivative = tape, p.hidden, _ACTIVATION[activation][1]
    grad, step = _reverse_start(p, s, out, dh)
    dh, w = np.array(dh, order="C"), p.a[:, :h]  # a copy, since dh is overwritten step by step
    dz_block = np.empty((BLOCK, *dh.shape))  # g' of a block's states, then its deltas dz_t
    for end in range(len(s) - 1, 0, -BLOCK):
        start = max(end - BLOCK, 0)
        dz = dz_block[: end - start]
        derivative(s[start + 1 : end + 1, :h].transpose(0, 2, 1), dz)
        for dzt in dz[::-1]:
            np.multiply(dh, dzt, out=dzt)
            np.matmul(dzt, w, out=dh)
        x = s[start:end].transpose(0, 2, 1).reshape(-1, s.shape[1])  # a lane-major copy
        grad += np.matmul(dz.reshape(-1, h).T, x, out=step)
    return dh


def lstm_backward(p: LstmParams, tape: tuple, dh: np.ndarray, out: LstmParams) -> np.ndarray:
    """Reverse the taped pass from the (B, H) delta at h_T, adding the gradients into the cell ``out``;
    returns dh_0 as (B, H).

    The loss reads h_T alone, so the cell delta starts at zero. Gate derivatives
    use sigma' = s(1-s) and tanh' = 1 - t**2 on the taped activations.
    """
    (s, z, c, tc), h = tape, p.hidden
    grad, step = _reverse_start(p, s, out, dh)
    wt, dh, dc = np.ascontiguousarray(p.a[:, :h].T), np.ascontiguousarray(dh.T), 0.0
    dz = np.empty((4 * h, dh.shape[1]))
    dzi, dzf, dzo, dzg = dz[:h], dz[h : 2 * h], dz[2 * h : 3 * h], dz[3 * h :]
    for t in reversed(range(len(s) - 1)):
        gt, tct = z[t], tc[t]
        i, f, o, g = gt[:h], gt[h : 2 * h], gt[2 * h : 3 * h], gt[3 * h :]
        dc_total = dc + dh * o * (1.0 - tct * tct)
        np.multiply(1.0 - gt[: 3 * h], gt[: 3 * h], out=dz[: 3 * h])  # sigma' of i, f, o
        dzi *= dc_total * g
        dzf *= dc_total * c[t]
        dzo *= dh * tct
        np.multiply(dc_total * i, 1.0 - g * g, out=dzg)
        dc = dc_total * f
        dh = wt @ dz
        grad += np.matmul(dz, s[t].T, out=step)
    return dh.T
