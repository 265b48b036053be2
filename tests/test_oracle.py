"""Second oracle: a plain per-step reference of both cells and both heads in long double.

The engine's h_T, loss, every gradient block and the delta at the zero initial
state are compared with ``reference``, which runs the textbook recurrence one
step at a time, lane-major, in ``np.longdouble``. Its only shared rule is the
relu kink: g'(0) = 0, read off h > 0 as in the engine. The lengths cover the
RNN backward kernel's block edges: one step, one block short of, equal to and
past ``cells.BLOCK``, and several blocks with a partial one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irnnlab import InitScheme, ModelSpec, SequenceBatch, backward, forward, init_params, make_rng, param_blocks
from irnnlab.cells import BLOCK

LD = np.longdouble
EPS = np.finfo(np.float64).eps
T_CASES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)

# activation: (g, g' of the output h = g(z) with 1 - h**2 written as sub(1, h * h))
_G = {
    "relu": (lambda z: np.maximum(z, 0), lambda h, sub: (h > 0).astype(LD)),
    "tanh": (np.tanh, lambda h, sub: sub(1, h * h)),
    "linear": (lambda z: z, lambda h, sub: np.ones_like(h)),
}


def sigmoid(z):
    return 1 / (1 + np.exp(-z))


def reference(spec, blocks, inputs, targets):
    """Per-step BPTT of one batch in long double; returns h_T, the mean loss, the gradient blocks by
    name and dh_0, and the magnitudes of the last two (see ``_reverse``)."""
    p = {name: block.astype(LD) for name, block in blocks.items()}
    x, b = inputs.astype(LD), inputs.shape[1]
    gates = "ifog" if spec.cell == "lstm" else ("",)
    hs, cs, acts = [np.zeros((b, spec.hidden), LD)], [np.zeros((b, spec.hidden), LD)], []
    for xt in x:
        z = {k: hs[-1] @ p["W" + k].T + xt @ p["V" + k].T + p["b" + k] for k in gates}
        if spec.cell == "rnn":
            hs.append(_G[spec.activation][0](z[""]))
            continue
        i, f, o, gg = sigmoid(z["i"]), sigmoid(z["f"]), sigmoid(z["o"]), np.tanh(z["g"])
        cs.append(f * cs[-1] + i * gg)
        acts.append((i, f, o, gg, np.tanh(cs[-1])))
        hs.append(o * acts[-1][4])
    logits = hs[-1] @ p["U"].T + p["c"]
    if spec.head == "regression":
        residual = logits[:, 0] - targets
        loss, dlogits = np.mean(residual * residual), (2 / b) * residual[:, None]
        dlogits_size = (2 / b) * (np.abs(logits) + np.abs(targets)[:, None])
    else:
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        lanes = np.arange(b)
        loss, dlogits = -np.mean(logp[lanes, targets]), np.exp(logp)
        dlogits[lanes, targets] -= 1
        dlogits /= b
        dlogits_size = dlogits + 2 * (dlogits < 0) / b  # p/b for each term: p - 1 has size p + 1
    return (hs[-1], loss, *_reverse(spec, gates, p, x, hs, cs, acts, dlogits, np.subtract),
            *_reverse(spec, gates, *_abs((p, x, hs, cs, acts)), dlogits_size, np.add))


def _abs(a):
    """``a`` with every array in it, nested in dicts, lists and tuples, taken in absolute value."""
    if isinstance(a, dict):
        return {k: _abs(v) for k, v in a.items()}
    if isinstance(a, (list, tuple)):
        return type(a)(_abs(v) for v in a)
    return np.abs(a)


def _reverse(spec, gates, p, x, hs, cs, acts, dlogits, sub):
    """The reverse pass from the loss gradient ``dlogits``, with each difference taken by ``sub``.

    Given the forward values and ``np.subtract``, this is BPTT. Given their absolute values, the
    size of each term of ``dlogits`` and ``np.add``, every sum and difference becomes the sum of
    its terms' sizes. Float64 rounding moves an entry by eps times that size per operation, so
    the engine's error in each entry is judged against it.
    """
    grads = {name: np.zeros_like(block) for name, block in p.items()}
    grads["U"], grads["c"] = dlogits.T @ hs[-1], dlogits.sum(axis=0)
    dh, dc = dlogits @ p["U"], np.zeros_like(hs[0])
    for t in reversed(range(len(x))):
        if spec.cell == "rnn":
            dz = {"": dh * _G[spec.activation][1](hs[t + 1], sub)}
        else:
            i, f, o, gg, tc = acts[t]
            dct = dc + dh * o * sub(1, tc * tc)
            dz = {"i": dct * gg * i * sub(1, i), "f": dct * cs[t] * f * sub(1, f),
                  "o": dh * tc * o * sub(1, o), "g": dct * i * sub(1, gg * gg)}
            dc = dct * f
        dh = sum(dz[k] @ p["W" + k] for k in gates)
        for k in gates:
            grads["W" + k] += dz[k].T @ hs[t]
            grads["V" + k] += dz[k].T @ x[t]
            grads["b" + k] += dz[k].sum(axis=0)
    return grads, dh


@st.composite
def instances(draw):
    """A model spec, its perturbed initial weights and one batch, all drawn from a hypothesis seed."""
    cell = draw(st.sampled_from(["rnn", "lstm"]))
    head = draw(st.sampled_from(["regression", "softmax"]))
    hidden, input_dim = draw(st.integers(1, 32)), draw(st.integers(1, 3))
    spec = ModelSpec(
        cell=cell, hidden=hidden, input_dim=input_dim, head=head,
        classes=draw(st.integers(2, 5)) if head == "softmax" else 0,
        activation=draw(st.sampled_from(["relu", "tanh", "linear"])) if cell == "rnn" else "relu",
        init=draw(st.sampled_from([InitScheme("baseline"), InitScheme("identity"), InitScheme("iscale", 0.5),
                                   InitScheme("gauss", 0.1)])) if cell == "rnn" else InitScheme("baseline"),
        forget_bias=draw(st.floats(0.0, 20.0)) if cell == "lstm" else 1.0,
    )
    t_steps, lanes = draw(st.sampled_from(T_CASES)), draw(st.integers(1, 64))
    rng = make_rng(draw(st.integers(0, 2**31)))
    params, head_params = init_params(spec, rng)
    # every cell weight and U moved off its initial value by N(0, 0.3**2 / (H+D+1)), as in training
    scale = 0.3 / np.sqrt(hidden + input_dim + 1)
    params.a += rng.normal(0.0, scale, size=params.a.shape)
    head_params.U += rng.normal(0.0, scale, size=head_params.U.shape)
    targets = (rng.integers(0, spec.classes, size=lanes) if head == "softmax"
               else rng.normal(0.0, 1.0, size=lanes))
    batch = SequenceBatch(inputs=rng.normal(0.0, 1.0, size=(t_steps, lanes, input_dim)), targets=targets)
    return spec, params, head_params, batch


def error(engine, ref, scale) -> float:
    """The worst entry error over ``scale`` (an array of the same shape, or a number); 0 where both are 0."""
    return float(np.max(np.abs(engine - ref) / np.maximum(scale, np.finfo(np.float64).tiny)))


@given(instances())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_engine_matches_long_double_reference(instance):
    spec, params, head, batch = instance
    loss, _, tape = forward(spec, params, head, batch)
    grads = backward(params, head, tape)
    h_ref, loss_ref, grads_ref, dh0_ref, magnitudes, dh0_magnitude = reference(
        spec, param_blocks(params, head), batch.inputs, batch.targets)
    errors = {"h_T": error(tape.h_last, h_ref, np.max(np.abs(h_ref))), "loss": error(loss, loss_ref, loss_ref),
              "dh0": error(grads.dh0, dh0_ref, dh0_magnitude)}
    errors.update((name, error(grads.blocks[name], ref, magnitudes[name])) for name, ref in grads_ref.items())
    # a rounding moves an entry by at most eps times the sizes of its terms, and an entry passes
    # through about T*(H+D+1+B) of them: T steps of sums over the H+D+1 operand rows, and the
    # gradient's sums over T*B lanes; the worst of 3000 random draws needed 7 of the 16
    t_steps, lanes = batch.inputs.shape[:2]
    tol = 16 * t_steps * (spec.hidden + spec.input_dim + 1 + lanes) * EPS
    assert max(errors.values()) <= tol, f"errors {errors} above {tol:.3g}"
