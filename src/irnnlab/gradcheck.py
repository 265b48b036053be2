"""Finite-difference gradient oracle for validating the analytic backward passes.

``numeric_gradient`` is deliberately brute force: one central difference per
parameter coordinate, no shortcuts shared with the code under test.
``check_model`` compares it against ``backward`` on randomized small models
(``T_STEPS`` steps, ``BATCH_SIZE`` lanes, differences of +/- ``EPSILON``) and
reports the worst relative error per block.

Relative error uses the denominator max(|analytic|, |numeric|, 1e-8). Two
guards keep the comparison meaningful:

- Kink guard: a rectifier trial is redrawn whenever some pre-activation
  |W h_{t-1} + V x_t + b|, recomputed by a recurrence of the guard's own, is
  below 10 * EPSILON: a central difference straddling the kink measures the
  wrong one-sided slope.
- Resolution guard: central differences resolve gradients only to roughly
  u * |loss| / EPSILON + EPSILON**2 * |f'''| absolute (~1e-10 here), so a
  coordinate whose absolute disagreement is below 1e-9 is certified outright;
  for tiny gradients the relative ratio against the 1e-8 denominator floor
  would only measure that irreducible noise. A genuine defect (a dropped or
  wrong term) produces a disagreement the size of the term itself, far above
  1e-9, and still fails the relative comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .ndcore import make_rng
from .network import ModelSpec, SequenceBatch, backward, forward, init_params, param_blocks

REL_ERR_FLOOR = 1e-8
EPSILON = 1e-5
KINK_GUARD_FACTOR = 10.0
ABSOLUTE_TOL = 1e-9  # resolution guard: agreement below this always certifies
T_STEPS = 10
BATCH_SIZE = 3


@dataclass
class GradReport:
    """Comparison outcome across all blocks and trials: each block's worst relative error."""

    blocks: dict[str, float]
    redrawn: int  # trials discarded by the kink guard

    @property
    def max_rel_err(self) -> float:
        return max(self.blocks.values())

    def worst_block(self) -> str:
        return max(self.blocks, key=self.blocks.get)


def numeric_gradient(
    loss_fn: Callable[[Mapping[str, np.ndarray]], float], params: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Central-difference gradient of a deterministic scalar loss.

    Each coordinate is perturbed in place by +/- EPSILON and restored, so
    ``loss_fn`` may simply close over the same parameter arrays.
    """
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    for name, p in params.items():
        g = grads[name]
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + EPSILON
            up = loss_fn(params)
            p.flat[i] = orig - EPSILON
            down = loss_fn(params)
            p.flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError(
                    f"non-finite loss while perturbing {name}[{np.unravel_index(i, p.shape)}]"
                )
            g.flat[i] = (up - down) / (2.0 * EPSILON)
    return grads


def compare_gradients(analytic: Mapping[str, np.ndarray], numeric: Mapping[str, np.ndarray]) -> dict[str, float]:
    """Per-block worst relative error with the documented denominator floor and resolution guard."""
    out = {}
    for name, a in analytic.items():
        n = numeric[name]
        diff = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
        out[name] = float(np.max(np.where(diff < ABSOLUTE_TOL, 0.0, diff / denom)))
    return out


def _min_preactivation(spec: ModelSpec, params, inputs: np.ndarray) -> float:
    if spec.cell != "rnn" or spec.activation != "relu":
        return np.inf
    h, smallest = np.zeros((inputs.shape[1], spec.hidden)), np.inf
    for x in inputs:
        z = h @ params.W.T + x @ params.V.T + params.b
        smallest, h = min(smallest, float(np.min(np.abs(z)))), np.maximum(z, 0.0)
    return smallest


# Draw scale for random instances: keeps a 10-step linear unroll from
# exploding (recurrent spectral radius stays near 1), so finite-difference
# truncation remains well below the 1e-6 demand on kink-free cells while the
# weights stay generic enough to exercise every path.
INSTANCE_SCALE = 0.35


def _random_instance(spec: ModelSpec, rng):
    """Generic weights and data: Gaussian blocks, Gaussian inputs, random targets."""
    params, head = init_params(spec, rng)
    blocks = param_blocks(params, head)
    for name, p in blocks.items():
        p[...] = rng.normal(0.0, INSTANCE_SCALE, size=p.shape)
    if spec.cell == "lstm":
        blocks["bf"] += spec.forget_bias
    inputs = rng.normal(0.0, 1.0, size=(T_STEPS, BATCH_SIZE, spec.input_dim))
    if spec.head == "regression":
        targets = rng.normal(0.0, 1.0, size=BATCH_SIZE)
    else:
        targets = rng.integers(0, spec.classes, size=BATCH_SIZE)
    return params, head, SequenceBatch(inputs=inputs, targets=targets)


def check_model(spec: ModelSpec, trials: int, seed: int) -> GradReport:
    """Compare backward() against the finite-difference oracle on random instances."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = make_rng(seed)
    worst: dict[str, float] = {}
    redrawn = 0
    done = 0
    while done < trials:
        params, head, batch = _random_instance(spec, rng)
        if _min_preactivation(spec, params, batch.inputs) < KINK_GUARD_FACTOR * EPSILON:
            redrawn += 1
            if redrawn > 50 * trials:
                raise RuntimeError("kink guard kept rejecting trials; widen the model scales")
            continue
        analytic = backward(params, head, forward(spec, params, head, batch).tape).blocks
        blocks = param_blocks(params, head)
        numeric = numeric_gradient(lambda _: forward(spec, params, head, batch).loss, blocks)
        for name, err in compare_gradients(analytic, numeric).items():
            worst[name] = max(worst.get(name, err), err)
        done += 1
    return GradReport(blocks=worst, redrawn=redrawn)
