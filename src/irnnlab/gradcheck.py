"""Finite-difference gradient oracle for validating the analytic backward passes.

``numeric_gradient`` is deliberately brute force: one central difference per
parameter coordinate, no shortcuts shared with the code under test.
``check_model`` compares it against ``backward`` on randomized small models
and reports the worst coordinate per block.

Relative error uses the denominator max(|analytic|, |numeric|, 1e-8). Two
guards keep the comparison meaningful:

- Kink guard: a rectifier trial is redrawn whenever some pre-activation
  |W h_{t-1} + V x_t + b|, recomputed by a recurrence of the guard's own, is
  below 10 * epsilon: a central difference straddling the kink measures the
  wrong one-sided slope.
- Resolution guard: central differences resolve gradients only to roughly
  u * |loss| / epsilon + epsilon**2 * |f'''| absolute (~1e-10 here), so a
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
DEFAULT_EPSILON = 1e-5
KINK_GUARD_FACTOR = 10.0
ABSOLUTE_TOL = 1e-9  # resolution guard: agreement below this always certifies


@dataclass
class BlockCheck:
    """Worst disagreement within one parameter block."""

    max_rel_err: float
    worst_index: tuple[int, ...]
    analytic: float
    numeric: float
    certified_abs: int = 0  # coordinates the resolution guard certified


@dataclass
class GradReport:
    """Comparison outcome across all blocks and trials."""

    blocks: dict[str, BlockCheck]
    trials: int
    redrawn: int  # trials discarded by the kink guard

    @property
    def max_rel_err(self) -> float:
        return max(b.max_rel_err for b in self.blocks.values())

    def worst_block(self) -> str:
        return max(self.blocks, key=lambda k: self.blocks[k].max_rel_err)


def numeric_gradient(
    loss_fn: Callable[[Mapping[str, np.ndarray]], float],
    params: Mapping[str, np.ndarray],
    epsilon: float = DEFAULT_EPSILON,
) -> dict[str, np.ndarray]:
    """Central-difference gradient of a deterministic scalar loss.

    Each coordinate is perturbed in place by +/- epsilon and restored, so
    ``loss_fn`` may simply close over the same parameter arrays.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    for name, p in params.items():
        g = grads[name]
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + epsilon
            up = loss_fn(params)
            p.flat[i] = orig - epsilon
            down = loss_fn(params)
            p.flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError(
                    f"non-finite loss while perturbing {name}[{np.unravel_index(i, p.shape)}]"
                )
            g.flat[i] = (up - down) / (2.0 * epsilon)
    return grads


def compare_gradients(
    analytic: Mapping[str, np.ndarray], numeric: Mapping[str, np.ndarray]
) -> dict[str, BlockCheck]:
    """Per-block worst relative error with the documented denominator floor."""
    out: dict[str, BlockCheck] = {}
    for name, a in analytic.items():
        n = numeric[name]
        diff = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
        raw_rel = diff / denom
        certified = diff < ABSOLUTE_TOL
        rel = np.where(certified, 0.0, raw_rel)
        flat_idx = int(np.argmax(rel))
        idx = np.unravel_index(flat_idx, a.shape)
        out[name] = BlockCheck(
            max_rel_err=float(rel.flat[flat_idx]),
            worst_index=tuple(int(j) for j in idx),
            analytic=float(a.flat[flat_idx]),
            numeric=float(n.flat[flat_idx]),
            certified_abs=int(np.sum(certified & (raw_rel >= 1e-6))),
        )
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


def _random_instance(spec: ModelSpec, rng, t_steps: int, batch_size: int):
    """Generic weights and data: Gaussian blocks, Gaussian inputs, random targets."""
    params, head = init_params(spec, rng)
    blocks = param_blocks(params, head)
    for name, p in blocks.items():
        p[...] = rng.normal(0.0, INSTANCE_SCALE, size=p.shape)
    if spec.cell == "lstm":
        blocks["bf"] += spec.forget_bias
    inputs = rng.normal(0.0, 1.0, size=(t_steps, batch_size, spec.input_dim))
    if spec.head == "regression":
        targets = rng.normal(0.0, 1.0, size=batch_size)
    else:
        targets = rng.integers(0, spec.classes, size=batch_size)
    return params, head, SequenceBatch(inputs=inputs, targets=targets)


def check_model(
    spec: ModelSpec,
    trials: int,
    seed: int,
    t_steps: int = 10,
    batch_size: int = 3,
    epsilon: float = DEFAULT_EPSILON,
) -> GradReport:
    """Compare backward() against the finite-difference oracle on random instances."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = make_rng(seed)
    worst: dict[str, BlockCheck] = {}
    counts: dict[str, int] = {}
    redrawn = 0
    done = 0
    while done < trials:
        params, head, batch = _random_instance(spec, rng, t_steps, batch_size)
        if _min_preactivation(spec, params, batch.inputs) < KINK_GUARD_FACTOR * epsilon:
            redrawn += 1
            if redrawn > 50 * trials:
                raise RuntimeError("kink guard kept rejecting trials; widen the model scales")
            continue
        analytic = backward(spec, params, head, forward(spec, params, head, batch).tape).blocks
        blocks = param_blocks(params, head)
        numeric = numeric_gradient(lambda _: forward(spec, params, head, batch).loss, blocks, epsilon)
        for name, check in compare_gradients(analytic, numeric).items():
            counts[name] = counts.get(name, 0) + check.certified_abs
            if name not in worst or check.max_rel_err > worst[name].max_rel_err:
                worst[name] = check
        done += 1
    for name, check in worst.items():
        check.certified_abs = counts[name]
    return GradReport(blocks=worst, trials=trials, redrawn=redrawn)
