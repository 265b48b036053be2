"""Fixed-learning-rate SGD with global-norm gradient clipping.

Clipping rescales the whole gradient (all parameter blocks jointly) so its
L2 norm does not exceed the threshold; it never clamps elementwise, so the
update direction is preserved. No momentum, weight decay, or schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ndcore import DivergenceError, ShapeError, l2_norm

# Clip triggers only above gc * (1 + _CLIP_SLACK) so that re-clipping an
# already-clipped gradient is exactly a no-op despite rounding in the rescale.
_CLIP_SLACK = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """One training run: learning rate, clip threshold, batching, and budget."""

    lr: float
    clip: float
    max_steps: int
    eval_every: int = 200
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 < self.clip < math.inf:  # no "no clipping" mode: a huge finite clip does that job
            raise ValueError(f"clip must be finite and > 0, got {self.clip}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


def clip_gradients(
    grads: Mapping[str, np.ndarray], gc: float
) -> tuple[Mapping[str, np.ndarray], float]:
    """Rescale all blocks jointly so their global L2 norm is at most gc.

    Mutates the arrays in place and returns (grads, norm_before) so the
    pre-clip norm can be logged.
    """
    if not gc > 0:
        raise ValueError(f"clip threshold must be > 0, got {gc}")
    norm = l2_norm(grads.values())
    if not np.isfinite(norm):
        raise DivergenceError("non-finite gradient entries")
    if norm > gc * (1.0 + _CLIP_SLACK):
        factor = gc / norm
        for g in grads.values():
            g *= factor
    return grads, norm


def sgd_step(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray], lr: float) -> None:
    """In-place update p <- p - lr * g for every block, in block order."""
    if params.keys() != grads.keys():
        raise ShapeError(f"parameter blocks {sorted(params)} do not match gradient blocks {sorted(grads)}")
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ShapeError(f"block {name!r}: parameter shape {p.shape} vs gradient shape {g.shape}")
        p -= lr * g
