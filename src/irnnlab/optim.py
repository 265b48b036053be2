"""Fixed-learning-rate SGD with global-norm gradient clipping.

Both act on a model's whole vector (``network``). Clipping rescales the
gradient vector so its own L2 norm does not exceed the threshold, never
clamping elementwise. No momentum, weight decay, or schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ndcore import DivergenceError, ShapeError

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def clip_gradients(grads: np.ndarray, gc: float) -> float:
    """Rescale the gradient vector in place so its global L2 norm is at most gc; returns the
    norm before clipping, so it can be logged."""
    if not gc > 0:
        raise ValueError(f"clip threshold must be > 0, got {gc}")
    with np.errstate(over="ignore"):  # an overflowing sum is reported as an infinite norm
        norm = math.sqrt(float(np.dot(grads, grads)))
    if not math.isfinite(norm):
        raise DivergenceError("non-finite gradient entries")
    if norm > gc * (1.0 + _CLIP_SLACK):
        grads *= gc / norm
    return norm


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """In-place update p <- p - lr * g of the parameter vector."""
    if params.shape != grads.shape:
        raise ShapeError(f"parameter shape {params.shape} vs gradient shape {grads.shape}")
    params -= lr * grads
