"""Weight initialization schemes for the recurrent cells.

Three schemes cover the recurrent matrix: exact identity, identity scaled by
a small constant, and i.i.d. Gaussian entries. Input weights and biases are
small Gaussians (std 0.001 by default) so that early hidden activations stay
in the linear regime of the rectifier. A separate constructor provides the
conventional tanh-network baseline (recurrent std 1/sqrt(H), input std
1/sqrt(D), zero bias), which is a documented choice rather than a published
recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ndcore import Rng

DEFAULT_INPUT_STD = 0.001

_KINDS = ("identity", "iscale", "gauss")


@dataclass(frozen=True)
class InitScheme:
    """Recurrent-matrix initialization: identity, iscale:<s>, or gauss:<std>."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown init scheme {self.kind!r}; expected one of {_KINDS}")
        if not math.isfinite(self.value):
            raise ValueError(f"{self.kind} parameter must be finite, got {self.value}")
        if self.kind == "iscale" and not self.value > 0:
            raise ValueError(f"iscale scale must be > 0, got {self.value}")
        if self.kind == "gauss" and self.value < 0:
            raise ValueError(f"gauss std must be >= 0, got {self.value}")

    def __str__(self) -> str:
        if self.kind == "identity":
            return "identity"
        return f"{self.kind}:{self.value:g}"


def parse_scheme(text: str) -> InitScheme:
    """Parse the CLI spelling: ``identity``, ``iscale:<s>``, or ``gauss:<std>``."""
    name, _, arg = text.partition(":")
    if name == "identity":
        if arg:
            raise ValueError(f"identity takes no parameter, got {text!r}")
        return InitScheme("identity")
    if name in ("iscale", "gauss"):
        if not arg:
            raise ValueError(f"{name} needs a numeric parameter, e.g. {name}:0.01")
        return InitScheme(name, float(arg))
    raise ValueError(f"unknown init scheme {text!r}")


def init_recurrent(scheme: InitScheme, h: int, rng: Rng) -> np.ndarray:
    """H-by-H recurrent matrix built per the scheme."""
    if h < 1:
        raise ValueError(f"hidden size must be >= 1, got {h}")
    if scheme.kind == "identity":
        return np.eye(h)
    if scheme.kind == "iscale":
        return np.eye(h) * scheme.value
    return rng.normal(0.0, scheme.value, size=(h, h))


def init_input_and_bias(
    std: float, h: int, d: int, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Input matrix V (H x D) and bias b (H), both Gaussian(0, std**2)."""
    if std < 0 or h < 1 or d < 1:
        raise ValueError(f"need std >= 0 and sizes >= 1, got std={std}, h={h}, d={d}")
    v = rng.normal(0.0, std, size=(h, d))
    b = rng.normal(0.0, std, size=h)
    return v, b


def init_tanh_baseline(h: int, d: int, rng: Rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard tanh-RNN baseline: W ~ N(0, 1/H), V ~ N(0, 1/D), zero bias."""
    if h < 1 or d < 1:
        raise ValueError(f"sizes must be >= 1, got h={h}, d={d}")
    w = rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h))
    v = rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d))
    b = np.zeros(h, dtype=np.float64)
    return w, v, b
