"""Weight initialization schemes for the recurrent cells.

Four schemes cover the recurrent matrix: the activation-matched baseline,
exact identity, identity scaled by a small constant, and i.i.d. Gaussian
entries. Input weights and biases are small Gaussians (std 0.001 by default)
so that early hidden activations stay in the linear regime of the rectifier.
``network.init_params`` draws every block from a ``ModelSpec``. The baseline
is the conventional tanh-network start for a tanh RNN (recurrent std
1/sqrt(H), input std 1/sqrt(D), zero bias), which is a documented choice
rather than a published recipe, Gaussian(input_init_std) everywhere for a
relu or linear RNN, and the only scheme an LSTM takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_INPUT_STD = 0.001

# every scheme; its index is its checkpoint code
KINDS = ("baseline", "identity", "iscale", "gauss")
_NO_VALUE = ("baseline", "identity")


@dataclass(frozen=True)
class InitScheme:
    """Recurrent-matrix initialization: baseline, identity, iscale:<s>, or gauss:<std>."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown init scheme {self.kind!r}; expected one of {KINDS}")
        if not math.isfinite(self.value):
            raise ValueError(f"{self.kind} parameter must be finite, got {self.value}")
        if self.kind in _NO_VALUE and self.value != 0:
            raise ValueError(f"{self.kind} takes no parameter, got {self.value}")
        if self.kind == "iscale" and not self.value > 0:
            raise ValueError(f"iscale scale must be > 0, got {self.value}")
        if self.kind == "gauss" and self.value < 0:
            raise ValueError(f"gauss std must be >= 0, got {self.value}")


def parse_scheme(text: str) -> InitScheme:
    """Parse the CLI spelling: ``baseline``, ``identity``, ``iscale:<s>``, or ``gauss:<std>``."""
    name, _, arg = text.partition(":")
    if name not in KINDS:
        raise ValueError(f"unknown init scheme {text!r}")
    if name in _NO_VALUE:
        if arg:
            raise ValueError(f"{name} takes no parameter, got {text!r}")
        return InitScheme(name)
    if not arg:
        raise ValueError(f"{name} needs a numeric parameter, e.g. {name}:0.01")
    return InitScheme(name, float(arg))
