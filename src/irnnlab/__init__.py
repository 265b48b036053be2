"""Training engine and benchmark harness for small recurrent networks.

ReLU/tanh RNN and LSTM cells with exact backpropagation through time,
identity / scaled-identity / Gaussian initialization, fixed-rate SGD with
global-norm gradient clipping, a finite-difference gradient oracle, and two
long-range benchmarks: the adding problem and pixel-by-pixel MNIST.
"""

__version__ = "0.1.0"

from .cells import LstmParams, RnnParams
from .gradcheck import GradReport, check_model, numeric_gradient
from .harness import GridSpec, TrainResult, evaluate, grid_search, train
from .init import InitScheme, parse_scheme
from .ndcore import DivergenceError, Rng, ShapeError, make_rng
from .network import (
    Gradients,
    HeadParams,
    ModelSpec,
    SequenceBatch,
    backward,
    forward,
    init_params,
    load_checkpoint,
    param_blocks,
    save_checkpoint,
)
from .optim import TrainConfig, clip_gradients, sgd_step
from .tasks import (
    AddingDataset,
    PixelImageDataset,
    baseline_mse,
    gen_adding,
    load_adding,
    load_mnist,
    make_permutation,
    save_adding,
)

__all__ = [
    "AddingDataset",
    "DivergenceError",
    "GradReport",
    "Gradients",
    "GridSpec",
    "HeadParams",
    "InitScheme",
    "LstmParams",
    "ModelSpec",
    "PixelImageDataset",
    "Rng",
    "RnnParams",
    "SequenceBatch",
    "ShapeError",
    "TrainConfig",
    "TrainResult",
    "backward",
    "baseline_mse",
    "check_model",
    "clip_gradients",
    "evaluate",
    "forward",
    "gen_adding",
    "grid_search",
    "init_params",
    "load_adding",
    "load_checkpoint",
    "load_mnist",
    "make_permutation",
    "make_rng",
    "numeric_gradient",
    "param_blocks",
    "parse_scheme",
    "save_adding",
    "save_checkpoint",
    "sgd_step",
    "train",
]
