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
from .init import InitScheme, init_input_and_bias, init_recurrent, init_tanh_baseline, parse_scheme
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
    predict,
    save_checkpoint,
)
from .optim import TrainConfig, clip_gradients, sgd_step
from .tasks import (
    AddingDataset,
    MnistSeqDataset,
    baseline_mse,
    gen_adding,
    load_adding,
    load_mnist,
    make_permutation,
    save_adding,
    to_sequence_batch,
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
    "MnistSeqDataset",
    "ModelSpec",
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
    "init_input_and_bias",
    "init_params",
    "init_recurrent",
    "init_tanh_baseline",
    "load_adding",
    "load_checkpoint",
    "load_mnist",
    "make_permutation",
    "make_rng",
    "numeric_gradient",
    "param_blocks",
    "parse_scheme",
    "predict",
    "save_adding",
    "save_checkpoint",
    "sgd_step",
    "to_sequence_batch",
    "train",
]
