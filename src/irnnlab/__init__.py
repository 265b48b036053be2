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
