"""Training loop, periodic evaluation, metrics persistence, and grid search.

A run is fully determined by (model spec, train config, dataset): parameter
initialization and epoch shuffling both derive from the config seed, and
minibatches are drawn without replacement, reshuffling each epoch. Every
``eval_every`` updates (and at the final step) the full test set is scored
and one metrics row is emitted.

``train`` and ``evaluate`` run BLAS on one thread (``one_blas_thread``,
through the OpenBLAS in numpy's wheel), so their results do not depend on
the BLAS thread variables; without that library nothing is pinned.
Evaluation scores the test set in chunks of ``EVAL_CHUNK`` sequences on
one thread per usable core (``eval_threads``): the calling thread and
k-1 helper threads each take the next unscored chunk until none is left,
so a thread slowed by other load takes fewer. Numpy releases the
interpreter lock inside GEMM and ufunc loops, and chunks share nothing.
Chunk results are summed in chunk order, so the loss and metric are
bit-identical for every thread count, and a failing chunk raises the
error of the lowest failing chunk, as a serial loop would; after a
failure no further chunk is handed out. The helpers are joined before
``evaluate`` returns, so ``grid_search`` never forks a process that has
threads, and its forked workers split the cores between them.

Evaluation runs the recurrence in float32 and everything after h_T in
float64; training and its gradients stay float64. float32 overflows near
3.4e38, long before ``cells.OVERFLOW_LIMIT`` (1e100), so divergence is
decided in float64: a chunk whose float32 pass diverges is scored again on
the float64 parameters, and that score or error is the chunk's. A
divergence thus names the step that ``forward`` names.

Metrics CSV contract (``metrics_csv`` writes the rows ``train`` passes to
``on_row``): header ``step,train_loss,test_loss,task_metric,grad_norm,
wallclock_s``, one row per eval point, ``.`` decimal separator, LF line
endings. All columns except wallclock_s are bit-reproducible; the wall
clock is injectable (``timer=``) so tests can pin it too.

Grid search runs one training per cell, each with its own derived seed. A
cell is the dict of the axis values it sets: ``lr`` and ``gc``, plus ``fb``
for LSTMs. Completed cells are ranked by final test loss (diverged or empty
cells last, ties broken by the cell's axis values in the order lr, gc, fb),
and the summary JSON's bytes are independent of worker count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import json
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .ndcore import DivergenceError, make_rng
from .network import (
    CellParams,
    HeadParams,
    ModelSpec,
    backward,
    forward,
    init_params,
    param_vector,
    score,
)
from .optim import TrainConfig, clip_gradients, sgd_step

EVAL_CHUNK = 1000

# Grid-search worker state; populated in the parent before forking so cells
# inherit the datasets without per-task pickling. ``processes`` is the number
# of forked workers sharing the cores.
_WORKER_CTX: dict = {}

DEFAULT_LRS = [10.0**-e for e in range(9, 0, -1)]  # 1e-9 ... 1e-1
DEFAULT_CLIPS = [1.0, 10.0, 100.0, 1000.0]
DEFAULT_FORGET_BIASES = [1.0, 4.0, 10.0, 20.0]


@dataclass(frozen=True)
class MetricsRow:
    step: int
    train_loss: float
    test_loss: float
    task_metric: float  # RMSE for regression, top-1 accuracy for classification
    grad_norm: float  # global gradient norm before clipping
    wallclock_s: float

    def as_csv(self) -> str:
        """The row's fields in ``METRICS_HEADER`` order, each as its shortest round-trip repr."""
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRow))


@dataclass
class TrainResult:
    params: CellParams
    head: HeadParams
    history: list[MetricsRow]
    diverged_at: int | None = None  # the update at which the run diverged
    diverged = property(lambda self: self.diverged_at is not None)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid; the forget-bias axis applies to LSTMs only."""

    lrs: tuple[float, ...] = tuple(DEFAULT_LRS)
    clips: tuple[float, ...] = tuple(DEFAULT_CLIPS)
    forget_biases: tuple[float, ...] = tuple(DEFAULT_FORGET_BIASES)

    def __post_init__(self):
        for name, values in (("lrs", self.lrs), ("clips", self.clips), ("forget_biases", self.forget_biases)):
            if len(values) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(not 0 < v < math.inf for v in values):  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {values}")


# each grid axis and the TrainConfig ("cfg") or ModelSpec ("spec") field it sets, in rank order
_AXES = {"lr": ("cfg", "lr"), "gc": ("cfg", "clip"), "fb": ("spec", "forget_bias")}


def enumerate_cells(grid: GridSpec, cell_kind: str) -> list[dict[str, float]]:
    """Cartesian product of the grid axes, lr slowest: one dict of axis values per
    cell, with ``fb`` for LSTMs only."""
    axes = {"lr": grid.lrs, "gc": grid.clips}
    if cell_kind == "lstm":
        axes["fb"] = grid.forget_biases
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


@functools.cache
def _openblas():
    """``(get, set)`` for the thread count of the OpenBLAS in numpy's wheel, or None."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):  # another BLAS, or numpy built from source
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread():
    """Run BLAS on one thread inside the block, then restore the saved count
    (reentrant). Without a handle on OpenBLAS nothing is pinned."""
    get, put = _openblas() or (lambda: None, lambda count: None)
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def eval_threads() -> int:
    """Threads ``evaluate`` scores chunks on: the usable cores, split among the
    forked workers of a ``grid_search``. Without a handle on OpenBLAS, BLAS may
    run on every core, so evaluation stays serial."""
    if _openblas() is None:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cores // _WORKER_CTX.get("processes", 1))


@one_blas_thread()
def evaluate(spec: ModelSpec, params: CellParams, head: HeadParams, test_ds) -> tuple[float, float]:
    """Mean loss over the full test set plus the task metric (RMSE or accuracy).

    Chunks of ``EVAL_CHUNK`` sequences bound the (T, B, D) input block built at
    a time and are the unit of work of the ``eval_threads()`` threads, which
    take them from one iterator that a failing chunk empties; results are
    summed in chunk order (see the module docstring). Each chunk runs
    ``network.score``, which checks targets as ``forward`` does, so a label
    the head cannot score raises. The cell runs on a float32 copy of its
    operand, made once per call, and a chunk whose float32 pass raises
    ``DivergenceError`` is scored again in float64.
    """
    n = len(test_ds)
    with np.errstate(over="ignore"):  # a block past float32's range casts to inf; float64 decides
        params32 = type(params)(params.a.astype(np.float32))  # read-only, shared by the threads
    starts = range(0, n, EVAL_CHUNK)
    scores: list = [None] * len(starts)  # (loss * lanes, hits) or the chunk's exception
    unscored = iter(range(len(starts)))  # read and replaced under ``take``
    take = threading.Lock()

    def score_chunks() -> None:
        nonlocal unscored
        while True:
            with take:
                i = next(unscored, None)
            if i is None:
                return
            try:
                batch = test_ds.batch(np.arange(starts[i], min(starts[i] + EVAL_CHUNK, n)))
                try:
                    scores[i] = score(spec, params32, head, batch)
                except DivergenceError:  # float64 decides: its range reaches OVERFLOW_LIMIT
                    scores[i] = score(spec, params, head, batch)
                del batch  # before the next chunk's is built, so a thread holds one chunk's inputs
            except Exception as exc:  # raised in chunk order below
                scores[i] = exc
                with take:
                    unscored = iter(())
                return

    helpers = [threading.Thread(target=score_chunks) for _ in range(1, min(eval_threads(), len(starts)))]
    for helper in helpers:
        helper.start()
    try:
        score_chunks()
    finally:
        for helper in helpers:
            helper.join()
    loss_sum = 0.0
    correct = 0
    for result in scores:
        if isinstance(result, Exception):
            raise result
        loss_sum += result[0]
        correct += result[1]
    loss = loss_sum / n
    metric = math.sqrt(loss) if spec.head == "regression" else correct / n
    return loss, metric


def _sgd_update(spec: ModelSpec, cfg: TrainConfig, params: CellParams, head: HeadParams, theta, batch):
    """One clipped SGD update of the parameter vector ``theta`` on ``batch``; returns the batch
    loss and the gradient norm before clipping. The tape and the gradients die on return, so the
    next update's forward pass never allocates while this one's tape is alive."""
    loss, _, tape = forward(spec, params, head, batch)
    grads = backward(params, head, tape)
    norm = clip_gradients(grads.vector, cfg.clip)
    sgd_step(theta, grads.vector, cfg.lr)
    return loss, norm


@contextlib.contextmanager
def metrics_csv(path):
    """Write the metrics CSV header to ``path`` and yield an ``on_row`` callback for
    ``train`` that adds one flushed line per row. The file is closed on any exit."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")

        def write_row(row: MetricsRow) -> None:
            fh.write(row.as_csv() + "\n")
            fh.flush()

        yield write_row


@one_blas_thread()
def train(
    spec: ModelSpec,
    cfg: TrainConfig,
    train_ds,
    test_ds,
    on_row=None,
    timer=time.perf_counter,
) -> TrainResult:
    """Run SGD with clipping for cfg.max_steps minibatch updates.

    Each metrics row is passed to ``on_row``, if given, right after it joins the
    history. On divergence (non-finite loss, activation overflow, or non-finite
    gradients) the run stops early, keeps the metrics gathered so far, and is
    flagged; it never raises.
    """
    rng = make_rng(cfg.seed)
    params, head = init_params(spec, rng)
    theta = param_vector(params, head)
    result = TrainResult(params=params, head=head, history=[])
    n = len(train_ds)
    order = rng.permutation(n)
    cursor = 0
    start_time = timer()
    for step in range(1, cfg.max_steps + 1):
        if cursor >= n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size
        try:
            loss, norm = _sgd_update(spec, cfg, params, head, theta, train_ds.batch(idx))
            if step % cfg.eval_every != 0 and step != cfg.max_steps:
                continue
            test_loss, metric = evaluate(spec, params, head, test_ds)
        except DivergenceError:
            result.diverged_at = step
            break
        row = MetricsRow(
            step=step,
            train_loss=loss,
            test_loss=test_loss,
            task_metric=metric,
            grad_norm=norm,
            wallclock_s=timer() - start_time,
        )
        result.history.append(row)
        if on_row is not None:
            on_row(row)
    return result


def _run_cell(cell_index: int) -> dict:
    ctx = _WORKER_CTX
    cell = ctx["cells"][cell_index]
    cell_seed = ctx["budget"].seed + cell_index
    fields = {"cfg": {"seed": cell_seed}, "spec": {}}
    for axis, value in cell.items():
        target, name = _AXES[axis]
        fields[target][name] = value
    cell_spec = replace(ctx["spec"], **fields["spec"])
    cfg = replace(ctx["budget"], **fields["cfg"])
    metrics_name = f"cell_{cell_index:03d}.csv"
    with metrics_csv(ctx["out_dir"] / metrics_name) as write_row:
        result = train(cell_spec, cfg, ctx["train_ds"], ctx["test_ds"], on_row=write_row)
    last = None if result.diverged or not result.history else result.history[-1]
    return {**cell, "final_test_loss": last and last.test_loss, "task_metric": last and last.task_metric,
            "diverged": result.diverged, "metrics_path": metrics_name, "seed": cell_seed}


def _rank_key(row: dict):
    """Completed cells by final test loss, then diverged or empty ones; ties by the cell's axis values."""
    loss = row["final_test_loss"]
    unranked = row["diverged"] or loss is None
    return (unranked, math.inf if unranked else loss, *(row[axis] for axis in _AXES if axis in row))


def grid_search(
    spec: ModelSpec,
    grid: GridSpec,
    budget: TrainConfig,
    train_ds,
    test_ds,
    out_dir,
    workers: int = 1,
) -> list[dict]:
    """Train one cell per grid point and rank the outcomes.

    Writes one metrics CSV per cell plus ``summary.json`` (ranked); returns
    the ranked summary rows. Cell seeds are ``budget.seed + cell_index`` so
    results do not depend on scheduling or worker count.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = enumerate_cells(grid, spec.cell)
    _WORKER_CTX.update(
        spec=spec, budget=budget, cells=cells, train_ds=train_ds, test_ds=test_ds, out_dir=out_dir
    )
    try:
        if workers > 1:
            # the fork context starts every worker at once, so start no more than there are cells
            _WORKER_CTX["processes"] = processes = min(workers, len(cells))
            with ProcessPoolExecutor(max_workers=processes, mp_context=multiprocessing.get_context("fork")) as pool:
                rows = list(pool.map(_run_cell, range(len(cells))))
        else:
            rows = [_run_cell(i) for i in range(len(cells))]
    finally:
        _WORKER_CTX.clear()
    ranked = sorted(rows, key=_rank_key)
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(ranked, fh, indent=2)
        fh.write("\n")
    return ranked
