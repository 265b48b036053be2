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

Metrics CSV contract (``metrics_csv`` writes the rows ``train`` passes to
``on_row``): header ``step,train_loss,test_loss,task_metric,grad_norm,
wallclock_s``, one row per eval point, ``.`` decimal separator, LF line
endings. All columns except wallclock_s are bit-reproducible; the wall
clock is injectable (``timer=``) so tests can pin it too.

Grid search runs one training per (lr, gc[, fb]) cell, each with its own
derived seed, ranks completed cells by final test loss (diverged cells
last, ties broken by (lr, gc, fb)), and writes a summary JSON whose bytes
are independent of worker count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
    param_blocks,
    score,
)
from .optim import TrainConfig, clip_gradients, sgd_step

EVAL_CHUNK = 1000

# Grid-search worker state; populated in the parent before forking so cells
# inherit the datasets without per-task pickling. ``processes`` is the number
# of forked workers sharing the cores.
_WORKER_CTX: dict = {}

METRICS_HEADER = "step,train_loss,test_loss,task_metric,grad_norm,wallclock_s"

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
        return (
            f"{self.step},{self.train_loss!r},{self.test_loss!r},"
            f"{self.task_metric!r},{self.grad_norm!r},{self.wallclock_s!r}"
        )


@dataclass
class TrainResult:
    params: CellParams
    head: HeadParams
    history: list[MetricsRow]
    diverged: bool = False
    diverged_at: int | None = None


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


def enumerate_cells(grid: GridSpec, cell_kind: str) -> list[tuple[float, float, float | None]]:
    """Cartesian product of the grid axes; (lr, gc, fb) with fb=None for RNNs."""
    cells = []
    for lr in grid.lrs:
        for gc in grid.clips:
            if cell_kind == "lstm":
                for fb in grid.forget_biases:
                    cells.append((lr, gc, fb))
            else:
                cells.append((lr, gc, None))
    return cells


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
def evaluate(
    spec: ModelSpec, params: CellParams, head: HeadParams, test_ds, chunk: int = EVAL_CHUNK
) -> tuple[float, float]:
    """Mean loss over the full test set plus the task metric (RMSE or accuracy).

    Chunks of ``chunk`` sequences bound the (T, B, D) input block built at a
    time and are the unit of work of the ``eval_threads()`` threads; their
    results are summed in chunk order (see the module docstring). Each
    chunk runs ``network.score``, which checks targets as ``forward`` does,
    so a label the head cannot score raises.
    """
    n = len(test_ds)
    starts = range(0, n, chunk)
    scores: list = [None] * len(starts)  # (loss * lanes, hits) or the chunk's exception
    unscored = iter(range(len(starts)))
    take = threading.Lock()
    failed = False  # set under ``take``: chunks after a failure are never summed, so none is handed out

    def score_chunks() -> None:
        nonlocal failed
        while True:
            with take:
                i = None if failed else next(unscored, None)
            if i is None:
                return
            try:
                idx = np.arange(starts[i], min(starts[i] + chunk, n))
                scores[i] = score(spec, params, head, test_ds.batch(idx))
            except Exception as exc:  # raised in chunk order below
                scores[i] = exc
                with take:
                    failed = True
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


def _sgd_update(spec: ModelSpec, cfg: TrainConfig, params: CellParams, head: HeadParams, blocks, batch):
    """One clipped SGD update of ``blocks`` on ``batch``; returns the batch loss and the
    gradient norm before clipping. The tape and the gradients die on return, so the
    next update's forward pass never allocates while this one's tape is alive."""
    loss, _, tape = forward(spec, params, head, batch)
    grads = backward(spec, params, head, tape).blocks
    _, norm = clip_gradients(grads, cfg.clip)
    sgd_step(blocks, grads, cfg.lr)
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
    blocks = param_blocks(params, head)
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
            loss, norm = _sgd_update(spec, cfg, params, head, blocks, train_ds.batch(idx))
            if step % cfg.eval_every != 0 and step != cfg.max_steps:
                continue
            test_loss, metric = evaluate(spec, params, head, test_ds)
        except DivergenceError:
            result.diverged = True
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
    spec: ModelSpec = ctx["spec"]
    budget: TrainConfig = ctx["budget"]
    lr, gc, fb = ctx["cells"][cell_index]
    cell_seed = budget.seed + cell_index
    cell_spec = spec if fb is None else replace(spec, forget_bias=fb)
    cfg = replace(budget, lr=lr, clip=gc, seed=cell_seed)
    metrics_name = f"cell_{cell_index:03d}.csv"
    with metrics_csv(ctx["out_dir"] / metrics_name) as write_row:
        result = train(cell_spec, cfg, ctx["train_ds"], ctx["test_ds"], on_row=write_row)
    row: dict = {"lr": lr, "gc": gc}
    if fb is not None:
        row["fb"] = fb
    last = None if result.diverged or not result.history else result.history[-1]
    row.update({"final_test_loss": last and last.test_loss, "task_metric": last and last.task_metric,
                "diverged": result.diverged, "metrics_path": metrics_name, "seed": cell_seed})
    return row


def _rank_key(row: dict):
    loss = row["final_test_loss"]
    return (
        1 if row["diverged"] or loss is None else 0,
        loss if loss is not None else math.inf,
        row["lr"],
        row["gc"],
        row.get("fb", -1.0),
    )


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
