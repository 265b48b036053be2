"""Training loop, periodic evaluation, metrics persistence, and grid search.

A run is fully determined by (model spec, train config, dataset): parameter
initialization and epoch shuffling both derive from the config seed, and
minibatches are drawn without replacement, reshuffling each epoch. Every
``eval_every`` updates (and at the final step) the full test set is scored
and one metrics row is emitted.

Metrics CSV contract: header ``step,train_loss,test_loss,task_metric,
grad_norm,wallclock_s``, one row per eval point, ``.`` decimal separator,
LF line endings. All columns except wallclock_s are bit-reproducible; the
wall clock is injectable (``timer=``) so tests can pin it too.

Grid search runs one training per (lr, gc[, fb]) cell, each with its own
derived seed, ranks completed cells by final test loss (diverged cells
last, ties broken by (lr, gc, fb)), and writes a summary JSON whose bytes
are independent of worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
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
    head_loss,
    head_outputs,
    init_params,
    param_blocks,
    _rollout,
)
from .optim import TrainConfig, clip_gradients, sgd_step

EVAL_CHUNK = 1000

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
            if any(not v > 0 for v in values):
                raise ValueError(f"{name} must be positive, got {values}")


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


def evaluate(
    spec: ModelSpec, params: CellParams, head: HeadParams, test_ds, chunk: int = EVAL_CHUNK
) -> tuple[float, float]:
    """Mean loss over the full test set plus the task metric (RMSE or accuracy).

    Chunked so long sequences never materialize a full-dataset tape.
    """
    n = len(test_ds)
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        batch = test_ds.batch(idx)
        h_last, _ = _rollout(spec, params, batch.inputs, keep=False)
        predictions = head_outputs(spec, head, h_last)
        loss_sum += head_loss(spec, predictions, batch.targets) * len(idx)
        if spec.head == "softmax":
            correct += int(np.sum(np.argmax(predictions, axis=1) == batch.targets))
    loss = loss_sum / n
    metric = math.sqrt(loss) if spec.head == "regression" else correct / n
    return loss, metric


class _MetricsWriter:
    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="ascii", newline="\n")
        self._fh.write(METRICS_HEADER + "\n")

    def write(self, row: MetricsRow) -> None:
        self._fh.write(row.as_csv() + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def train(
    spec: ModelSpec,
    cfg: TrainConfig,
    train_ds,
    test_ds,
    metrics_path=None,
    timer=time.perf_counter,
    log=None,
) -> TrainResult:
    """Run SGD with clipping for cfg.max_steps minibatch updates.

    On divergence (non-finite loss, activation overflow, or non-finite
    gradients) the run stops early, keeps the metrics gathered so far, and
    is flagged; it never raises.
    """
    rng = make_rng(cfg.seed)
    params, head = init_params(spec, rng)
    blocks = param_blocks(params, head)
    result = TrainResult(params=params, head=head, history=[])
    writer = _MetricsWriter(metrics_path) if metrics_path is not None else None
    n = len(train_ds)
    order = rng.permutation(n)
    cursor = 0
    start_time = timer()
    try:
        for step in range(1, cfg.max_steps + 1):
            if cursor >= n:
                order = rng.permutation(n)
                cursor = 0
            idx = order[cursor : cursor + cfg.batch_size]
            cursor += cfg.batch_size
            batch = train_ds.batch(idx)
            try:
                loss, _, tape = forward(spec, params, head, batch)
                grads = backward(spec, params, head, tape)
                _, norm = clip_gradients(grads.blocks, cfg.clip)
                sgd_step(blocks, grads.blocks, cfg.lr)
                if step % cfg.eval_every == 0 or step == cfg.max_steps:
                    test_loss, metric = evaluate(spec, params, head, test_ds)
                    row = MetricsRow(
                        step=step,
                        train_loss=loss,
                        test_loss=test_loss,
                        task_metric=metric,
                        grad_norm=norm,
                        wallclock_s=timer() - start_time,
                    )
                    result.history.append(row)
                    if writer is not None:
                        writer.write(row)
                    if log is not None:
                        log(row)
            except DivergenceError:
                result.diverged = True
                result.diverged_at = step
                break
    finally:
        if writer is not None:
            writer.close()
    return result


# Grid-search worker state; populated in the parent before forking so cells
# inherit the datasets without per-task pickling.
_WORKER_CTX: dict = {}


def _run_cell(cell_index: int) -> dict:
    ctx = _WORKER_CTX
    spec: ModelSpec = ctx["spec"]
    budget: TrainConfig = ctx["budget"]
    lr, gc, fb = ctx["cells"][cell_index]
    cell_seed = budget.seed + cell_index
    cell_spec = spec if fb is None else replace(spec, forget_bias=fb)
    cfg = replace(budget, lr=lr, clip=gc, seed=cell_seed)
    metrics_name = f"cell_{cell_index:03d}.csv"
    result = train(
        cell_spec,
        cfg,
        ctx["train_ds"],
        ctx["test_ds"],
        metrics_path=Path(ctx["out_dir"]) / metrics_name,
    )
    row: dict = {"lr": lr, "gc": gc}
    if fb is not None:
        row["fb"] = fb
    if result.diverged or not result.history:
        row.update({"final_test_loss": None, "task_metric": None, "diverged": result.diverged})
    else:
        last = result.history[-1]
        row.update(
            {"final_test_loss": last.test_loss, "task_metric": last.task_metric, "diverged": False}
        )
    row["metrics_path"] = metrics_name
    row["seed"] = cell_seed
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
    log=None,
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
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                rows = list(pool.map(_run_cell, range(len(cells))))
        else:
            rows = []
            for i in range(len(cells)):
                rows.append(_run_cell(i))
                if log is not None:
                    log(rows[-1])
    finally:
        _WORKER_CTX.clear()
    ranked = sorted(rows, key=_rank_key)
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(ranked, fh, indent=2)
        fh.write("\n")
    return ranked
