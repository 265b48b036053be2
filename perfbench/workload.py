"""Run one benchmark workload in this process and write its result as JSON.

``run.py`` starts this script in a fresh interpreter whose environment
already pins the BLAS thread count, so numpy loads with it. The script
drives the program only through ``irnnlab.tasks``, ``network``, ``optim``
and ``harness``, imported from the ``src`` directory of this checkout.

Phases of a run:

1. inputs: everything is derived from the workload seed; the seed picks
   one of ``VARIANTS`` input sets, each with recorded reference outcomes;
2. set-up, repeated and timed (median reported as ``setup_s``);
3. operations (a training run, an evaluation pass or a grid search),
   repeated while another one fits in ``--seconds``; every outcome is
   compared with the reference;
4. with ``--trace 1``, half the time runs untraced and half runs with
   spans around the program's layer calls, and per-layer metrics are
   derived from the spans.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import irnnlab  # noqa: E402
from irnnlab import harness, network, optim, tasks  # noqa: E402
from irnnlab.init import InitScheme  # noqa: E402

import synth_mnist  # noqa: E402
import tracing  # noqa: E402

VARIANTS = 16
REFERENCE_PATH = HERE / "reference.json"

# Outcomes may differ from the reference by reordered floating-point sums
# (whole-sequence kernels, other BLAS blockings), amplified over the SGD
# updates of a run; structure (steps, ranks of divergence) must match exactly.
LOSS_RTOL = 1e-5
ACCURACY_ATOL = 1e-3

SIZES = {
    "full": dict(t=150, n_train=10_000, n_test=10_000, hidden=100, batch=16, steps=200,
                 eval_every=200, mnist_train=60_000, mnist_test=10_000, grid_test=1_000),
    "tiny": dict(t=20, n_train=512, n_test=256, hidden=16, batch=16, steps=20,
                 eval_every=10, mnist_train=600, mnist_test=200, grid_test=128),
}


def _rng(variant: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([variant, stream]))


# --------------------------------------------------------------------------
# Workloads


@dataclass
class State:
    spec: network.ModelSpec
    test_ds: object
    train_ds: object = None
    cfg: optim.TrainConfig | None = None
    params: object = None
    head: object = None
    out_dir: Path | None = None  # grid output, inside the run's scratch directory


class Workload:
    """One workload: ``inputs`` (untimed), ``setup`` (timed), then repeated ``op`` calls."""

    def inputs(self, work: Path, variant: int, size: dict) -> None:
        """Write input files the program reads during set-up."""

    def warm(self, st: State) -> None:
        """A small call before timing, so lazy first-call costs stay out of the operations."""


class AddingTrain(Workload):
    """``harness.train`` on the adding problem (relu IRNN or LSTM)."""

    def __init__(self, cell: str):
        self.cell = cell

    def spec(self, size: dict) -> network.ModelSpec:
        if self.cell == "lstm":
            return network.ModelSpec(cell="lstm", hidden=size["hidden"], input_dim=2, head="regression")
        return network.ModelSpec(cell="rnn", hidden=size["hidden"], input_dim=2, head="regression",
                                 activation="relu", init=InitScheme("identity"))

    def setup(self, work: Path, variant: int, size: dict, tr: tracing.Tracer) -> State:
        train_ds, test_ds = _adding_data(tr, work, variant, size["t"], size["n_train"], size["n_test"])
        spec = self.spec(size)
        cfg = optim.TrainConfig(lr=0.01, clip=10.0, max_steps=size["steps"], eval_every=size["eval_every"],
                                batch_size=size["batch"], seed=variant)
        with tr.span("network.init"):  # harness.train initialises its own copy from cfg.seed
            network.init_params(spec, np.random.Generator(np.random.PCG64(cfg.seed)))
        return State(spec=spec, test_ds=test_ds, train_ds=train_ds, cfg=cfg)

    def warm(self, st: State) -> None:
        small = tasks.AddingDataset(st.test_ds.signal[:64], st.test_ds.mask[:64], st.test_ds.target[:64])
        harness.train(st.spec, replace(st.cfg, max_steps=2, eval_every=2), st.train_ds, small)

    def op(self, st: State) -> dict:
        res = harness.train(st.spec, st.cfg, st.train_ds, st.test_ds)
        rows = [[r.step, r.train_loss, r.test_loss, r.task_metric, r.grad_norm] for r in res.history]
        return {"diverged": res.diverged, "history": rows}

    def check(self, got: dict, ref: dict) -> list[str]:
        problems = []
        if got["diverged"] != ref["diverged"]:
            problems.append(f"diverged={got['diverged']}, reference {ref['diverged']}")
        if [r[0] for r in got["history"]] != [r[0] for r in ref["history"]]:
            return problems + ["eval steps differ from the reference"]
        for g, r in zip(got["history"], ref["history"]):
            for col, a, b in zip(("train_loss", "test_loss", "rmse", "grad_norm"), g[1:], r[1:]):
                if not math.isclose(a, b, rel_tol=LOSS_RTOL):
                    problems.append(f"step {g[0]} {col} {a!r} vs reference {b!r}")
        return problems

    def sequences(self, st: State) -> int:
        return st.cfg.max_steps * st.cfg.batch_size


class PmnistEval(Workload):
    """Repeated ``harness.evaluate`` passes of a fixed IRNN over pooled, permuted pixel sequences."""

    def inputs(self, work: Path, variant: int, size: dict) -> None:
        synth_mnist.write_idx_set(work / "mnist", size["mnist_train"], size["mnist_test"], seed=variant)

    def setup(self, work: Path, variant: int, size: dict, tr: tracing.Tracer) -> State:
        paths = [work / "mnist" / name for name in synth_mnist.FILE_NAMES]
        with tr.span("tasks.load"):
            train_raw = tasks.load_mnist(paths[0], paths[1])
            test_raw = tasks.load_mnist(paths[2], paths[3])
            perm = tasks.make_permutation(14 * 14, variant)
            train_ds = tasks.prepare_pixel_sequences(train_raw, perm, 14)
            test_ds = tasks.prepare_pixel_sequences(test_raw, perm, 14)
        del train_raw, train_ds  # only the test set is evaluated
        spec = network.ModelSpec(cell="rnn", hidden=size["hidden"], input_dim=1, head="softmax",
                                 classes=10, activation="relu", init=InitScheme("identity"))
        with tr.span("network.init"):
            params, head = network.init_params(spec, _rng(variant, 2))
        return State(spec=spec, test_ds=test_ds, params=params, head=head)

    def warm(self, st: State) -> None:
        small = tasks.PixelSequenceDataset(st.test_ds.floats[:100], st.test_ds.labels[:100])
        harness.evaluate(st.spec, st.params, st.head, small)

    def op(self, st: State) -> dict:
        loss, accuracy = harness.evaluate(st.spec, st.params, st.head, st.test_ds)
        return {"loss": loss, "accuracy": accuracy}

    def check(self, got: dict, ref: dict) -> list[str]:
        problems = []
        if not math.isclose(got["loss"], ref["loss"], rel_tol=LOSS_RTOL):
            problems.append(f"loss {got['loss']!r} vs reference {ref['loss']!r}")
        if abs(got["accuracy"] - ref["accuracy"]) > ACCURACY_ATOL:
            problems.append(f"accuracy {got['accuracy']!r} vs reference {ref['accuracy']!r}")
        return problems

    def sequences(self, st: State) -> int:
        return len(st.test_ds)


class AddingGrid(Workload):
    """``harness.grid_search`` of a tanh RNN over a 2x2 learning-rate x clip grid, two workers."""

    workers = 2
    grid = harness.GridSpec(lrs=(1e-3, 1e-2), clips=(1.0, 100.0))

    def setup(self, work: Path, variant: int, size: dict, tr: tracing.Tracer) -> State:
        train_ds, test_ds = _adding_data(tr, work, variant, size["t"], size["n_train"], size["grid_test"])
        spec = network.ModelSpec(cell="rnn", hidden=size["hidden"], input_dim=2, head="regression",
                                 activation="tanh")
        cfg = optim.TrainConfig(lr=1.0, clip=1.0, max_steps=size["steps"], eval_every=size["eval_every"],
                                batch_size=size["batch"], seed=variant)
        with tr.span("network.init"):
            network.init_params(spec, np.random.Generator(np.random.PCG64(cfg.seed)))
        return State(spec=spec, test_ds=test_ds, train_ds=train_ds, cfg=cfg)

    def op(self, st: State) -> dict:
        out = st.out_dir
        shutil.rmtree(out, ignore_errors=True)
        ranked = harness.grid_search(st.spec, self.grid, st.cfg, st.train_ds, st.test_ds, out,
                                     workers=self.workers)
        written = json.loads((out / "summary.json").read_text(encoding="ascii"))
        busy = [_last_wallclock(out / row["metrics_path"]) for row in ranked]
        cells = [{k: row[k] for k in ("lr", "gc", "final_test_loss", "task_metric", "diverged")}
                 for row in ranked]
        return {"cells": cells, "summary_matches": written == ranked, "busy_s": busy}

    def check(self, got: dict, ref: dict) -> list[str]:
        problems = [] if got["summary_matches"] else ["summary.json differs from the returned ranking"]
        if [(c["lr"], c["gc"]) for c in got["cells"]] != [(c["lr"], c["gc"]) for c in ref["cells"]]:
            problems.append("cell ranking differs from the reference")
        by_key = {(c["lr"], c["gc"]): c for c in ref["cells"]}
        for c in got["cells"]:
            r = by_key.get((c["lr"], c["gc"]))
            if r is None:
                problems.append(f"cell lr={c['lr']} gc={c['gc']} is not in the reference")
                continue
            if c["diverged"] != r["diverged"]:
                problems.append(f"cell lr={c['lr']} gc={c['gc']} diverged={c['diverged']}, reference {r['diverged']}")
            elif not c["diverged"]:
                for col in ("final_test_loss", "task_metric"):
                    if not math.isclose(c[col], r[col], rel_tol=LOSS_RTOL):
                        problems.append(f"cell lr={c['lr']} gc={c['gc']} {col} {c[col]!r} vs reference {r[col]!r}")
        return problems

    def sequences(self, st: State) -> int:
        return len(harness.enumerate_cells(self.grid, st.spec.cell)) * st.cfg.max_steps * st.cfg.batch_size


def _adding_data(tr, work: Path, variant: int, t: int, n_train: int, n_test: int):
    """Generate, save and reload adding data the way ``gen-adding`` then ``train --data`` do."""
    rng = _rng(variant, 1)
    with tr.span("tasks.gen"):
        train_ds = tasks.gen_adding(t, n_train, rng)
        test_ds = tasks.gen_adding(t, n_test, rng)
        tasks.save_adding(train_ds, work / "train.addp")
        tasks.save_adding(test_ds, work / "test.addp")
    with tr.span("tasks.load"):
        return tasks.load_adding(work / "train.addp"), tasks.load_adding(work / "test.addp")


def _last_wallclock(csv_path: Path) -> float:
    lines = csv_path.read_text(encoding="ascii").splitlines()
    return float(lines[-1].rsplit(",", 1)[1]) if len(lines) > 1 else 0.0


WORKLOADS = {
    "adding-irnn-train": AddingTrain("rnn"),
    "adding-lstm-train": AddingTrain("lstm"),
    "pmnist-irnn-eval": PmnistEval(),
    "adding-tanh-grid": AddingGrid(),
}


# --------------------------------------------------------------------------
# Environment record


def _openblas_threads():
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    return int(fn())
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_active": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# Measurement


def _setup_reps(workload, work, variant, size) -> tuple[State, list[float], list[tracing.Tracer]]:
    """Repeat set-up at least five times and for at least one second (at most ten times)."""
    times, tracers, st = [], [], None
    while len(times) < 5 or (sum(times) < 1.0 and len(times) < 10):
        st = None  # release the previous set-up before building the next
        tr = tracing.Tracer()
        start = time.perf_counter()
        st = workload.setup(work, variant, size, tr)
        times.append(time.perf_counter() - start)
        tracers.append(tr)
    return st, times, tracers


def _run_ops(workload, st, seconds: float, ref, tracer=None):
    """Repeat the operation while another one fits in ``seconds`` (at least once).

    Returns (walls, failures, outcomes).
    """
    walls, failures, outcomes = [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin + statistics.median(walls) <= seconds:
        start = time.perf_counter()
        try:
            if tracer is None:
                got = workload.op(st)
            else:
                with tracer.span("op"):
                    got = workload.op(st)
        except Exception as exc:  # an operation that raises counts as failed; keep measuring
            walls.append(time.perf_counter() - start)
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        walls.append(time.perf_counter() - start)
        problems = ["no reference outcome recorded"] if ref is None else workload.check(got, ref)
        if problems:
            failures.append("; ".join(problems[:3]))
        outcomes.append(got)
    return walls, failures, outcomes


def _install_grid_cell_spans(tracer: tracing.Tracer, span_dir: Path) -> None:
    """Wrap ``harness._run_cell`` so each forked worker writes its cell's spans to a file."""
    original = harness._run_cell

    def cell(cell_index):
        first = len(tracer.spans)
        with tracer.span("harness.cell"):
            row = original(cell_index)
        spans = [(n, s, e, p - first if p >= first else -1) for n, s, e, p in tracer.spans[first:]]
        (span_dir / f"cell{cell_index:03d}-{os.getpid()}.json").write_text(json.dumps(spans))
        return row

    cell.__module__, cell.__qualname__ = original.__module__, original.__qualname__
    cell.__wrapped_original__ = original
    harness._run_cell = cell


def _gather_grid_spans(span_dir: Path, base: int) -> list:
    """Spans the grid workers wrote, re-indexed to follow ``base`` spans of this process."""
    spans = []
    for path in sorted(span_dir.glob("cell*.json")):
        offset = base + len(spans)
        for n, s, e, p in json.loads(path.read_text()):
            spans.append((n, s, e, p + offset if p >= 0 else -1))
        path.unlink()
    return spans


def _gemm_seconds(b: int, h: int) -> float:
    """Median time of one (b, h) x (h, h) float64 GEMM, the recurrent product of one cell step."""
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((b, h)), rng.standard_normal((h, h))
    reps, samples = 200, []
    for _ in range(15):
        start = time.perf_counter()
        for _ in range(reps):
            x @ w.T
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def _tape_bytes(tape) -> int:
    """Bytes of the distinct buffers reachable from a forward tape."""
    seen: dict[int, int] = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            root = obj
            while isinstance(root.base, np.ndarray):
                root = root.base
            seen[id(root)] = root.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif hasattr(obj, "__dict__"):
            for value in vars(obj).values():
                visit(value)

    visit(tape)
    return sum(seen.values())


def _per_op_mean(summary, name, ops):
    row = summary.get(name)
    return row["calls"] / ops if row else 0.0


def layer_metrics(workload, st, spans, untraced, traced, setup_tracers, ops_traced) -> tuple[dict, dict]:
    """Per-layer metrics from the traced operations; returns (universal, workload-specific)."""
    summ = tracing.summarize(spans)
    setups = [tracing.summarize(tr.spans) for tr in setup_tracers]
    base_wall = statistics.median(untraced)
    is_grid = isinstance(workload, AddingGrid)
    parallel = workload.workers if is_grid else 1
    op_time = sum(traced) * parallel
    root = "harness.cell" if is_grid else "op"

    def mean(name, scale):
        row = summ.get(name)
        return row["total_s"] / row["calls"] * scale if row else 0.0

    evaluate_total = summ.get("harness.evaluate", {}).get("total_s", 0.0)
    work_time = summ["harness.cell"]["total_s"] if is_grid else op_time
    universal = {
        "tasks.load_s": (statistics.median(s["tasks.load"]["total_s"] for s in setups), "s"),
        "network.init_ms": (statistics.median(s["network.init"]["total_s"] for s in setups) * 1e3, "ms"),
        "tasks.batch_us": (mean("tasks.batch", 1e6), "us"),
        "tasks.batch_calls": (_per_op_mean(summ, "tasks.batch", ops_traced), "count"),
        "harness.evaluate_s": (mean("harness.evaluate", 1.0), "s"),
        "harness.evaluate_calls": (_per_op_mean(summ, "harness.evaluate", ops_traced), "count"),
        "harness.eval_share": (evaluate_total / work_time, "fraction"),
        "trace.coverage": (tracing.top_level_time(spans, root) / (base_wall * ops_traced * parallel), "fraction"),
        "trace.overhead_frac": (statistics.median(traced) / base_wall - 1.0, "fraction"),
    }
    specific: dict = {}
    if "network.forward" in summ:
        spec, cfg = st.spec, st.cfg
        t, b, h, d, k = st.train_ds.steps, cfg.batch_size, spec.hidden, spec.input_dim, spec.head_dim
        gates = 4 if spec.cell == "lstm" else 1
        fwd_flop = 2 * t * gates * b * h * (h + d) + 2 * b * h * k
        bwd_flop = 2 * t * gates * b * h * (2 * h + d) + 4 * b * h * k
        fwd_s = mean("network.forward", 1.0)
        batch = st.train_ds.batch(np.arange(cfg.batch_size))
        params, head = network.init_params(spec, np.random.Generator(np.random.PCG64(0)))
        tape = network.forward(spec, params, head, batch).tape
        specific.update({
            "network.forward_ms": (fwd_s * 1e3, "ms"),
            "network.forward_us_per_step": (fwd_s * 1e6 / t, "us"),
            "network.backward_ms": (mean("network.backward", 1e3), "ms"),
            "network.backward_us_per_step": (mean("network.backward", 1e6) / t, "us"),
            "network.flop_per_update": (fwd_flop + bwd_flop, "flop"),
            "network.forward_gflops": (fwd_flop / fwd_s / 1e9, "GFLOP/s"),
            "network.gemm_share": (t * gates * _gemm_seconds(b, h) / fwd_s, "fraction"),
            "network.tape_mb": (_tape_bytes(tape) / 1e6, "MB"),
            "optim.clip_us": (mean("optim.clip", 1e6), "us"),
            "optim.sgd_us": (mean("optim.sgd", 1e6), "us"),
        })
    specific["self_ms_per_op"] = {name: row["self_s"] * 1e3 / ops_traced for name, row in sorted(summ.items())}
    return universal, specific


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str, work: Path) -> dict:
    workload = WORKLOADS[name]
    size = SIZES[size_name]
    variant = seed % VARIANTS
    refs = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    ref = refs.get(size_name, {}).get(name, {}).get(str(variant))

    workload.inputs(work, variant, size)
    st, setup_times, setup_tracers = _setup_reps(workload, work, variant, size)
    st.out_dir = work / "grid"
    workload.warm(st)

    result: dict = {"workload": name, "seed": seed, "variant": variant, "size": size_name,
                    "environment": environment()}
    if trace:
        untraced, fail_u, _ = _run_ops(workload, st, seconds / 2, ref)
        tracer = tracing.Tracer()
        span_dir = work / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        datasets = [ds for ds in (st.train_ds, st.test_ds) if ds is not None]
        tracing.install(tracer, harness, datasets)
        if isinstance(workload, AddingGrid):
            _install_grid_cell_spans(tracer, span_dir)
        try:
            traced, fail_t, outcomes = _run_ops(workload, st, seconds / 2, ref, tracer)
        finally:
            tracing.uninstall(harness, datasets)
            harness._run_cell = getattr(harness._run_cell, "__wrapped_original__", harness._run_cell)
        spans = tracer.spans + _gather_grid_spans(span_dir, len(tracer.spans))
        universal, specific = layer_metrics(workload, st, spans, untraced, traced, setup_tracers, len(traced))
        if isinstance(workload, AddingGrid):
            busy = [b for got in outcomes for b in got["busy_s"]]
            cells = [c for got in outcomes for c in got["cells"]]
            specific["harness.grid_cell_s"] = (statistics.fmean(busy), "s")
            specific["harness.grid_pool_efficiency"] = (sum(busy) / (workload.workers * sum(traced)), "fraction")
            specific["harness.grid_diverged_cells"] = (sum(c["diverged"] for c in cells) / len(traced), "count")
        result.update(walls=untraced + traced, failures=fail_u + fail_t, metrics=universal, detail=specific)
        trace_path = work.parent / "traces" / f"{name}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"spans": spans, "setup_spans": [t.spans for t in setup_tracers]}))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        walls, failures, _ = _run_ops(workload, st, seconds, ref)
        op_s = statistics.median(walls)
        seq = workload.sequences(st)
        peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(walls=walls, failures=failures, metrics={
            "setup_s": (statistics.median(setup_times), "s"),
            "seq_per_s": (seq / op_s, "1/s"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        })
        if isinstance(workload, AddingGrid):
            cells = len(harness.enumerate_cells(workload.grid, st.spec.cell))
            result["named"] = {"grid_cells_per_h": (cells * 3600 / op_s, "1/h")}
        elif isinstance(workload, PmnistEval):
            result["named"] = {"eval_seq_per_s": (seq / op_s, "1/s")}
        else:
            result["named"] = {"train_seq_per_s": (seq / op_s, "1/s")}
    result["setup_times"] = setup_times
    return result


def record(name: str, size_name: str, work: Path) -> dict:
    """Outcome of one operation for every input variant, for ``reference.json``."""
    workload = WORKLOADS[name]
    out = {}
    for variant in range(VARIANTS):
        workload.inputs(work, variant, SIZES[size_name])
        st = workload.setup(work, variant, SIZES[size_name], tracing.Tracer())
        st.out_dir = work / "grid"
        outcome = workload.op(st)
        outcome.pop("busy_s", None)  # timings are not outcomes
        out[str(variant)] = outcome
        print(f"recorded {name} {size_name} variant {variant}", file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--record", action="store_true", help="record one outcome per input variant instead of measuring")
    p.add_argument("--work", required=True, help="scratch directory for this run's files")
    p.add_argument("--out", required=True, help="where to write the result JSON")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(irnnlab.__file__).resolve().parents:
        print(f"irnnlab was imported from {irnnlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            result = record(args.workload, args.size, work)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
