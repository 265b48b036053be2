import contextlib
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from irnnlab import (
    GridSpec,
    HeadParams,
    InitScheme,
    ModelSpec,
    RnnParams,
    TrainConfig,
    backward,
    baseline_mse,
    evaluate,
    forward,
    gen_adding,
    grid_search,
    init_params,
    make_rng,
    param_blocks,
    train,
)
from conftest import blas_threads_env, peak_traced_bytes
from irnnlab import harness
from irnnlab.harness import METRICS_HEADER, MetricsRow, enumerate_cells, metrics_csv
from irnnlab.ndcore import DivergenceError
from irnnlab.network import param_vector, score
from irnnlab.tasks import PixelSequenceDataset

ADDING_SPEC = ModelSpec(cell="rnn", hidden=12, input_dim=2, head="regression",
                        activation="relu", init=InitScheme("identity"))


def fixed_timer():
    return 0.0


# A 30-update relu IRNN at T=50, B=128, H=100 with the timer pinned; writes metrics.csv to argv[1].
TRAIN_T50_B128 = """
import sys
from irnnlab import InitScheme, ModelSpec, TrainConfig, gen_adding, make_rng, train
from irnnlab.harness import metrics_csv
rng = make_rng(0)
train_ds, test_ds = gen_adding(50, 4000, rng), gen_adding(50, 500, rng)
spec = ModelSpec(cell="rnn", hidden=100, input_dim=2, head="regression", activation="relu",
                 init=InitScheme("identity"))
cfg = TrainConfig(lr=0.01, clip=1.0, max_steps=30, eval_every=10, batch_size=128, seed=1)
with metrics_csv(sys.argv[1]) as write_row:
    train(spec, cfg, train_ds, test_ds, on_row=write_row, timer=lambda: 0.0)
"""


class BlasSpy:
    """Stands in for the OpenBLAS thread-count handle: reports the count last set."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


def stand_in_blas(monkeypatch, count):
    """Makes ``harness`` find a stand-in OpenBLAS at ``count`` threads, or none for count 0."""
    spy = BlasSpy(count)
    monkeypatch.setattr(harness, "_openblas", lambda: (spy.get, spy.set) if count else None)


@pytest.fixture
def force_eval_threads(monkeypatch):
    """``force(k)`` makes ``eval_threads()`` return k on any host: k usable cores, and a
    stand-in handle where numpy's OpenBLAS is not found."""
    if harness._openblas() is None:
        stand_in_blas(monkeypatch, 1)

    def force(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        assert harness.eval_threads() == k

    return force


@pytest.fixture
def eval_chunk(monkeypatch):
    """``use(n)`` makes ``evaluate`` score chunks of n sequences."""
    return lambda n: monkeypatch.setattr(harness, "EVAL_CHUNK", n)


@pytest.fixture
def blas(monkeypatch):
    """``(get, set)`` of the thread count ``harness`` pins, set to 2 for the test and
    restored after it: numpy's OpenBLAS where found, a stand-in elsewhere."""
    if harness._openblas() is None:
        stand_in_blas(monkeypatch, 2)
    get, put = harness._openblas()
    before = get()
    put(2)
    yield get, put
    put(before)


class CountLog:
    """A dataset wrapper that records the BLAS thread count at every batch and
    raises at batch ``fail_at``."""

    def __init__(self, ds, get, fail_at=None):
        self.ds = ds
        self.get = get
        self.fail_at = fail_at
        self.counts = []

    def __len__(self):
        return len(self.ds)

    def batch(self, idx):
        self.counts.append(self.get())
        if len(self.counts) == self.fail_at:
            raise RuntimeError("batch failed")
        return self.ds.batch(idx)


class ThreadSpy:
    """A dataset wrapper whose first batch on each thread waits until ``threads`` threads
    have each taken a chunk, so the test fails (after the timeout) unless they run concurrently."""

    def __init__(self, ds, threads):
        self.ds = ds
        self.barrier = threading.Barrier(threads, timeout=20)
        self.threads = set()

    def __len__(self):
        return len(self.ds)

    def batch(self, idx):
        if threading.get_ident() not in self.threads:
            self.threads.add(threading.get_ident())
            self.barrier.wait()
        return self.ds.batch(idx)


class ChunkLog:
    """A dataset wrapper that records the first sequence of every batch taken, holds
    each of the first ``threads`` batches until all of them are taken, so every thread
    has a chunk before chunk 0 can fail, and delays each batch without sequence 0, so
    the chunk-0 thread finishes first."""

    def __init__(self, ds, threads):
        self.ds = ds
        self.threads = threads
        self.barrier = threading.Barrier(threads, timeout=20)
        self.taken = []

    def __len__(self):
        return len(self.ds)

    def batch(self, idx):
        self.taken.append(int(idx[0]))
        if len(self.taken) <= self.threads:
            self.barrier.wait()
        if idx[0] != 0:
            time.sleep(0.5)
        return self.ds.batch(idx)


class ThreadLog:
    """Stands in for the ``threading`` module inside ``harness``: each thread
    started is recorded as a file named after the starting process's id."""

    Lock = threading.Lock

    def __init__(self, directory):
        log_dir = directory

        class Thread(threading.Thread):
            def start(self):
                (log_dir / f"{os.getpid()}-{id(self)}").touch()
                super().start()

        self.Thread = Thread
        self.dir = directory

    def starters(self):
        return [int(f.name.split("-")[0]) for f in self.dir.iterdir()]


class SlowChunk:
    """A dataset wrapper that delays the batch holding sequence ``index``, so later chunks finish first."""

    def __init__(self, ds, index):
        self.ds = ds
        self.index = index

    def __len__(self):
        return len(self.ds)

    def batch(self, idx):
        if self.index in idx:
            time.sleep(0.2)
        return self.ds.batch(idx)


def multi_chunk_case(cell, head):
    """A model and a 2500-sequence test set: chunks of 1000, 1000 and 500."""
    rng = make_rng(41)
    init = InitScheme("gauss", 0.5) if cell == "rnn" else InitScheme("baseline")
    if head == "regression":
        spec = ModelSpec(cell=cell, hidden=10, input_dim=2, head="regression", activation="relu",
                         init=init, input_init_std=0.5)
        ds = gen_adding(8, 2500, rng)
    else:
        spec = ModelSpec(cell=cell, hidden=10, input_dim=1, head="softmax", classes=4,
                         activation="tanh" if cell == "rnn" else "relu", init=init, input_init_std=0.5)
        ds = PixelSequenceDataset(floats=rng.uniform(size=(2500, 9)), labels=rng.integers(0, 4, size=2500))
    params, head_params = init_params(spec, rng)
    return spec, params, head_params, ds


U32 = 2.0**-24  # float32 unit roundoff
# numpy's own accuracy tests hold its float32 exp and tanh to 3 ulp, and an ulp of y is at
# most 2 * U32 * |y|: their relative error
FN_ERR = 3 * 2 * U32


def float32_score_bound(spec, params, head, batch):
    """A bound on |score with the float32 cell - score with the float64 cell| for one batch,
    and a bound on the lanes whose predicted class the float32 cell can change.

    First-order forward error analysis of the float32 recurrence, walking the float64 tape,
    with e_t bounding the error of h_t (elementwise, per lane) and e_0 = 0:
    - casting A and the inputs to float32 moves each entry by at most U32 relative;
    - a float32 dot product of n = H+D+1 terms errs by at most gamma_n = n U32 / (1 - n U32)
      times the sum of its absolute terms (Higham, Accuracy and Stability of Numerical
      Algorithms, 3.1), in any summation order and with or without FMA;
    so the pre-activations err by at most dz = |W| e_{t-1} + (2 U32 + gamma_n) |A| |s_t|.
    - RNN: relu and the identity round nothing and are 1-Lipschitz, so e_t = dz; tanh adds
      FN_ERR and has slope 1 - h**2: e_t = (1 - h**2) dz + FN_ERR |h|.
    - LSTM: a logistic gate 1 / (1 + exp(-z)) has slope s (1 - s) and relative rounding
      FN_ERR + 2 U32 (exp, then the sum and the reciprocal); g = tanh has slope 1 - g**2 and
      FN_ERR; the products and the sum of c_t = f c_{t-1} + i g round by 2 U32 of
      |f c_{t-1}| + |i g|; tanh(c_t) as g; and h_t = o tanh(c_t) rounds by U32 |h_t|.
    The head and the loss run in float64 on h_T; the logits err by at most |U| e_T. A
    squared residual r**2 then errs by 2 |r| dr + dr**2, and a cross-entropy term by at most
    2 max_k dl_k, since its gradient in the logits, p - onehot, has 1-norm at most 2; and a
    lane's argmax can move only if its top two logits lie within 2 max_k dl_k.
    The analysis drops terms smaller by a factor of order n T U32 (below 1e-3 here) and reads
    |s_t| off the float64 states, so the bound is doubled to cover both. ``score``'s float64
    rounding, about 2**-53 relative per operation, is left to the caller.
    """
    u, h = U32, spec.hidden
    a = np.abs(params.a)
    n = a.shape[1]
    grow = 2 * u + n * u / (1 - n * u)
    _, _, tape = forward(spec, params, head, batch)
    cell = tape.cell
    e = np.zeros((h, batch.size))
    de_c = np.zeros_like(e)
    for t in range(len(cell.s) - 1):
        s_t = cell.s[t]
        dz = a[:, :h] @ e + grow * (a @ np.abs(s_t))
        h_t = cell.s[t + 1, :h]
        if spec.cell == "rnn":
            e = (1 - h_t**2) * dz + FN_ERR * np.abs(h_t) if spec.activation == "tanh" else dz
            continue
        z = cell.z[t]
        i, f, o, g = z[:h], z[h : 2 * h], z[2 * h : 3 * h], z[3 * h :]
        di, df, do = (gate * (1 - gate) * dz[k * h : (k + 1) * h] + (FN_ERR + 2 * u) * gate
                      for k, gate in enumerate((i, f, o)))
        dg = (1 - g**2) * dz[3 * h :] + FN_ERR * np.abs(g)
        c_prev, tc = cell.c[t], cell.tc[t]
        de_c = (f * de_c + np.abs(c_prev) * df + i * dg + np.abs(g) * di
                + 2 * u * (f * np.abs(c_prev) + i * np.abs(g)))
        e = o * ((1 - tc**2) * de_c + FN_ERR * np.abs(tc)) + np.abs(tc) * do + u * np.abs(h_t)
    dl = np.abs(head.U) @ e  # (K, B)
    logits = tape.h_last @ head.U.T + head.c
    if spec.head == "regression":
        r = np.abs(logits[:, 0] - batch.targets)
        return 2 * float(np.sum(2 * r * dl[0] + dl[0] ** 2)), 0
    worst = dl.max(axis=0)
    top2 = np.sort(logits, axis=1)[:, -2:]
    return 2 * float(np.sum(2 * worst)), int(np.sum(top2[:, 1] - top2[:, 0] <= 2 * 2 * worst))


class TestFloat32Evaluation:
    """``evaluate`` runs the cell in float32: it must stay within float32's rounding of the float64
    ``score`` summed over chunks."""

    @pytest.mark.parametrize("head_kind", ["regression", "softmax"])
    @pytest.mark.parametrize("cell,activation", [("rnn", "relu"), ("rnn", "tanh"), ("rnn", "linear"),
                                                 ("lstm", "relu")])
    def test_agrees_with_float64_score(self, cell, activation, head_kind, eval_chunk):
        # three chunks; recurrent weights small enough (or the identity) that |W| e_t, and with
        # it the elementwise bound, does not grow geometrically over the 30 steps
        rng = make_rng(46)
        t_steps, n, chunk = 30, 250, 100
        init = {"relu": InitScheme("identity"), "tanh": InitScheme("gauss", 0.1),
                "linear": InitScheme("gauss", 0.1)}[activation] if cell == "rnn" else InitScheme("baseline")
        spec = ModelSpec(cell=cell, hidden=8, input_dim=2 if head_kind == "regression" else 1, head=head_kind,
                         classes=5 if head_kind == "softmax" else 0, activation=activation, init=init,
                         input_init_std=0.3 if cell == "rnn" else 0.1)
        if head_kind == "regression":
            ds = gen_adding(t_steps, n, rng)
        else:
            ds = PixelSequenceDataset(floats=rng.uniform(size=(n, t_steps)), labels=rng.integers(0, 5, size=n))
        params, head = init_params(spec, rng)
        loss_sum, hits, bound, flippable = 0.0, 0, 0.0, 0
        for start in range(0, n, chunk):
            batch = ds.batch(np.arange(start, min(start + chunk, n)))
            chunk_loss, chunk_hits = score(spec, params, head, batch)
            chunk_bound, chunk_flippable = float32_score_bound(spec, params, head, batch)
            loss_sum, hits = loss_sum + chunk_loss, hits + chunk_hits
            bound, flippable = bound + chunk_bound, flippable + chunk_flippable
        eval_chunk(chunk)
        loss, metric = evaluate(spec, params, head, ds)
        assert bound > 0 and 0 < loss_sum < math.inf
        # 1e-12 relative covers the float64 sums, means and logs on both sides
        assert abs(loss * n - loss_sum) <= bound + 1e-12 * loss_sum
        if head_kind == "softmax":
            assert abs(round(metric * n) - hits) <= flippable


class TestEvaluate:
    def test_perfect_predictor(self):
        # linear cell wired so the prediction reproduces a single-step target
        spec = ModelSpec(cell="rnn", hidden=1, input_dim=2, head="regression",
                         activation="linear", init=InitScheme("identity"))
        params = RnnParams.from_blocks(W=np.eye(1), V=np.array([[1.0, 0.0]]), b=np.zeros(1))
        head = HeadParams(U=np.ones((1, 1)), c=np.zeros(1))
        ds = gen_adding(2, 50, make_rng(0))
        ds.signal[:, 1] = 0.0  # only step 0 carries signal; T=2 mask is all ones
        ds.target[:] = ds.signal[:, 0]
        assert score(spec, params, head, ds.batch(np.arange(50))) == (0.0, 0)  # float64: exact
        # evaluate's float32 pass rounds each input x in [0, 1) once, to within u * x with
        # u = 2**-24, and W = U = 1 carry it on exactly; so each residual is below u, its
        # float64 square at most u**2, and so are their mean and the mean's square root u
        loss, rmse = evaluate(spec, params, head, ds)
        assert loss <= U32**2
        assert rmse <= U32

    def test_constant_one_predictor_matches_baseline(self):
        spec = ModelSpec(cell="rnn", hidden=2, input_dim=2, head="regression",
                         activation="relu", init=InitScheme("identity"))
        params = RnnParams.from_blocks(W=np.eye(2), V=np.zeros((2, 2)), b=np.zeros(2))
        head = HeadParams(U=np.zeros((1, 2)), c=np.array([1.0]))
        ds = gen_adding(10, 2000, make_rng(1))
        loss, _ = evaluate(spec, params, head, ds)
        assert loss == pytest.approx(baseline_mse(ds), rel=1e-12)

    def test_fixed_class_predictor_accuracy_near_chance(self):
        # all-zero logits predict class 0; labels are uniform over 10 classes
        rng = make_rng(2)
        labels = rng.integers(0, 10, size=10_000).astype(np.int64)

        class FakeDs:
            def __len__(self):
                return len(labels)

            def batch(self, idx):
                from irnnlab import SequenceBatch
                return SequenceBatch(inputs=np.zeros((3, len(idx), 1)), targets=labels[idx])

        spec = ModelSpec(cell="rnn", hidden=2, input_dim=1, head="softmax", classes=10,
                         activation="relu", init=InitScheme("identity"))
        params = RnnParams.from_blocks(W=np.eye(2), V=np.zeros((2, 1)), b=np.zeros(2))
        head = HeadParams(U=np.zeros((10, 2)), c=np.zeros(10))
        _, accuracy = evaluate(spec, params, head, FakeDs())
        assert accuracy == pytest.approx(0.1, abs=0.02)

    def test_label_the_head_cannot_score_raises_value_error(self, eval_chunk):
        # a 4-class head and a label of 4 in the second chunk: checked like ``forward``,
        # not an IndexError from the loss
        spec, params, head, ds = multi_chunk_case("rnn", "softmax")
        ds.labels[1200] = 4
        eval_chunk(1000)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
            evaluate(spec, params, head, ds)

    def test_chunking_does_not_change_result(self, tiny_adding, eval_chunk):
        train_ds, test_ds = tiny_adding
        params, head = init_params(ADDING_SPEC, make_rng(3))
        eval_chunk(128)
        a = evaluate(ADDING_SPEC, params, head, test_ds)
        eval_chunk(37)
        b = evaluate(ADDING_SPEC, params, head, test_ds)
        assert a[0] == pytest.approx(b[0], rel=1e-12)

    @pytest.mark.parametrize("head", ["regression", "softmax"])
    @pytest.mark.parametrize("cell", ["rnn", "lstm"])
    def test_thread_count_does_not_change_result(self, cell, head, force_eval_threads, eval_chunk):
        spec, params, head_params, ds = multi_chunk_case(cell, head)
        eval_chunk(1000)
        results = {}
        for k in (1, 2, 3):
            force_eval_threads(k)
            spy = ThreadSpy(ds, k)
            results[k] = evaluate(spec, params, head_params, spy)
            assert len(spy.threads) == k  # the caller plus k-1 helpers each scored a chunk
        assert results[2] == results[1] and results[3] == results[1]

    def test_scoring_leaves_parameters_untouched(self, force_eval_threads, eval_chunk):
        # the LSTM negates its i|f|o rows for its GEMM; that must happen on a copy, since
        # concurrent evaluation threads read the same parameter vector
        spec, params, head, ds = multi_chunk_case("lstm", "regression")
        theta = param_vector(params, head)
        before = theta.tobytes()
        batch = ds.batch(np.arange(20))
        forward(spec, params, head, batch)
        score(spec, params, head, batch)
        force_eval_threads(2)
        eval_chunk(1000)
        spy = ThreadSpy(ds, 2)
        evaluate(spec, params, head, spy)
        assert len(spy.threads) == 2
        assert theta.tobytes() == before

    def test_more_threads_than_cores_under_fast_switching(self, force_eval_threads, eval_chunk):
        # 8 threads share 250 chunk slots while the interpreter switches every microsecond;
        # a lost or misplaced chunk result would change the sum
        spec, params, head, ds = multi_chunk_case("rnn", "regression")
        force_eval_threads(1)
        eval_chunk(10)
        serial = evaluate(spec, params, head, ds)
        force_eval_threads(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = evaluate(spec, params, head, ds)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_divergence_names_lowest_failing_chunk(self, threads, force_eval_threads, eval_chunk):
        # chunk 1 fails at step 5, chunk 2 at step 3; chunk 1 is delayed, so with 2 or 3
        # threads chunk 2 fails first on another thread, but the serial loop stops at
        # chunk 1, so step 5 is reported
        ds = gen_adding(8, 2500, make_rng(42))
        ds.signal[1500, 5] = np.nan
        ds.signal[2100, 3] = np.nan
        params, head = init_params(ADDING_SPEC, make_rng(43))
        force_eval_threads(threads)
        eval_chunk(1000)
        with pytest.raises(DivergenceError, match=r"at step 5$"):
            evaluate(ADDING_SPEC, params, head, SlowChunk(ds, 1500))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_no_chunk_handed_out_after_failure(self, threads, force_eval_threads, eval_chunk):
        # chunk 0 fails at once while the other threads score their first chunk; none of
        # the chunks after it can be summed, so no thread may take another one
        ds = gen_adding(8, 10_000, make_rng(44))
        ds.signal[0, 1] = np.nan
        params, head = init_params(ADDING_SPEC, make_rng(45))
        force_eval_threads(threads)
        eval_chunk(1000)
        log = ChunkLog(ds, threads)
        with pytest.raises(DivergenceError, match=r"at step 1$"):
            evaluate(ADDING_SPEC, params, head, log)
        assert sorted(log.taken) == [1000 * i for i in range(threads)]

    def test_helper_threads_are_joined(self, force_eval_threads, eval_chunk):
        # grid_search forks after evaluate has run, so no helper may outlive it
        spec, params, head, ds = multi_chunk_case("rnn", "regression")
        force_eval_threads(3)
        eval_chunk(1000)
        before = threading.active_count()
        evaluate(spec, params, head, ds)
        assert threading.active_count() == before
        ds.signal[1500, 5] = np.nan
        with pytest.raises(DivergenceError):
            evaluate(spec, params, head, ds)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "env,cores,blas,expected",
        [
            ({}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, 3, "scipy-openblas", 3),
            ({"OPENBLAS_NUM_THREADS": "2"}, 5, "openblas", 5),
            ({"OPENBLAS_NUM_THREADS": "4"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": " 1"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "abc"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "0"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "-1"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, "scipy-openblas", 2),
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, "scipy-openblas", 2),
            ({"OMP_NUM_THREADS": "1"}, 2, "scipy-openblas", 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, "accelerate", 1),  # not OpenBLAS: serial
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, "", 1),  # BLAS unknown: serial
        ],
    )
    def test_thread_count_rule(self, env, cores, blas, expected, monkeypatch):
        # one thread per core when the OpenBLAS handle is found, whatever the variables say
        stand_in_blas(monkeypatch, 2 if "openblas" in blas else 0)
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        assert harness.eval_threads() == expected

    @pytest.mark.parametrize("blas_threads,env,expected", [(0, "1", 1), (1, None, 2), (2, "1", 2), (1, "2", 2)])
    def test_environment_is_read_once(self, blas_threads, env, expected, monkeypatch):
        # OpenBLAS reads the variables once, at start-up: changing one at run time changes
        # neither the thread rule nor the count BLAS runs on inside evaluate
        stand_in_blas(monkeypatch, blas_threads)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", env)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
        assert harness.eval_threads() == expected
        if blas_threads:
            spec, params, head, ds = multi_chunk_case("rnn", "regression")
            get = harness._openblas()[0]
            log = CountLog(ds, get)
            evaluate(spec, params, head, log)
            assert set(log.counts) == {1} and get() == blas_threads

    @pytest.mark.parametrize(
        "cores,blas_threads,processes,expected",
        [(2, 1, 2, 1), (4, 1, 2, 2), (8, 2, 2, 4), (8, 1, 3, 2), (2, 1, 4, 1), (4, 0, 2, 1)],
    )
    def test_grid_workers_split_cores(self, cores, blas_threads, processes, expected, monkeypatch):
        # blas_threads is the count before the call; 0 means no OpenBLAS handle
        stand_in_blas(monkeypatch, blas_threads)
        monkeypatch.setitem(harness._WORKER_CTX, "processes", processes)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        assert harness.eval_threads() == expected


class TestBlasPin:
    @pytest.mark.parametrize("fail_at", [None, 25])
    def test_train_runs_on_one_thread_and_restores_count(self, fail_at, blas, tiny_adding):
        # train nests evaluate at every tenth update; the updates after it must still run
        # on one thread, and the caller's count comes back also when a batch raises
        get, _ = blas
        train_ds, test_ds = tiny_adding
        train_log, test_log = CountLog(train_ds, get, fail_at), CountLog(test_ds, get)
        cfg = TrainConfig(lr=0.05, clip=1.0, max_steps=30, eval_every=10, seed=3)
        with pytest.raises(RuntimeError) if fail_at else contextlib.nullcontext():
            train(ADDING_SPEC, cfg, train_log, test_log)
        assert len(train_log.counts) == (fail_at or 30) and test_log.counts
        assert set(train_log.counts + test_log.counts) == {1}
        assert get() == 2

    @pytest.mark.parametrize("diverges", [False, True])
    def test_evaluate_runs_on_one_thread_and_restores_count(self, diverges, blas, tiny_adding, eval_chunk):
        get, _ = blas
        _, test_ds = tiny_adding
        if diverges:
            test_ds.signal[40, 3] = np.nan
        params, head = init_params(ADDING_SPEC, make_rng(3))
        log = CountLog(test_ds, get)
        eval_chunk(32)
        with pytest.raises(DivergenceError) if diverges else contextlib.nullcontext():
            evaluate(ADDING_SPEC, params, head, log)
        assert log.counts and set(log.counts) == {1}
        assert get() == 2

    def test_nested_block_keeps_outer_pin(self, blas):
        get, _ = blas
        with harness.one_blas_thread():
            with harness.one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2

    def test_without_handle_nothing_is_pinned(self, blas, tiny_adding, monkeypatch):
        # shapes this small run BLAS on one thread anyway, so the results equal the pinned run's
        get, _ = blas
        train_ds, test_ds = tiny_adding
        cfg = TrainConfig(lr=0.05, clip=1.0, max_steps=30, eval_every=10, seed=4)
        params, head = init_params(ADDING_SPEC, make_rng(5))
        pinned_run = train(ADDING_SPEC, cfg, train_ds, test_ds, timer=fixed_timer)
        pinned_eval = evaluate(ADDING_SPEC, params, head, test_ds)
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        assert harness.eval_threads() == 1
        train_log, test_log = CountLog(train_ds, get), CountLog(test_ds, get)
        run = train(ADDING_SPEC, cfg, train_log, test_log, timer=fixed_timer)
        assert evaluate(ADDING_SPEC, params, head, test_log) == pinned_eval
        assert set(train_log.counts + test_log.counts) == {2}  # the setter was never called
        assert run.history == pinned_run.history
        for name, block in param_blocks(pinned_run.params, pinned_run.head).items():
            assert np.array_equal(block, param_blocks(run.params, run.head)[name])


class TestTrain:
    def test_zero_steps_returns_initial_params(self, tiny_adding):
        train_ds, test_ds = tiny_adding
        cfg = TrainConfig(lr=0.1, clip=1.0, max_steps=0, eval_every=10, seed=7)
        result = train(ADDING_SPEC, cfg, train_ds, test_ds)
        assert result.history == []
        fresh, fresh_head = init_params(ADDING_SPEC, make_rng(7))
        for name, block in param_blocks(result.params, result.head).items():
            assert np.array_equal(block, param_blocks(fresh, fresh_head)[name])

    def test_identical_seeds_identical_histories(self, tiny_adding):
        train_ds, test_ds = tiny_adding
        cfg = TrainConfig(lr=0.05, clip=1.0, max_steps=60, eval_every=20, seed=11)
        rows = []
        a = train(ADDING_SPEC, cfg, train_ds, test_ds, on_row=rows.append, timer=fixed_timer)
        b = train(ADDING_SPEC, cfg, train_ds, test_ds, timer=fixed_timer)
        assert a.history == b.history
        # on_row sees each history row once, in order, as the same object
        assert len(rows) == len(a.history) == 3
        assert all(seen is kept for seen, kept in zip(rows, a.history))
        for name, block in param_blocks(a.params, a.head).items():
            assert np.array_equal(block, param_blocks(b.params, b.head)[name])

    def test_grad_norm_is_the_norm_of_the_gradient_vector(self, tiny_adding):
        # at seed 0 the norm summed block by block in block order differs from it in the last bit
        train_ds, test_ds = tiny_adding
        cfg = TrainConfig(lr=0.1, clip=1.0, max_steps=1, seed=0)
        rng = make_rng(cfg.seed)
        params, head = init_params(ADDING_SPEC, rng)
        batch = train_ds.batch(rng.permutation(len(train_ds))[: cfg.batch_size])
        g = backward(params, head, forward(ADDING_SPEC, params, head, batch)[2]).vector
        (row,) = train(ADDING_SPEC, cfg, train_ds, test_ds).history
        assert row.grad_norm == math.sqrt(float(np.dot(g, g)))

    def test_metrics_csv_layout(self, tiny_adding, tmp_path):
        train_ds, test_ds = tiny_adding
        path = tmp_path / "metrics.csv"
        cfg = TrainConfig(lr=0.05, clip=1.0, max_steps=45, eval_every=20, seed=1)
        with metrics_csv(path) as write_row:
            result = train(ADDING_SPEC, cfg, train_ds, test_ds, on_row=write_row, timer=fixed_timer)
        expected = "".join(f"{line}\n" for line in [METRICS_HEADER, *(r.as_csv() for r in result.history)])
        assert path.read_bytes() == expected.encode("ascii")  # LF endings, one line per history row
        steps = [r.step for r in result.history]
        assert steps == [20, 40, 45]  # eval points plus the final step
        assert all(steps[i] < steps[i + 1] for i in range(len(steps) - 1))

    def test_training_beats_baseline_on_easy_task(self):
        rng = make_rng(4)
        train_ds = gen_adding(5, 4096, rng)
        test_ds = gen_adding(5, 512, rng)
        spec = ModelSpec(cell="rnn", hidden=16, input_dim=2, head="regression",
                         activation="relu", init=InitScheme("identity"))
        cfg = TrainConfig(lr=0.1, clip=1.0, max_steps=1500, eval_every=1500, seed=5)
        result = train(spec, cfg, train_ds, test_ds)
        assert not result.diverged
        assert result.history[-1].test_loss < 0.8 * baseline_mse(test_ds)

    def test_training_learns_synthetic_pixel_task(self, synthetic_mnist):
        # end-to-end classification path: brightness-coded labels are learnable
        # from 7x7-pooled pixel sequences
        from irnnlab.tasks import load_mnist, prepare_pixel_sequences

        img_path, lab_path, _, _ = synthetic_mnist
        raw = load_mnist(img_path, lab_path)
        ds = prepare_pixel_sequences(raw, downsample=7)
        spec = ModelSpec(cell="rnn", hidden=20, input_dim=1, head="softmax", classes=10,
                         activation="relu", init=InitScheme("identity"))
        cfg = TrainConfig(lr=0.05, clip=1.0, max_steps=600, eval_every=600, seed=8)
        result = train(spec, cfg, ds, ds)
        assert not result.diverged
        assert result.history[-1].task_metric > 0.5  # far above the 0.1 chance level

    def test_divergence_flagged_with_partial_metrics(self, tiny_adding):
        train_ds, test_ds = tiny_adding
        spec = ModelSpec(cell="rnn", hidden=8, input_dim=2, head="regression",
                         activation="linear", init=InitScheme("gauss", 2.0))
        cfg = TrainConfig(lr=1e6, clip=1e9, max_steps=500, eval_every=1, seed=2)
        rows = []
        result = train(spec, cfg, train_ds, test_ds, on_row=rows.append)
        assert result.diverged
        assert result.diverged_at is not None
        # one row per update before the one that diverged, each also passed to on_row
        assert [r.step for r in result.history] == list(range(1, result.diverged_at))
        assert result.history and all(np.isfinite(r.test_loss) for r in result.history)
        assert len(rows) == len(result.history)
        assert all(seen is kept for seen, kept in zip(rows, result.history))

    def test_epoch_reshuffle_covers_dataset(self):
        # one epoch = len(ds)/batch steps without replacement
        rng = make_rng(6)
        ds = gen_adding(3, 64, rng)
        seen = []

        class Spy:
            def __len__(self):
                return len(ds)

            def batch(self, idx):
                seen.extend(np.asarray(idx).tolist())
                return ds.batch(idx)

        spec = ModelSpec(cell="rnn", hidden=4, input_dim=2, head="regression",
                         activation="relu", init=InitScheme("identity"))
        cfg = TrainConfig(lr=0.01, clip=1.0, max_steps=4, eval_every=100, batch_size=16, seed=9)
        train(spec, cfg, Spy(), ds)
        assert sorted(seen) == list(range(64))  # exactly one full epoch, no repeats


    @pytest.mark.parametrize("cell", ["rnn", "lstm"])
    def test_threaded_metrics_csv_matches_serial(self, cell, tiny_adding, tmp_path, force_eval_threads):
        train_ds, _ = tiny_adding
        spec, _, _, test_ds = multi_chunk_case(cell, "regression")
        cfg = TrainConfig(lr=0.05, clip=1.0, max_steps=20, eval_every=10, seed=12)
        for k in (1, 2):
            force_eval_threads(k)
            with metrics_csv(tmp_path / f"{k}.csv") as write_row:
                train(spec, cfg, train_ds, test_ds, on_row=write_row, timer=fixed_timer)
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()

    @pytest.mark.skipif(harness._openblas() is None, reason="needs the OpenBLAS of numpy's wheel")
    def test_metrics_csv_does_not_depend_on_blas_thread_variable(self, tmp_path):
        # the (100 x 128)(128 x 103) weight-gradient GEMM of this shape differs in its last
        # bits between 1 and 2 OpenBLAS threads, so unpinned runs part after a few updates
        for threads in ("1", "2"):
            subprocess.run([sys.executable, "-c", TRAIN_T50_B128, str(tmp_path / f"{threads}.csv")],
                           env=blas_threads_env(threads), check=True, timeout=300)
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()

    @pytest.mark.parametrize("cell", ["lstm", "rnn"])
    def test_one_tape_alive_at_a_time(self, cell):
        # each update's tape is freed before the next update's forward pass allocates its
        # own, so a run peaks near one tape (two would be alive at once otherwise); an
        # RNN's tape is its (T+1, H+D+1, B) state block alone
        spec = ModelSpec(cell=cell, hidden=50, input_dim=2, head="regression",
                         init=InitScheme("identity" if cell == "rnn" else "baseline"))
        rng = make_rng(3)
        train_ds, test_ds = gen_adding(100, 64, rng), gen_adding(100, 32, rng)
        cfg = TrainConfig(lr=0.01, clip=10.0, max_steps=4, eval_every=4, batch_size=16, seed=1)
        if cell == "lstm":
            taped = forward(spec, *init_params(spec, make_rng(1)), train_ds.batch(np.arange(16))).tape.cell
            tape_bytes = sum(a.nbytes for a in (taped.s, taped.z, taped.c, taped.tc))
            del taped
        else:
            tape_bytes = (100 + 1) * (50 + 2 + 1) * 16 * 8
        result, peak = peak_traced_bytes(lambda: train(spec, cfg, train_ds, test_ds))
        assert not result.diverged and len(result.history) == 1
        assert peak < 1.5 * tape_bytes


class TestGridSearch:
    def test_cell_enumeration_counts(self):
        grid = GridSpec()
        assert len(enumerate_cells(grid, "rnn")) == 36  # 9 lrs x 4 clips
        assert len(enumerate_cells(grid, "lstm")) == 144  # x 4 forget biases
        assert all("fb" not in cell for cell in enumerate_cells(grid, "rnn"))
        # lr slowest, then gc, then fb, each in the grid's own order
        small = GridSpec(lrs=(0.1, 0.01), clips=(5.0,), forget_biases=(4.0, 1.0))
        assert enumerate_cells(small, "lstm") == [
            {"lr": 0.1, "gc": 5.0, "fb": 4.0},
            {"lr": 0.1, "gc": 5.0, "fb": 1.0},
            {"lr": 0.01, "gc": 5.0, "fb": 4.0},
            {"lr": 0.01, "gc": 5.0, "fb": 1.0},
        ]
        assert enumerate_cells(small, "rnn") == [{"lr": 0.1, "gc": 5.0}, {"lr": 0.01, "gc": 5.0}]

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(lrs=())
        with pytest.raises(ValueError):
            GridSpec(clips=(0.0,))

    @pytest.mark.parametrize("axis,value", [("lrs", math.inf), ("clips", math.inf), ("forget_biases", math.inf),
                                            ("lrs", math.nan), ("clips", math.nan), ("forget_biases", math.nan)])
    def test_non_finite_grid_value_rejected_before_any_cell(self, axis, value, tiny_adding, tmp_path):
        # a bad value anywhere in an axis fails before cell 0 trains or writes its CSV
        train_ds, test_ds = tiny_adding
        spec = ModelSpec(cell="lstm", hidden=4, input_dim=2, head="regression")
        budget = TrainConfig(lr=1.0, clip=1.0, max_steps=5, eval_every=5, seed=0)
        axes = {"lrs": (0.01,), "clips": (1.0,), "forget_biases": (1.0,)}
        axes[axis] += (value,)
        with pytest.raises(ValueError, match=f"{axis} must be positive and finite"):
            grid_search(spec, GridSpec(**axes), budget, train_ds, test_ds, tmp_path / "grid")
        assert list(tmp_path.rglob("cell_*.csv")) == []

    def test_single_cell_equivalent_to_train(self, tiny_adding, tmp_path):
        train_ds, test_ds = tiny_adding
        budget = TrainConfig(lr=1.0, clip=1.0, max_steps=40, eval_every=20, seed=31)
        grid = GridSpec(lrs=(0.05,), clips=(1.0,))
        rows = grid_search(ADDING_SPEC, grid, budget, train_ds, test_ds, tmp_path)
        assert len(rows) == 1
        cfg = TrainConfig(lr=0.05, clip=1.0, max_steps=40, eval_every=20, seed=31)
        direct = train(ADDING_SPEC, cfg, train_ds, test_ds)
        assert rows[0]["final_test_loss"] == direct.history[-1].test_loss
        assert rows[0]["seed"] == 31

    def test_ranking_and_summary_fields(self, tiny_adding, tmp_path):
        train_ds, test_ds = tiny_adding
        budget = TrainConfig(lr=1.0, clip=1.0, max_steps=30, eval_every=30, seed=0)
        grid = GridSpec(lrs=(1e-9, 0.05, 1e9 * 0 + 0.5), clips=(1.0, 10.0))
        rows = grid_search(ADDING_SPEC, grid, budget, train_ds, test_ds, tmp_path)
        assert len(rows) == 6
        losses = [r["final_test_loss"] for r in rows if not r["diverged"]]
        assert losses == sorted(losses)
        assert all(not r["diverged"] for r in rows[: len(losses)])  # diverged ranked last
        for row in rows:
            assert {"lr", "gc", "final_test_loss", "task_metric", "diverged", "metrics_path", "seed"} <= set(row)
            assert "fb" not in row  # rnn grid has no forget-bias axis
            assert (tmp_path / row["metrics_path"]).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == rows

    def test_lstm_grid_includes_forget_bias(self, tiny_adding, tmp_path):
        train_ds, test_ds = tiny_adding
        spec = ModelSpec(cell="lstm", hidden=6, input_dim=2, head="regression")
        budget = TrainConfig(lr=1.0, clip=1.0, max_steps=10, eval_every=10, seed=0)
        grid = GridSpec(lrs=(0.05,), clips=(1.0,), forget_biases=(1.0, 4.0))
        rows = grid_search(spec, grid, budget, train_ds, test_ds, tmp_path)
        assert sorted(r["fb"] for r in rows) == [1.0, 4.0]

    @pytest.mark.parametrize("cores,workers,helpers_in", [(2, 1, "parent"), (2, 2, "none"), (4, 2, "workers")])
    def test_forked_workers_split_idle_cores(self, cores, workers, helpers_in, tiny_adding, tmp_path,
                                             force_eval_threads, monkeypatch):
        # two workers on two cores at one BLAS thread each would double the compute
        # threads if each also scored chunks on a helper
        train_ds, _ = tiny_adding
        _, _, _, test_ds = multi_chunk_case("rnn", "regression")
        force_eval_threads(cores)
        (tmp_path / "threads").mkdir()
        log = ThreadLog(tmp_path / "threads")
        monkeypatch.setattr(harness, "threading", log)
        budget = TrainConfig(lr=1.0, clip=1.0, max_steps=10, eval_every=5, seed=5)
        grid = GridSpec(lrs=(0.02, 0.08), clips=(1.0,))
        rows = grid_search(ADDING_SPEC, grid, budget, train_ds, test_ds, tmp_path / "grid", workers=workers)
        assert len(rows) == 2 and not any(r["diverged"] for r in rows)
        starters = log.starters()
        if helpers_in == "none":
            assert starters == []
        elif helpers_in == "parent":
            assert starters and set(starters) == {os.getpid()}
        else:
            assert starters and os.getpid() not in starters

    def test_pool_forks_no_more_workers_than_cells(self, tiny_adding, tmp_path, monkeypatch):
        # the fork context starts every worker the pool is asked for, at once
        asked = []

        class PoolSpy:
            def __init__(self, max_workers, mp_context):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", PoolSpy)
        train_ds, test_ds = tiny_adding
        budget = TrainConfig(lr=1.0, clip=1.0, max_steps=10, eval_every=10, seed=3)
        grid = GridSpec(lrs=(0.02, 0.08), clips=(1.0,))
        rows = grid_search(ADDING_SPEC, grid, budget, train_ds, test_ds, tmp_path, workers=64)
        assert asked == [2] and len(rows) == 2

    def test_worker_count_does_not_change_summary(self, tiny_adding, tmp_path):
        train_ds, test_ds = tiny_adding
        budget = TrainConfig(lr=1.0, clip=1.0, max_steps=30, eval_every=15, seed=3)
        grid = GridSpec(lrs=(0.02, 0.08), clips=(1.0, 10.0))
        grid_search(ADDING_SPEC, grid, budget, train_ds, test_ds, tmp_path / "w1", workers=1)
        grid_search(ADDING_SPEC, grid, budget, train_ds, test_ds, tmp_path / "w2", workers=2)
        assert (tmp_path / "w1" / "summary.json").read_bytes() == (tmp_path / "w2" / "summary.json").read_bytes()


class TestMetricsRow:
    def test_csv_uses_repr_floats(self):
        row = MetricsRow(step=10, train_loss=0.5, test_loss=0.25, task_metric=0.5,
                         grad_norm=1e-9, wallclock_s=1.5)
        assert row.as_csv() == "10,0.5,0.25,0.5,1e-09,1.5"
