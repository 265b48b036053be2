"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-4, the criterion-5 smoke variant, 8, and 9 run in the default
tier. The long-budget benchmarks are marked ``slow`` (`pytest -m slow`):
the full criterion-5 cell, the two halves of criterion 6, a long
demonstration run, and criterion 7 (which additionally needs the four real
MNIST IDX files via the IRNNLAB_MNIST_DIR environment variable and is
skipped without them).

Two slow tests encode fixed historical hyperparameter cells with fixed
budgets (criterion 5 full and criterion 6b); measured plateau-escape times
at those cells exceed the stated budgets, so they currently fail and are
deliberately kept as stated (see README "Benchmark status"). The
demonstration test shows the same model solving the task when the
hyperparameters are free.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import irnnlab as il
from irnnlab.cli import main as cli_main
from irnnlab.gradcheck import check_model
from irnnlab.harness import GridSpec, grid_search, metrics_csv
from irnnlab.network import forward
from irnnlab.tasks import ANALYTIC_CONSTANT_BASELINE_MSE, REPORTED_CONSTANT_BASELINE_MSE
from test_floor import affine_floor


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# --- criterion 1: gradient-oracle equivalence -------------------------------

GRADCHECK_CONFIGS = [
    ("relu rnn", il.ModelSpec(cell="rnn", hidden=5, input_dim=2, head="regression", activation="relu"), 1e-4),
    ("tanh rnn", il.ModelSpec(cell="rnn", hidden=5, input_dim=2, head="regression", activation="tanh"), 1e-4),
    ("linear rnn", il.ModelSpec(cell="rnn", hidden=5, input_dim=2, head="regression", activation="linear"), 1e-6),
    ("lstm fb=0", il.ModelSpec(cell="lstm", hidden=5, input_dim=2, head="regression", forget_bias=0.0), 1e-4),
    ("lstm fb=20", il.ModelSpec(cell="lstm", hidden=5, input_dim=2, head="regression", forget_bias=20.0), 1e-4),
    ("relu rnn softmax", il.ModelSpec(cell="rnn", hidden=5, input_dim=2, head="softmax", classes=10, activation="relu"), 1e-4),
    ("tanh rnn softmax", il.ModelSpec(cell="rnn", hidden=5, input_dim=2, head="softmax", classes=10, activation="tanh"), 1e-4),
    ("linear rnn softmax", il.ModelSpec(cell="rnn", hidden=5, input_dim=2, head="softmax", classes=10, activation="linear"), 1e-6),
    ("lstm fb=0 softmax", il.ModelSpec(cell="lstm", hidden=5, input_dim=2, head="softmax", classes=10, forget_bias=0.0), 1e-4),
    ("lstm fb=20 softmax", il.ModelSpec(cell="lstm", hidden=5, input_dim=2, head="softmax", classes=10, forget_bias=20.0), 1e-4),
]


@pytest.mark.parametrize("name,spec,bound", GRADCHECK_CONFIGS, ids=[c[0] for c in GRADCHECK_CONFIGS])
def test_criterion_1_gradient_oracle(name, spec, bound):
    report_data = check_model(spec, trials=20, seed=0)
    assert report_data.max_rel_err < bound, (
        f"{name}: {report_data.max_rel_err:.3e} >= {bound} (worst block {report_data.worst_block()})"
    )
    report("1 (gradient oracle)", f"{name}: max rel err {report_data.max_rel_err:.2e} < {bound:g}")


# --- criterion 2: bag-of-events exactness ------------------------------------


def test_criterion_2_bag_of_events_exact():
    rng = il.make_rng(42)
    h, d, lanes = 100, 2, 4
    for t_steps in (50, 200, 400):
        # dyadic rationals with bounded bit-width: every addition below is exact
        inputs = rng.integers(0, 256, size=(t_steps, lanes, d)) / 256.0
        v = rng.integers(0, 16, size=(h, d)) / 4096.0
        bias = rng.integers(0, 8, size=h) / 4096.0
        spec = il.ModelSpec(cell="rnn", hidden=h, input_dim=d, head="regression",
                            activation="relu", init=il.InitScheme("identity"))
        params = il.RnnParams.from_blocks(W=np.eye(h), V=v, b=bias)
        head = il.HeadParams(U=np.zeros((1, h)), c=np.zeros(1))
        batch = il.SequenceBatch(inputs=inputs, targets=np.zeros(lanes))
        _, _, tape = forward(spec, params, head, batch)
        closed_form = t_steps * bias + inputs.sum(axis=0) @ v.T
        assert np.array_equal(tape.h_last, closed_form), f"closed form differs at T={t_steps}"
        shuffled = inputs[rng.permutation(t_steps)]
        _, _, tape2 = forward(spec, params, head,
                              il.SequenceBatch(inputs=shuffled, targets=np.zeros(lanes)))
        assert np.array_equal(tape.h_last, tape2.h_last), f"permutation changed h_T at T={t_steps}"
    report("2 (bag of events)", "closed form and permutation invariance bit-exact up to T=400")


# --- criterion 3: delta constancy --------------------------------------------


def test_criterion_3_delta_constancy():
    rng = il.make_rng(43)
    h, d, lanes, t_steps = 100, 2, 3, 400
    spec = il.ModelSpec(cell="rnn", hidden=h, input_dim=d, head="regression",
                        activation="linear", init=il.InitScheme("identity"))
    params = il.RnnParams.from_blocks(W=np.eye(h), V=rng.normal(0, 0.001, (h, d)),
                          b=rng.normal(0, 0.001, h))
    head = il.HeadParams(U=rng.normal(0, 0.001, (1, h)), c=rng.normal(0, 0.001, 1))
    batch = il.SequenceBatch(inputs=rng.uniform(size=(t_steps, lanes, d)),
                             targets=rng.normal(size=lanes))
    _, _, tape = forward(spec, params, head, batch)
    grads = il.backward(params, head, tape)
    assert np.array_equal(grads.dh0, tape.dlogits @ head.U)
    report("3 (delta constancy)", f"delta at t=0 equals injected delta bit-exactly over T={t_steps}")


# --- criterion 4: adding-problem baseline ------------------------------------


def test_criterion_4_adding_baseline():
    ds = il.gen_adding(150, 10_000, il.make_rng(44))
    empirical = il.baseline_mse(ds)
    assert empirical == pytest.approx(ANALYTIC_CONSTANT_BASELINE_MSE, abs=0.005)
    # the commonly quoted 0.1767 figure is recorded as-reported, not asserted
    assert REPORTED_CONSTANT_BASELINE_MSE == 0.1767
    report("4 (constant baseline)",
           f"empirical {empirical:.4f} within 0.005 of 1/6; 0.1767 recorded as reported")


# --- criterion 5: adding problem, desk scale ---------------------------------


def _train_adding(t_steps, hidden, lr, gc, steps, seed, eval_every, batch=16,
                  n_train=100_000, n_test=10_000):
    rng = il.make_rng(1000 + t_steps)
    train_ds = il.gen_adding(t_steps, n_train, rng)
    test_ds = il.gen_adding(t_steps, n_test, rng)
    spec = il.ModelSpec(cell="rnn", hidden=hidden, input_dim=2, head="regression",
                        activation="relu", init=il.InitScheme("identity"))
    cfg = il.TrainConfig(lr=lr, clip=gc, max_steps=steps, eval_every=eval_every,
                         batch_size=batch, seed=seed)
    result = il.train(spec, cfg, train_ds, test_ds)
    best = min((r.test_loss for r in result.history), default=math.inf)
    return result, best, test_ds


def _floor_note(result, test_ds) -> str:
    """The test set's affine floor (``test_floor.py``) and how many eval points fell below it,
    for the failure message of a run that may never have left the linear regime."""
    floor = affine_floor(test_ds)
    below = sum(row.test_loss < floor for row in result.history)
    return f"the test set's affine floor is {floor:.4f}; {below} of {len(result.history)} eval points fell below it"


def test_criterion_5_smoke_adding_t50():
    # lr/gc/batch are not pinned by the smoke variant; this configuration was
    # selected empirically (plateau escape at ~4k updates) and the run is
    # deterministic, so the demonstration is stable
    result, best, _ = _train_adding(t_steps=50, hidden=50, lr=0.3, gc=0.5,
                                    steps=5000, seed=1, eval_every=250, batch=128)
    assert not result.diverged
    assert best < 0.05, f"best test MSE {best:.4f} not below 0.05 within 5k updates"
    report("5 smoke (adding T=50)", f"best test MSE {best:.4f} < 0.05 within 5000 updates")


@pytest.mark.slow
def test_criterion_5_full_adding_t150():
    result, best, test_ds = _train_adding(t_steps=150, hidden=100, lr=0.01, gc=100.0,
                                          steps=30_000, seed=1, eval_every=1000)
    assert not result.diverged
    assert best < 0.01, f"best test MSE {best:.4f} not below 0.01 within 30k updates; {_floor_note(result, test_ds)}"
    report("5 full (adding T=150)", f"best test MSE {best:.4f} < 0.01 within 30k updates")


# --- criterion 6: tanh failure vs IRNN success at T=200 ----------------------


def _t200_datasets():
    rng = il.make_rng(46)
    return il.gen_adding(200, 100_000, rng), il.gen_adding(200, 10_000, rng)


@pytest.mark.slow
def test_criterion_6a_tanh_never_learns_t200():
    # tanh at the same 0.001-scale Gaussian init as the other small-init
    # baselines: the historical comparison lives at that scale. (The stronger
    # 1/sqrt(H) tanh baseline, InitScheme("baseline"), partially learns T=200 - best MSE
    # 0.077 at lr=0.01/gc=1 in 20k updates - so it is not the failing model
    # this comparison encodes.)
    train_ds, test_ds = _t200_datasets()
    tanh_spec = il.ModelSpec(cell="rnn", hidden=100, input_dim=2, head="regression",
                             activation="tanh", init=il.InitScheme("gauss", 0.001))
    grid = GridSpec(lrs=(1e-3, 1e-2, 1e-1), clips=(1.0, 10.0, 100.0))
    tanh_best = math.inf
    for i, cell in enumerate(il.harness.enumerate_cells(grid, "rnn")):
        lr, gc = cell["lr"], cell["gc"]
        cfg = il.TrainConfig(lr=lr, clip=gc, max_steps=20_000, eval_every=2000, seed=100 + i)
        result = il.train(tanh_spec, cfg, train_ds, test_ds)
        cell_best = min((r.test_loss for r in result.history), default=math.inf)
        tanh_best = min(tanh_best, cell_best)
        print(f"  tanh lr={lr:g} gc={gc:g}: best {cell_best:.4f} diverged={result.diverged}",
              flush=True)
    assert tanh_best >= 0.16, f"tanh unexpectedly reached {tanh_best:.4f} < 0.16"
    report("6a (tanh fails at T=200)", f"best over 9-cell grid {tanh_best:.4f} >= 0.16")


@pytest.mark.slow
def test_criterion_6b_irnn_learns_t200():
    train_ds, test_ds = _t200_datasets()
    irnn_spec = il.ModelSpec(cell="rnn", hidden=100, input_dim=2, head="regression",
                             activation="relu", init=il.InitScheme("identity"))
    cfg = il.TrainConfig(lr=0.01, clip=1.0, max_steps=20_000, eval_every=2000, seed=100)
    result = il.train(irnn_spec, cfg, train_ds, test_ds)
    irnn_best = min((r.test_loss for r in result.history), default=math.inf)
    assert irnn_best < 0.02, (
        f"IRNN best {irnn_best:.4f} not below 0.02 in the stated budget; {_floor_note(result, test_ds)}"
    )
    report("6b (IRNN learns at T=200)", f"best {irnn_best:.4f} < 0.02 within 20k updates")


@pytest.mark.slow
def test_long_demo_irnn_learns_adding_t150():
    """Demonstration (not a stated criterion): with a free hyperparameter
    choice the identity-ReLU model learns the T=150 task far below the
    0.1667 constant baseline, while the fixed historical cell above stays on
    the plateau inside its budget. Deterministic, ~30 minutes.
    """
    result, best, _ = _train_adding(t_steps=150, hidden=100, lr=0.3, gc=1.0,
                                    steps=100_000, seed=1, eval_every=1000)
    assert not result.diverged
    assert best < 0.1, f"best test MSE {best:.4f} not well below the 0.1667 baseline"
    report("long demo (adding T=150)",
           f"best test MSE {best:.4f} vs constant baseline 0.1667")


# --- criterion 7: pooled sequential MNIST ------------------------------------


def _mnist_dir():
    return os.environ.get("IRNNLAB_MNIST_DIR")


@pytest.mark.slow
@pytest.mark.skipif(_mnist_dir() is None,
                    reason="set IRNNLAB_MNIST_DIR to a directory with the four MNIST IDX files")
def test_criterion_7_pooled_sequential_mnist():
    base = Path(_mnist_dir())
    train_raw = il.load_mnist(base / "train-images-idx3-ubyte", base / "train-labels-idx1-ubyte")
    test_raw = il.load_mnist(base / "t10k-images-idx3-ubyte", base / "t10k-labels-idx1-ubyte")
    from irnnlab.tasks import prepare_pixel_sequences

    train_ds = prepare_pixel_sequences(train_raw, downsample=14)
    test_ds = prepare_pixel_sequences(test_raw, downsample=14)

    def best_accuracy(spec, lrs, gc, seed0):
        best = 0.0
        for i, lr in enumerate(lrs):
            cfg = il.TrainConfig(lr=lr, clip=gc, max_steps=100_000, eval_every=5000, seed=seed0 + i)
            result = il.train(spec, cfg, train_ds, test_ds)
            acc = max((r.task_metric for r in result.history), default=0.0)
            print(f"  {spec.activation or spec.cell} lr={lr:g}: best accuracy {acc:.4f}")
            best = max(best, acc)
        return best

    irnn_spec = il.ModelSpec(cell="rnn", hidden=100, input_dim=1, head="softmax", classes=10,
                             activation="relu", init=il.InitScheme("identity"))
    irnn_acc = best_accuracy(irnn_spec, (1e-6, 1e-7, 1e-8), 1.0, 700)
    tanh_spec = il.ModelSpec(cell="rnn", hidden=100, input_dim=1, head="softmax", classes=10,
                             activation="tanh", init=il.InitScheme("baseline"))
    tanh_acc = best_accuracy(tanh_spec, (1e-6, 1e-7, 1e-8), 1.0, 800)
    assert irnn_acc > 0.80, f"IRNN accuracy {irnn_acc:.3f} not above 0.80"
    assert irnn_acc - tanh_acc >= 0.10, f"IRNN {irnn_acc:.3f} vs tanh {tanh_acc:.3f}: gap < 10 points"
    report("7 (pooled MNIST)", f"IRNN {irnn_acc:.3f} > 0.80 and beats tanh ({tanh_acc:.3f}) by >= 10 points")


# --- criterion 8: determinism -------------------------------------------------


def test_criterion_8_train_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["gen-adding", "--t", "8", "--n-train", "512", "--n-test", "128",
                     "--seed", "3", "--out", str(data_dir)]) == 0
    train_args = ["train", "--task", "adding", "--cell", "rnn", "--hidden", "10",
                  "--lr", "0.05", "--clip", "1", "--steps", "60", "--eval-every", "20",
                  "--seed", "12", "--data", str(data_dir / "train.addp"), str(data_dir / "test.addp")]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(train_args + ["--out-dir", str(out1)]) == 0
    assert cli_main(["train", "--manifest", str(out1 / "manifest.json"), "--out-dir", str(out2)]) == 0

    # all metric columns are byte-identical; wallclock_s is physical time and
    # is the one column exempted (see decisions ledger)
    rows1 = [line.rsplit(",", 1) for line in (out1 / "metrics.csv").read_text().splitlines()]
    rows2 = [line.rsplit(",", 1) for line in (out2 / "metrics.csv").read_text().splitlines()]
    assert [r[0] for r in rows1] == [r[0] for r in rows2]
    assert (out1 / "checkpoint.irnn").read_bytes() == (out2 / "checkpoint.irnn").read_bytes()

    # with an injected fixed clock the full CSV is byte-identical
    train_ds = il.load_adding(data_dir / "train.addp")
    test_ds = il.load_adding(data_dir / "test.addp")
    spec = il.ModelSpec(cell="rnn", hidden=10, input_dim=2, head="regression",
                        activation="relu", init=il.InitScheme("identity"))
    cfg = il.TrainConfig(lr=0.05, clip=1.0, max_steps=60, eval_every=20, seed=12)
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for path in (p1, p2):
        with metrics_csv(path) as write_row:
            il.train(spec, cfg, train_ds, test_ds, on_row=write_row, timer=lambda: 0.0)
    assert p1.read_bytes() == p2.read_bytes()
    report("8a (train determinism)", "metrics identical; full CSV byte-identical under pinned clock")


def test_criterion_8_grid_worker_independence(tmp_path, tiny_adding):
    train_ds, test_ds = tiny_adding
    spec = il.ModelSpec(cell="rnn", hidden=10, input_dim=2, head="regression",
                        activation="relu", init=il.InitScheme("identity"))
    budget = il.TrainConfig(lr=1.0, clip=1.0, max_steps=40, eval_every=20, seed=6)
    grid = GridSpec(lrs=(0.02, 0.08), clips=(1.0, 10.0))
    grid_search(spec, grid, budget, train_ds, test_ds, tmp_path / "w1", workers=1)
    grid_search(spec, grid, budget, train_ds, test_ds, tmp_path / "w2", workers=2)
    b1 = (tmp_path / "w1" / "summary.json").read_bytes()
    b2 = (tmp_path / "w2" / "summary.json").read_bytes()
    assert b1 == b2
    report("8b (worker independence)", "summary.json byte-identical for --workers 1 vs 2")


# --- criterion 9: format round-trips ------------------------------------------


def test_criterion_9_format_round_trips(tmp_path, synthetic_mnist):
    # ADDP0001 round trip
    ds = il.gen_adding(11, 37, il.make_rng(49))
    addp = tmp_path / "r.addp"
    il.save_adding(ds, addp)
    back = il.load_adding(addp)
    assert np.array_equal(back.signal, ds.signal)
    assert np.array_equal(back.mask, ds.mask)
    assert np.array_equal(back.target, ds.target)

    # checkpoint round trip
    spec = il.ModelSpec(cell="lstm", hidden=6, input_dim=2, head="softmax", classes=10,
                        forget_bias=4.0)
    params, head = il.init_params(spec, il.make_rng(50))
    ckpt = tmp_path / "model.irnn"
    il.save_checkpoint(ckpt, spec, params, head)
    spec2, params2, head2 = il.load_checkpoint(ckpt)
    assert spec2 == spec
    for name, block in il.param_blocks(params, head).items():
        assert np.array_equal(block, il.param_blocks(params2, head2)[name])

    # IDX: accepts the official header layout, rejects three corruptions
    import struct as _struct
    from conftest import write_idx_labels
    from irnnlab.tasks import DataFormatError

    img_path, lab_path, _, labels = synthetic_mnist
    il.load_mnist(img_path, lab_path)  # accepted

    bad_magic = tmp_path / "bad_magic.idx"
    data = bytearray(img_path.read_bytes())
    data[:4] = _struct.pack(">I", 0xDEADBEEF)
    bad_magic.write_bytes(bytes(data))
    with pytest.raises(DataFormatError):
        il.load_mnist(bad_magic, lab_path)

    truncated = tmp_path / "truncated.idx"
    truncated.write_bytes(img_path.read_bytes()[:-50])
    with pytest.raises(DataFormatError):
        il.load_mnist(truncated, lab_path)

    mismatched = tmp_path / "mismatch.idx"
    write_idx_labels(mismatched, labels[:-1])
    with pytest.raises(DataFormatError):
        il.load_mnist(img_path, mismatched)

    report("9 (format round trips)",
           "ADDP and checkpoint bit-identical; IDX rejects bad magic, truncation, count mismatch")
