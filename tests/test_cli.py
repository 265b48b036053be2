import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import blas_threads_env, write_idx_images, write_idx_labels, write_mask_value
from irnnlab import harness
from irnnlab.cli import main
from irnnlab.harness import METRICS_HEADER


def run_cli(*args):
    return main(list(args))


def run_cli_process(blas_threads, *args):
    """``irnnlab`` in a fresh interpreter whose OpenBLAS starts with ``blas_threads`` threads."""
    subprocess.run([sys.executable, "-m", "irnnlab.cli", *args], env=blas_threads_env(blas_threads),
                   check=True, capture_output=True, timeout=600)


def strip_wallclock(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def _drop(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _with_extra_digest(manifest):
    """The manifest plus a correct digest for a file that is not one of its data files."""
    extra = Path(manifest["flags"]["out_dir"]) / "metrics.csv"
    digest = hashlib.sha256(extra.read_bytes()).hexdigest()
    return {**manifest, "data_sha256": {**manifest["data_sha256"], str(extra): digest}}


@pytest.fixture
def adding_files(tmp_path):
    out = tmp_path / "data"
    code = run_cli("gen-adding", "--t", "6", "--n-train", "512", "--n-test", "256",
                   "--seed", "4", "--out", str(out))
    assert code == 0
    return out / "train.addp", out / "test.addp"


@pytest.fixture
def empty_idx(tmp_path):
    """``make(kind)`` writes an IDX pair holding no images ("count") or three 0x0 images
    ("side"), and returns its paths and the header offset of the zero."""

    def make(kind):
        images, labels = tmp_path / f"empty-{kind}-images.idx", tmp_path / f"empty-{kind}-labels.idx"
        n, side = (0, 28) if kind == "count" else (3, 0)
        write_idx_images(images, np.zeros((n, side, side), dtype=np.uint8))
        write_idx_labels(labels, np.zeros(n, dtype=np.uint8))
        return images, labels, 4 if kind == "count" else 8

    return make


@pytest.fixture
def label_12(synthetic_mnist, tmp_path):
    """The synthetic test labels with label 12 at index 5 (file offset 13)."""
    _, _, _, labels = synthetic_mnist
    path = tmp_path / "labels-12.idx"
    write_idx_labels(path, np.where(np.arange(len(labels)) == 5, 12, labels))
    return path


class TestGenAdding:
    def test_writes_files_and_baseline(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = run_cli("gen-adding", "--t", "12", "--n-train", "2000", "--n-test", "10000",
                       "--seed", "1", "--out", str(out))
        assert code == 0
        assert (out / "train.addp").exists() and (out / "test.addp").exists()
        assert (out / "manifest.json").exists()
        printed = capsys.readouterr().out
        test_baseline = float(printed.split("test ")[1].split()[0])
        assert test_baseline == pytest.approx(1.0 / 6.0, abs=0.005)

    def test_rerun_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("gen-adding", "--t", "9", "--n-train", "100", "--n-test", "50",
                           "--seed", "2", "--out", str(out)) == 0
        assert (out1 / "train.addp").read_bytes() == (out2 / "train.addp").read_bytes()
        assert (out1 / "test.addp").read_bytes() == (out2 / "test.addp").read_bytes()

    def test_rejects_t1(self, tmp_path):
        assert run_cli("gen-adding", "--t", "1", "--n-train", "10", "--n-test", "10",
                       "--seed", "0", "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", ["--n-train", "--n-test"])
    def test_empty_set_exits_2_and_leaves_no_directory(self, tmp_path, capsys, flag):
        out = tmp_path / "x"
        n_train, n_test = ("0", "10") if flag == "--n-train" else ("10", "0")
        code = run_cli("gen-adding", "--t", "5", "--n-train", n_train, "--n-test", n_test, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2 and "dataset size must be >= 1, got 0" in err and "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_run_produces_artifacts(self, adding_files, tmp_path):
        train_file, test_file = adding_files
        out = tmp_path / "run"
        code = run_cli("train", "--task", "adding", "--cell", "rnn", "--hidden", "8",
                       "--lr", "0.05", "--clip", "1", "--steps", "30", "--eval-every", "10",
                       "--seed", "3", "--data", str(train_file), str(test_file),
                       "--out-dir", str(out))
        assert code == 0
        assert (out / "metrics.csv").read_text().startswith(METRICS_HEADER)
        assert (out / "checkpoint.irnn").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["flags"]["lr"] == 0.05
        assert set(manifest["data_sha256"]) == {str(train_file), str(test_file)}

    def test_manifest_replay_reproduces_metrics(self, adding_files, tmp_path):
        train_file, test_file = adding_files
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["train", "--task", "adding", "--cell", "rnn", "--hidden", "8",
                "--lr", "0.05", "--clip", "1", "--steps", "25", "--eval-every", "10",
                "--seed", "9", "--data", str(train_file), str(test_file)]
        assert run_cli(*args, "--out-dir", str(out1)) == 0
        assert run_cli("train", "--manifest", str(out1 / "manifest.json"),
                       "--out-dir", str(out2)) == 0
        assert strip_wallclock(out1 / "metrics.csv") == strip_wallclock(out2 / "metrics.csv")
        assert (out1 / "checkpoint.irnn").read_bytes() == (out2 / "checkpoint.irnn").read_bytes()

    @pytest.mark.skipif(harness._openblas() is None, reason="needs the OpenBLAS of numpy's wheel")
    def test_replay_under_other_blas_thread_count_is_exact(self, tmp_path):
        # at T=50, B=128 the weight-gradient GEMM differs in its last bits between 1 and 2
        # OpenBLAS threads, and the manifest records no thread count
        data = tmp_path / "data"
        assert run_cli("gen-adding", "--t", "50", "--n-train", "4000", "--n-test", "1000",
                       "--seed", "6", "--out", str(data)) == 0
        out1, out2 = tmp_path / "threads2", tmp_path / "threads1"
        run_cli_process("2", "train", "--task", "adding", "--cell", "rnn", "--batch", "128",
                        "--lr", "0.01", "--clip", "1", "--steps", "300", "--eval-every", "100",
                        "--seed", "2", "--data", str(data / "train.addp"), str(data / "test.addp"),
                        "--out-dir", str(out1))
        run_cli_process("1", "train", "--manifest", str(out1 / "manifest.json"), "--out-dir", str(out2))
        assert (out1 / "checkpoint.irnn").read_bytes() == (out2 / "checkpoint.irnn").read_bytes()
        assert strip_wallclock(out1 / "metrics.csv") == strip_wallclock(out2 / "metrics.csv")

    @pytest.mark.parametrize("empty", ["count", "side"])
    def test_empty_mnist_test_set_exits_2(self, synthetic_mnist, empty_idx, tmp_path, capsys, empty):
        img_path, lab_path, _, _ = synthetic_mnist
        empty_images, empty_labels, offset = empty_idx(empty)
        code = run_cli("train", "--task", "mnist", "--cell", "rnn", "--hidden", "6",
                       "--lr", "0.01", "--clip", "1", "--steps", "10", "--eval-every", "5",
                       "--data", str(img_path), str(lab_path), str(empty_images), str(empty_labels),
                       "--out-dir", str(tmp_path / "run"))
        err = capsys.readouterr().err
        assert code == 2 and f"image {empty} 0 at offset {offset}" in err and "Traceback" not in err

    def test_test_label_above_9_exits_2(self, synthetic_mnist, label_12, tmp_path, capsys):
        img_path, lab_path, _, _ = synthetic_mnist
        code = run_cli("train", "--task", "mnist", "--cell", "rnn", "--hidden", "6",
                       "--lr", "0.01", "--clip", "1", "--steps", "2", "--eval-every", "1",
                       "--data", str(img_path), str(lab_path), str(img_path), str(label_12),
                       "--out-dir", str(tmp_path / "run"))
        err = capsys.readouterr().err
        assert code == 2 and f"{label_12}: label 12 at offset 13" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [0.5, 2.0, float("nan")])
    def test_adding_mask_value_other_than_0_or_1_exits_2(self, adding_files, tmp_path, capsys, value):
        train_path, test_path = adding_files
        bad = tmp_path / "bad-mask.addp"
        bad.write_bytes(test_path.read_bytes())
        offset = write_mask_value(bad, 200, 5, value)
        code = run_cli("train", "--task", "adding", "--cell", "rnn", "--hidden", "4", "--lr", "0.01",
                       "--clip", "1", "--steps", "2", "--data", str(train_path), str(bad),
                       "--out-dir", str(tmp_path / "run"))
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"{bad}: mask value {value!r} of example 200 at offset {offset} is not 0 or 1" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("permute", [[], ["--permute-seed", "3"]], ids=["plain", "permuted"])
    def test_train_and_test_image_sides_differ_exits_2(self, synthetic_mnist, tmp_path, capsys, permute):
        img_path, lab_path, images, _ = synthetic_mnist
        small = tmp_path / "small-images.idx"
        write_idx_images(small, images[:, ::2, ::2])
        code = run_cli("train", "--task", "mnist", "--cell", "rnn", "--hidden", "6",
                       "--lr", "0.01", "--clip", "1", "--steps", "2", "--eval-every", "1", *permute,
                       "--data", str(img_path), str(lab_path), str(small), str(lab_path),
                       "--out-dir", str(tmp_path / "run"))
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"{img_path} holds 28x28" in err and f"{small} holds 14x14" in err

    def test_forget_bias_conflict_names_flag(self, adding_files, tmp_path, capsys):
        train_file, test_file = adding_files
        code = run_cli("train", "--task", "adding", "--cell", "rnn", "--forget-bias", "4",
                       "--lr", "0.1", "--clip", "1", "--steps", "1",
                       "--data", str(train_file), str(test_file),
                       "--out-dir", str(tmp_path / "x"))
        assert code == 1
        assert "--forget-bias" in capsys.readouterr().err

    def test_init_conflict_with_lstm(self, adding_files, tmp_path, capsys):
        train_file, test_file = adding_files
        code = run_cli("train", "--task", "adding", "--cell", "lstm", "--init", "identity",
                       "--lr", "0.1", "--clip", "1", "--steps", "1",
                       "--data", str(train_file), str(test_file),
                       "--out-dir", str(tmp_path / "x"))
        assert code == 1
        assert "--init" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--task", "adding", "--cell", "rnn", "--frobnicate", "1")
        assert exc.value.code == 1

    def test_missing_data_file_exits_2(self, tmp_path):
        code = run_cli("train", "--task", "adding", "--cell", "rnn", "--lr", "0.1",
                       "--clip", "1", "--steps", "1",
                       "--data", str(tmp_path / "no.addp"), str(tmp_path / "no2.addp"),
                       "--out-dir", str(tmp_path / "x"))
        assert code == 2

    @pytest.mark.parametrize("mutate, field", [
        (lambda m: [m], "top level"),
        (lambda m: _drop(m, "flags"), "'flags'"),
        (lambda m: _drop(m, "data_sha256"), "'data_sha256'"),
        (lambda m: {**m, "flags": _drop(m["flags"], "forget_bias")}, "'forget_bias'"),
        (lambda m: {**m, "flags": {**m["flags"], "frobnicate": 1}}, "'frobnicate'"),
        (lambda m: {**m, "flags": {**m["flags"], "hidden": "x"}}, "'hidden'"),
        (lambda m: {**m, "flags": {**m["flags"], "steps": "3"}}, "'steps'"),
        (lambda m: {**m, "flags": {**m["flags"], "task": "speech"}}, "'task'"),
        (lambda m: {**m, "flags": {**m["flags"], "lr": None}}, "'lr'"),
        (lambda m: {**m, "data_sha256": {}}, "test.addp'"),
        (lambda m: {**m, "data_sha256": {k: v for k, v in m["data_sha256"].items()
                                         if not k.endswith("train.addp")}}, "train.addp'"),
        (_with_extra_digest, "metrics.csv'"),
    ], ids=["array", "no-flags", "no-data-sha256", "missing-flag", "unknown-flag", "hidden-str",
            "steps-str", "task-choice", "lr-null", "digests-empty", "digest-dropped", "digest-extra"])
    def test_malformed_manifest_exits_2_naming_field(self, adding_files, tmp_path, capsys, mutate, field):
        train_file, test_file = adding_files
        out = tmp_path / "run"
        assert run_cli("train", "--task", "adding", "--cell", "rnn", "--hidden", "4",
                       "--lr", "0.05", "--clip", "1", "--steps", "0",
                       "--data", str(train_file), str(test_file), "--out-dir", str(out)) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(json.loads((out / "manifest.json").read_text()))))
        capsys.readouterr()
        assert run_cli("train", "--manifest", str(bad), "--out-dir", str(tmp_path / "replay")) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--init", "gauss:inf"], "gauss parameter must be finite, got inf"),
        (["--init", "gauss:nan"], "gauss parameter must be finite, got nan"),
        (["--init", "iscale:inf"], "iscale parameter must be finite, got inf"),
        (["--input-init-std", "nan"], "input_init_std must be finite and >= 0, got nan"),
        (["--cell", "lstm", "--forget-bias", "nan"], "forget_bias must be finite, got nan"),
    ], ids=["gauss-inf", "gauss-nan", "iscale-inf", "input-init-std-nan", "lstm-forget-bias-nan"])
    def test_non_finite_model_float_exits_2(self, adding_files, tmp_path, capsys, flags, message):
        train_file, test_file = adding_files
        out = tmp_path / "run"
        code = run_cli("train", "--task", "adding", "--cell", "rnn", *flags, "--hidden", "4",
                       "--lr", "0.05", "--clip", "1", "--steps", "5",
                       "--data", str(train_file), str(test_file), "--out-dir", str(out))
        err = capsys.readouterr().err
        assert code == 2 and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lr", "--clip"])
    def test_non_finite_lr_or_clip_exits_2(self, adding_files, tmp_path, capsys, flag):
        # there is no "no clipping" mode; a huge finite clip does that job
        train_file, test_file = adding_files
        out = tmp_path / "run"
        lr, clip = ("inf", "1") if flag == "--lr" else ("0.05", "inf")
        code = run_cli("train", "--task", "adding", "--cell", "rnn", "--hidden", "4",
                       "--lr", lr, "--clip", clip, "--steps", "5",
                       "--data", str(train_file), str(test_file), "--out-dir", str(out))
        err = capsys.readouterr().err
        assert code == 2 and f"{flag[2:]} must be finite and > 0, got inf" in err and "Traceback" not in err
        assert not out.exists()

    def test_divergent_run_exits_3(self, adding_files, tmp_path):
        train_file, test_file = adding_files
        code = run_cli("train", "--task", "adding", "--cell", "rnn", "--activation", "linear",
                       "--init", "gauss:2.0", "--hidden", "8",
                       "--lr", "1e6", "--clip", "1e9", "--steps", "200", "--eval-every", "50",
                       "--data", str(train_file), str(test_file),
                       "--out-dir", str(tmp_path / "div"))
        assert code == 3


class TestEval:
    def test_fresh_softmax_checkpoint_near_uniform(self, synthetic_mnist, tmp_path, capsys):
        img_path, lab_path, _, _ = synthetic_mnist
        out = tmp_path / "run"
        code = run_cli("train", "--task", "mnist", "--cell", "rnn", "--hidden", "6",
                       "--downsample", "7", "--lr", "1e-8", "--clip", "1", "--steps", "0",
                       "--eval-every", "10", "--data", str(img_path), str(lab_path),
                       str(img_path), str(lab_path), "--out-dir", str(out))
        assert code == 0
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out / "checkpoint.irnn"),
                       "--data", str(img_path), str(lab_path), "--downsample", "7")
        assert code == 0
        printed = capsys.readouterr().out
        loss = float(printed.split("test_loss ")[1].split()[0])
        assert loss == pytest.approx(math.log(10.0), abs=0.01)

    def test_manifest_transform_reproduces_final_row(self, synthetic_mnist, tmp_path, capsys):
        # the manifest's permute_seed and downsample flags, not a permutation file, record the transform
        img_path, lab_path, _, _ = synthetic_mnist
        out = tmp_path / "run"
        assert run_cli("train", "--task", "mnist", "--cell", "rnn", "--hidden", "6", "--downsample", "7",
                       "--permute-seed", "5", "--lr", "0.01", "--clip", "1", "--steps", "6",
                       "--eval-every", "3", "--batch", "8", "--data", str(img_path), str(lab_path),
                       str(img_path), str(lab_path), "--out-dir", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.irnn", "manifest.json", "metrics.csv"]
        flags = json.loads((out / "manifest.json").read_text())["flags"]
        step, _, test_loss, accuracy = (out / "metrics.csv").read_text().splitlines()[-1].split(",")[:4]
        assert step == "6"
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(out / "checkpoint.irnn"),
                       "--data", str(img_path), str(lab_path),
                       "--permute-seed", str(flags["permute_seed"]), "--downsample", str(flags["downsample"])) == 0
        assert capsys.readouterr().out == f"test_loss {test_loss} accuracy {accuracy}\n"

    @pytest.mark.parametrize("empty", ["count", "side"])
    def test_empty_mnist_set_exits_2(self, synthetic_mnist, empty_idx, tmp_path, capsys, empty):
        img_path, lab_path, _, _ = synthetic_mnist
        out = tmp_path / "run"
        assert run_cli("train", "--task", "mnist", "--cell", "rnn", "--hidden", "6",
                       "--lr", "1e-8", "--clip", "1", "--steps", "0", "--data", str(img_path),
                       str(lab_path), str(img_path), str(lab_path), "--out-dir", str(out)) == 0
        empty_images, empty_labels, offset = empty_idx(empty)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out / "checkpoint.irnn"),
                       "--data", str(empty_images), str(empty_labels))
        err = capsys.readouterr().err
        assert code == 2 and f"image {empty} 0 at offset {offset}" in err and "Traceback" not in err

    def test_label_above_9_exits_2(self, synthetic_mnist, label_12, tmp_path, capsys):
        img_path, lab_path, _, _ = synthetic_mnist
        out = tmp_path / "run"
        assert run_cli("train", "--task", "mnist", "--cell", "rnn", "--hidden", "6",
                       "--lr", "1e-8", "--clip", "1", "--steps", "0", "--data", str(img_path),
                       str(lab_path), str(img_path), str(lab_path), "--out-dir", str(out)) == 0
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out / "checkpoint.irnn"),
                       "--data", str(img_path), str(label_12))
        err = capsys.readouterr().err
        assert code == 2 and f"{label_12}: label 12 at offset 13" in err and "Traceback" not in err

    def test_eval_regression_checkpoint(self, adding_files, tmp_path, capsys):
        train_file, test_file = adding_files
        out = tmp_path / "run"
        assert run_cli("train", "--task", "adding", "--cell", "rnn", "--hidden", "8",
                       "--lr", "0.05", "--clip", "1", "--steps", "10", "--eval-every", "10",
                       "--data", str(train_file), str(test_file), "--out-dir", str(out)) == 0
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(out / "checkpoint.irnn"),
                       "--data", str(test_file)) == 0
        assert "rmse" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--permute-seed", "--downsample"])
    def test_mnist_flags_on_regression_checkpoint_exit_1(self, adding_files, tmp_path, capsys, flag):
        train_file, test_file = adding_files
        out = tmp_path / "run"
        assert run_cli("train", "--task", "adding", "--cell", "rnn", "--hidden", "4",
                       "--lr", "0.05", "--clip", "1", "--steps", "0",
                       "--data", str(train_file), str(test_file), "--out-dir", str(out)) == 0
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(out / "checkpoint.irnn"),
                       "--data", str(test_file), flag, "7") == 1
        assert flag in capsys.readouterr().err

    def test_unknown_checkpoint_cell_code_exits_2(self, adding_files, tmp_path, capsys):
        train_file, test_file = adding_files
        out = tmp_path / "run"
        assert run_cli("train", "--task", "adding", "--cell", "rnn", "--hidden", "4",
                       "--lr", "0.05", "--clip", "1", "--steps", "0", "--eval-every", "10",
                       "--data", str(train_file), str(test_file), "--out-dir", str(out)) == 0
        checkpoint = out / "checkpoint.irnn"
        data = bytearray(checkpoint.read_bytes())
        data[8:16] = (7).to_bytes(8, "little")  # cell code
        checkpoint.write_bytes(bytes(data))
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(checkpoint), "--data", str(test_file)) == 2
        assert "unknown cell code 7 at offset 8" in capsys.readouterr().err


class TestDataReader:
    """``train``, ``grid-search`` and ``eval`` read --data through one reader."""

    @pytest.fixture
    def checkpoints(self, adding_files, synthetic_mnist, tmp_path):
        """A regression and a softmax checkpoint, trained for 0 steps."""
        train_file, test_file = adding_files
        img_path, lab_path, _, _ = synthetic_mnist
        out = {}
        for head, task, data in (("regression", "adding", [train_file, test_file]),
                                 ("softmax", "mnist", [img_path, lab_path, img_path, lab_path])):
            out[head] = tmp_path / head / "checkpoint.irnn"
            assert run_cli("train", "--task", task, "--cell", "rnn", "--hidden", "4", "--lr", "0.05",
                           "--clip", "1", "--steps", "0", "--data", *map(str, data),
                           "--out-dir", str(out[head].parent)) == 0
        return out

    @pytest.mark.parametrize("command, count, message", [
        ("train-adding", 1, "--task adding needs --data TRAIN.addp TEST.addp"),
        ("train-adding", 3, "--task adding needs --data TRAIN.addp TEST.addp"),
        ("train-mnist", 2, "--task mnist needs --data TRAIN_IMAGES TRAIN_LABELS TEST_IMAGES TEST_LABELS"),
        ("grid-search", 4, "--task adding needs --data TRAIN.addp TEST.addp"),
        ("eval-regression", 2, "regression checkpoints need --data TEST.addp"),
        ("eval-softmax", 1, "softmax checkpoints need --data TEST_IMAGES TEST_LABELS"),
        ("eval-softmax", 4, "softmax checkpoints need --data TEST_IMAGES TEST_LABELS"),
    ])
    def test_wrong_file_count_exits_1(self, checkpoints, adding_files, tmp_path, capsys,
                                      command, count, message):
        data = [str(adding_files[0])] * count
        out = tmp_path / "out"
        args = {
            "train-adding": ["train", "--task", "adding", "--cell", "rnn", "--lr", "0.1", "--clip", "1",
                             "--out-dir", str(out)],
            "train-mnist": ["train", "--task", "mnist", "--cell", "rnn", "--lr", "0.1", "--clip", "1",
                            "--out-dir", str(out)],
            "grid-search": ["grid-search", "--task", "adding", "--cell", "rnn", "--steps-per-cell", "1",
                            "--out-dir", str(out)],
            "eval-regression": ["eval", "--checkpoint", str(checkpoints["regression"])],
            "eval-softmax": ["eval", "--checkpoint", str(checkpoints["softmax"])],
        }[command]
        capsys.readouterr()
        assert run_cli(*args, "--data", *data) == 1
        assert f"irnnlab: error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--permute-seed", "--downsample"])
    @pytest.mark.parametrize("command", ["train", "grid-search"])
    def test_mnist_flags_on_adding_data_exit_1(self, adding_files, tmp_path, capsys, command, flag):
        train_file, test_file = adding_files
        out = tmp_path / "out"
        budget = ["--lr", "0.1", "--clip", "1", "--steps", "1"] if command == "train" else ["--steps-per-cell", "1"]
        assert run_cli(command, "--task", "adding", "--cell", "rnn", *budget, flag, "7",
                       "--data", str(train_file), str(test_file), "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()


class TestGridSearchCli:
    def test_small_grid_writes_summary(self, adding_files, tmp_path, capsys):
        train_file, test_file = adding_files
        out = tmp_path / "grid"
        code = run_cli("grid-search", "--task", "adding", "--cell", "rnn", "--hidden", "6",
                       "--lrs", "0.01,0.1", "--clips", "1", "--steps-per-cell", "20",
                       "--eval-every", "10", "--seed", "5",
                       "--data", str(train_file), str(test_file), "--out-dir", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 2
        assert {(r["lr"], r["gc"]) for r in summary} == {(0.01, 1.0), (0.1, 1.0)}
        assert "best cell" in capsys.readouterr().out

    def test_empty_list_rejected(self, adding_files, tmp_path, capsys):
        train_file, test_file = adding_files
        for flag, text in (("--lrs", ","), ("--lrs", "abc"), ("--clips", "abc"), ("--forget-biases", "abc")):
            code = run_cli("grid-search", "--task", "adding", "--cell", "lstm", "--lrs", "0.1",
                           flag, text, "--steps-per-cell", "5",
                           "--data", str(train_file), str(test_file),
                           "--out-dir", str(tmp_path / "g"))
            assert code == 1
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag,text", [("--lrs", "0.1,inf"), ("--clips", "inf"), ("--forget-biases", "1,inf")])
    def test_non_finite_list_value_exits_1_before_training(self, adding_files, tmp_path, capsys, flag, text):
        train_file, test_file = adding_files
        out = tmp_path / "g"
        code = run_cli("grid-search", "--task", "adding", "--cell", "lstm", "--hidden", "4",
                       "--lrs", "0.1", "--clips", "1", "--forget-biases", "1", flag, text,
                       "--steps-per-cell", "5", "--data", str(train_file), str(test_file),
                       "--out-dir", str(out))
        assert code == 1
        assert f"{flag}: list values must be finite, got {text!r}" in capsys.readouterr().err
        assert not out.exists()  # no manifest and no cell_000.csv

    def test_forget_bias_not_a_grid_flag(self, adding_files, tmp_path):
        train_file, test_file = adding_files
        with pytest.raises(SystemExit) as exc:
            run_cli("grid-search", "--task", "adding", "--cell", "lstm", "--forget-bias", "7",
                    "--lrs", "0.1", "--clips", "1", "--forget-biases", "1", "--steps-per-cell", "5",
                    "--data", str(train_file), str(test_file), "--out-dir", str(tmp_path / "g"))
        assert exc.value.code == 1
        assert not (tmp_path / "g").exists()


class TestGradcheckCli:
    def test_rnn_passes(self, capsys):
        assert run_cli("gradcheck", "--cell", "rnn", "--activation", "relu",
                       "--trials", "3", "--seed", "0") == 0
        assert "ok" in capsys.readouterr().out

    def test_linear_passes_tight_bound(self, capsys):
        assert run_cli("gradcheck", "--cell", "rnn", "--activation", "linear",
                       "--trials", "3", "--seed", "0") == 0
        assert "1e-06" in capsys.readouterr().out
