import hashlib
import json
import math
from pathlib import Path

import pytest

from irnnlab.cli import main
from irnnlab.harness import METRICS_HEADER


def run_cli(*args):
    return main(list(args))


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
                       "--seed", "0", "--out", str(tmp_path / "x")) != 0


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

        def strip_wallclock(path):
            lines = path.read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert strip_wallclock(out1 / "metrics.csv") == strip_wallclock(out2 / "metrics.csv")
        assert (out1 / "checkpoint.irnn").read_bytes() == (out2 / "checkpoint.irnn").read_bytes()

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


class TestMakePerm:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli("make-perm", "--side", "28", "--seed", "7", "--out", str(a)) == 0
        assert run_cli("make-perm", "--side", "28", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().split()) == 784
