"""Run the irnnlab CLI of one source tree on small fixed inputs and keep every output.

    python tools/cli_outputs.py --src SRC --out DIR

SRC is a checkout of this repository. The script puts SRC's ``src/`` directory first
on ``sys.path`` and runs every command in this one interpreter as
``irnnlab.cli.main(args)``, giving the exit code, stdout and stderr that
``python -m irnnlab.cli`` would give. Every command runs inside DIR
with relative paths, on data the script writes there itself (adding-problem files
from ``gen-adding`` and small synthetic IDX files), so two trees can be compared with

    diff -r DIR_A DIR_B

For each command, ``log/NN-name.txt`` holds its arguments, exit code, stdout and
stderr; the files it writes stay where it wrote them. The ``wallclock_s`` column,
the only output that is not reproducible, is dropped from every metrics CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import struct
import sys
import traceback
import warnings
from pathlib import Path

ADDING = ["--data", "data/train.addp", "data/test.addp"]
MNIST = ["--data", "mnist/train-images", "mnist/train-labels", "mnist/test-images", "mnist/test-labels"]
TRAIN = ["train", "--task", "adding", "--hidden", "8", "--lr", "0.01", "--clip", "10",
         "--steps", "60", "--eval-every", "20", "--seed", "1", *ADDING]
GRID = ["grid-search", "--task", "adding", "--cell", "rnn", "--activation", "tanh", "--hidden", "6",
        "--lrs", "0.001,0.01", "--clips", "1,100", "--steps-per-cell", "20", "--eval-every", "10",
        "--seed", "2", *ADDING]
ADDING_RUNS = ("irnn", "lstm", "tanh", "linear-baseline", "gauss", "iscale")

# (name, arguments), run in order; names are unique
COMMANDS = [
    ("gen-adding", ["gen-adding", "--t", "12", "--n-train", "600", "--n-test", "200",
                    "--seed", "3", "--out", "data"]),
    ("train-irnn", [*TRAIN, "--cell", "rnn", "--init", "identity", "--out-dir", "irnn"]),
    ("train-lstm", [*TRAIN, "--cell", "lstm", "--forget-bias", "2", "--out-dir", "lstm"]),
    ("train-tanh", [*TRAIN, "--cell", "rnn", "--activation", "tanh", "--out-dir", "tanh"]),
    ("train-linear-baseline", [*TRAIN, "--cell", "rnn", "--activation", "linear", "--init", "baseline",
                               "--out-dir", "linear-baseline"]),
    ("train-gauss", [*TRAIN, "--cell", "rnn", "--init", "gauss:0.01", "--out-dir", "gauss"]),
    ("train-iscale", [*TRAIN, "--cell", "rnn", "--init", "iscale:0.01", "--out-dir", "iscale"]),
    ("train-mnist", ["train", "--task", "mnist", "--cell", "rnn", "--hidden", "6", "--downsample", "7",
                     "--permute-seed", "5", "--lr", "0.01", "--clip", "1", "--steps", "20",
                     "--eval-every", "10", "--batch", "8", *MNIST, "--out-dir", "mnist-run"]),
    ("train-replay", ["train", "--manifest", "irnn/manifest.json", "--out-dir", "irnn-replay"]),
    *((f"eval-{run}", ["eval", "--checkpoint", f"{run}/checkpoint.irnn", "--data", "data/test.addp"])
      for run in ADDING_RUNS),
    ("eval-mnist", ["eval", "--checkpoint", "mnist-run/checkpoint.irnn", "--data", "mnist/test-images",
                    "mnist/test-labels", "--downsample", "7", "--permute-seed", "5"]),
    ("grid-tanh", [*GRID, "--workers", "2", "--out-dir", "grid"]),
    # wrong --data counts
    ("count-train-adding", ["train", "--task", "adding", "--cell", "rnn", "--lr", "0.01", "--clip", "1",
                            "--data", "data/train.addp", "--out-dir", "bad"]),
    ("count-train-mnist", ["train", "--task", "mnist", "--cell", "rnn", "--lr", "0.01", "--clip", "1",
                           "--data", "mnist/train-images", "mnist/train-labels", "--out-dir", "bad"]),
    ("count-grid", [*GRID, "data/train.addp", "--out-dir", "bad"]),
    ("count-eval-regression", ["eval", "--checkpoint", "irnn/checkpoint.irnn", *ADDING]),
    ("count-eval-softmax", ["eval", "--checkpoint", "mnist-run/checkpoint.irnn", "--data",
                            "mnist/test-images"]),
    # pixel-MNIST flags on adding data
    ("flag-train", [*TRAIN, "--cell", "rnn", "--permute-seed", "3", "--out-dir", "bad"]),
    ("flag-grid", [*GRID, "--downsample", "7", "--out-dir", "bad"]),
    ("flag-eval", ["eval", "--checkpoint", "irnn/checkpoint.irnn", "--data", "data/test.addp",
                   "--permute-seed", "3"]),
    # non-finite model floats
    ("nonfinite-gauss-inf", [*TRAIN, "--cell", "rnn", "--init", "gauss:inf", "--out-dir", "bad"]),
    ("nonfinite-gauss-nan", [*TRAIN, "--cell", "rnn", "--init", "gauss:nan", "--out-dir", "bad"]),
    ("nonfinite-iscale-inf", [*TRAIN, "--cell", "rnn", "--init", "iscale:inf", "--out-dir", "bad"]),
    ("nonfinite-input-std", [*TRAIN, "--cell", "rnn", "--input-init-std", "nan", "--out-dir", "bad"]),
    ("nonfinite-forget-bias", [*TRAIN, "--cell", "lstm", "--forget-bias", "nan", "--out-dir", "bad"]),
    # non-finite rates (overriding TRAIN's, since the last flag wins) and grid lists
    ("nonfinite-lr", [*TRAIN, "--cell", "rnn", "--lr", "inf", "--out-dir", "bad"]),
    ("nonfinite-clip", [*TRAIN, "--cell", "rnn", "--clip", "inf", "--out-dir", "bad"]),
    ("nonfinite-grid-list", ["grid-search", "--task", "adding", "--cell", "lstm", "--hidden", "4",
                             "--lrs", "0.01", "--clips", "1", "--forget-biases", "1,inf",
                             "--steps-per-cell", "5", "--eval-every", "5", *ADDING, "--out-dir", "bad"]),
]

# corrupted copies of irnn/checkpoint.irnn, each evaluated: (name, header offset, 8 bytes written there)
BAD_CHECKPOINTS = [
    ("cell-code-7", 8, struct.pack("<q", 7)),
    ("init-kind-code-minus-1", 56, struct.pack("<q", -1)),
    ("init-value-nan", 64, struct.pack("<d", float("nan"))),
    ("input-std-inf", 72, struct.pack("<d", float("inf"))),
    ("forget-bias-nan", 80, struct.pack("<d", float("nan"))),
]

# copies of irnn/checkpoint.irnn with one payload double rewritten, evaluated after every other
# command so no log name shifts: (name, payload offset, 8 bytes written there)
OVERFLOWING_CHECKPOINTS = [
    # W[4,4] (unit 0 never fires here, unit 4 at every step): the float64 pass overflows, so eval exits 3
    ("w44-1e60", 88 + 8 * (4 * 8 + 4), struct.pack("<d", 1e60)),
    # V[0,0], after the 8x8 W: inf in the float32 copy, so float64 scores each chunk and eval exits 0
    ("v00-1e39", 88 + 8 * 64, struct.pack("<d", 1e39)),
]

# copies of data/test.addp with one mask double rewritten, each the test set of a train run:
# (name, example, step, value written there)
BAD_MASKS = [
    ("mask-half", 7, 3, 0.5),
]

# run after the corrupted-file runs, so no earlier log name shifts
LATE_COMMANDS = [
    # diverges at step 11 after five rows: exit 3, a partial metrics.csv, a stderr line
    ("train-diverged", [*TRAIN, "--cell", "rnn", "--activation", "linear", "--init", "identity",
                        "--lr", "0.5", "--clip", "1e9", "--eval-every", "2", "--out-dir", "diverged"]),
    # the unsorted forget biases pin the cell order and the fb key of each summary row
    ("grid-lstm", ["grid-search", "--task", "adding", "--cell", "lstm", "--hidden", "4", "--lrs", "0.01,0.1",
                   "--clips", "1,100", "--forget-biases", "4,1", "--steps-per-cell", "20", "--eval-every", "10",
                   "--seed", "2", "--workers", "2", *ADDING, "--out-dir", "grid-lstm"]),
    # pixel MNIST pooled to 14x14, the side of the pmnist-irnn-eval benchmark
    ("train-mnist-14", ["train", "--task", "mnist", "--cell", "rnn", "--hidden", "6", "--downsample", "14",
                        "--permute-seed", "7", "--lr", "0.01", "--clip", "1", "--steps", "8",
                        "--eval-every", "4", "--batch", "8", *MNIST, "--out-dir", "mnist-14"]),
    ("eval-mnist-14", ["eval", "--checkpoint", "mnist-14/checkpoint.irnn", "--data", "mnist/test-images",
                       "mnist/test-labels", "--downsample", "14", "--permute-seed", "7"]),
    # seed 0 redraws one relu regression trial, so the kink guard is pinned too
    ("gradcheck-relu", ["gradcheck", "--cell", "rnn"]),
    ("gradcheck-tanh", ["gradcheck", "--cell", "rnn", "--activation", "tanh"]),
    ("gradcheck-linear", ["gradcheck", "--cell", "rnn", "--activation", "linear"]),
    ("gradcheck-lstm", ["gradcheck", "--cell", "lstm", "--trials", "5"]),
    # no --forget-bias, so the LSTM's default forget bias is pinned
    ("train-lstm-default", [*TRAIN, "--cell", "lstm", "--out-dir", "lstm-default"]),
    ("eval-lstm-default", ["eval", "--checkpoint", "lstm-default/checkpoint.irnn", "--data", "data/test.addp"]),
]


def write_idx_pair(images_path: Path, labels_path: Path, n: int, seed: int) -> None:
    """``n`` 28x28 uint8 images whose mean brightness grows with their label, as IDX files."""
    state = seed
    labels, pixels = bytearray(), bytearray()
    for i in range(n):
        label = (i * 7 + seed) % 10
        labels.append(label)
        for _ in range(28 * 28):
            state = (state * 1103515245 + 12345) % 2**31  # a fixed LCG, so no library decides the bytes
            pixels.append(20 * label + state % 20)
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, n, 28, 28) + bytes(pixels))
    labels_path.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))


def run(out: Path, index: int, name: str, args: list[str]) -> None:
    """Run ``irnnlab args`` inside ``out`` and log the exit code, stdout and stderr that
    ``python -m irnnlab.cli`` gives: an uncaught exception prints its traceback and exits 1."""
    from irnnlab import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(out)
    # a fresh warnings state per command, so a repeated warning is shown again
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
        finally:
            os.chdir(cwd)
    log = out / "log" / f"{index:02d}-{name}.txt"
    log.write_text(f"$ irnnlab {' '.join(args)}\nexit {code}\n"
                   f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")


def eval_patched_checkpoints(out: Path, start: int, patches) -> None:
    """Evaluate on data/test.addp a copy of irnn/checkpoint.irnn per (name, offset, bytes) patch,
    written to bad-checkpoints/NAME.irnn and logged from index ``start`` on."""
    good = (out / "irnn" / "checkpoint.irnn").read_bytes()
    for index, (name, offset, value) in enumerate(patches, start=start):
        path = f"bad-checkpoints/{name}.irnn"
        (out / path).write_bytes(good[:offset] + value + good[offset + 8:])
        run(out, index, f"eval-{name}", ["eval", "--checkpoint", path, "--data", "data/test.addp"])


def drop_wallclock(out: Path) -> None:
    for csv in sorted(out.rglob("*.csv")):
        lines = csv.read_text().splitlines()
        if lines and lines[0].endswith(",wallclock_s"):
            csv.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, help="repository checkout whose src/irnnlab is run")
    p.add_argument("--out", required=True, help="new or empty directory for the outputs")
    args = p.parse_args(argv)
    src, out = Path(args.src), Path(args.out)
    if not (src / "src" / "irnnlab" / "cli.py").is_file():
        p.error(f"{src} holds no src/irnnlab/cli.py")
    if out.exists() and any(out.iterdir()):
        p.error(f"{out} is not empty")
    sys.path.insert(0, str(src.resolve() / "src"))  # before the first import of irnnlab, in run()
    (out / "log").mkdir(parents=True, exist_ok=True)
    (out / "mnist").mkdir()
    write_idx_pair(out / "mnist" / "train-images", out / "mnist" / "train-labels", 60, 1)
    write_idx_pair(out / "mnist" / "test-images", out / "mnist" / "test-labels", 30, 2)
    for index, (name, cmd) in enumerate(COMMANDS):
        run(out, index, name, cmd)
    (out / "bad-checkpoints").mkdir()
    eval_patched_checkpoints(out, len(COMMANDS), BAD_CHECKPOINTS)
    (out / "bad-data").mkdir()
    data = (out / "data" / "test.addp").read_bytes()
    t_steps = struct.unpack_from("<q", data, 8)[0]
    for index, (name, example, step, value) in enumerate(BAD_MASKS, start=len(COMMANDS) + len(BAD_CHECKPOINTS)):
        path = f"bad-data/{name}.addp"
        offset = 24 + 8 * (example * (2 * t_steps + 1) + t_steps + step)
        (out / path).write_bytes(data[:offset] + struct.pack("<d", value) + data[offset + 8:])
        # the last --data wins
        run(out, index, f"train-{name}", [*TRAIN, "--cell", "rnn", *ADDING[:2], path, "--out-dir", "bad"])
    for index, (name, cmd) in enumerate(LATE_COMMANDS, start=len(COMMANDS) + len(BAD_CHECKPOINTS) + len(BAD_MASKS)):
        run(out, index, name, cmd)
    total = len(COMMANDS) + len(BAD_CHECKPOINTS) + len(BAD_MASKS) + len(LATE_COMMANDS)
    eval_patched_checkpoints(out, total, OVERFLOWING_CHECKPOINTS)
    total += len(OVERFLOWING_CHECKPOINTS)
    drop_wallclock(out)
    print(f"{total} commands run; outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
