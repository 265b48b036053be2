"""Command-line entry point: dataset generation, training, evaluation, grid search.

Commands: ``gen-adding``, ``train``, ``eval``, ``grid-search``, ``gradcheck``.
Every run directory receives a ``manifest.json`` echoing the resolved flags
plus SHA-256 checksums of the input data files; ``train --manifest FILE``
replays a previous run exactly (only ``--out-dir`` may be overridden). Its
``permute_seed`` and ``downsample`` flags record a pixel-MNIST run's
permutation and pooling; ``eval --permute-seed S --downsample D`` re-applies
them.

Exit codes: 0 success, 1 usage error, 2 runtime/data error (including a
failed gradcheck bound), 3 divergence (a diverged train run, or a grid-search
whose every cell diverged).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import harness, tasks
from .cells import ACTIVATIONS
from .gradcheck import check_model
from .init import parse_scheme
from .ndcore import DivergenceError, make_rng
from .network import CELLS, ModelSpec, load_checkpoint, save_checkpoint
from .optim import TrainConfig
from .tasks import DataFormatError

# Documented step budgets per task when --steps is omitted.
DEFAULT_STEPS = {"adding": 100_000, "mnist": 1_000_000}
DEFAULT_EVAL_EVERY = {"adding": 200, "mnist": 1000}

GRADCHECK_BOUNDS = {"relu": 1e-4, "tanh": 1e-4, "linear": 1e-6}


class UsageError(Exception):
    """Invalid flag combination or value (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_float_list(flag: str, text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag}: not a comma-separated list of numbers: {text!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty list {text!r}")
    if any(not v > 0 for v in values):
        raise UsageError(f"{flag}: list values must be positive, got {text!r}")
    if math.inf in values:
        raise UsageError(f"{flag}: list values must be finite, got {text!r}")
    return values


def _check_at_least(flag: str, value: int | None, least: int) -> None:
    """Reject a value below ``least`` by its flag's name (numpy's and the loaders' messages name none)."""
    if value is not None and value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="irnnlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-adding", help="generate adding-problem train/test files")
    p.add_argument("--t", type=int, required=True, help="sequence length (>= 2)")
    p.add_argument("--n-train", type=int, default=100_000)
    p.add_argument("--n-test", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory (train.addp, test.addp)")
    p.set_defaults(handler=cmd_gen_adding)

    p = sub.add_parser("train", help="train one model configuration")
    _add_model_flags(p, train=True)  # a --manifest replay supplies them
    p.add_argument("--lr", type=float)
    p.add_argument("--clip", type=float)
    p.add_argument("--steps", type=int, help=f"update budget (default per task: {DEFAULT_STEPS})")
    p.add_argument("--eval-every", type=int)
    p.add_argument("--manifest", help="replay a previous run from its manifest")
    p.add_argument("--out-dir")
    p.set_defaults(handler=cmd_train)

    # no abbreviations, so --forget-bias is rejected rather than read as --forget-biases
    p = sub.add_parser("grid-search", help="train every cell of a hyperparameter grid", allow_abbrev=False)
    _add_model_flags(p, train=False)
    p.add_argument("--lrs", default=",".join(f"{v:g}" for v in harness.DEFAULT_LRS))
    p.add_argument("--clips", default=",".join(f"{v:g}" for v in harness.DEFAULT_CLIPS))
    p.add_argument("--forget-biases", help="lstm only")
    p.add_argument("--steps-per-cell", type=int, required=True)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_grid_search)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--permute-seed", type=int)
    p.add_argument("--downsample", type=int)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--cell", choices=CELLS, required=True)
    p.add_argument("--activation", choices=ACTIVATIONS, help=f"rnn only (default {ModelSpec.activation})")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--forget-bias", type=float)
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def _add_model_flags(p, train: bool) -> None:
    p.add_argument("--task", choices=("adding", "mnist"), required=not train)
    p.add_argument("--cell", choices=CELLS, required=not train)
    p.add_argument("--activation", choices=ACTIVATIONS)
    p.add_argument("--init", help="identity | iscale:<s> | gauss:<std> | baseline (rnn only)")
    p.add_argument("--hidden", type=int, default=100)
    if train:  # grid-search sweeps --forget-biases instead
        p.add_argument("--forget-bias", type=float, help="LSTM forget-gate bias (lstm only)")
    p.add_argument("--input-init-std", type=float, default=ModelSpec.input_init_std)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--data", nargs="+", required=not train, help="adding: train.addp test.addp; mnist: train-images train-labels test-images test-labels")
    p.add_argument("--permute-seed", type=int, help="fixed pixel permutation seed (mnist only)")
    p.add_argument("--downsample", type=int, help="average-pool images to this side (mnist only)")


def _check_cell_flags(args) -> None:
    """Reject the --activation, --init, --forget-bias and --forget-biases flags that do not apply to --cell."""
    if args.cell == "lstm":
        conflicts = [
            name
            for name, value in (("--activation", args.activation), ("--init", getattr(args, "init", None)))
            if value is not None
        ]
        if conflicts:
            raise UsageError(f"{' and '.join(conflicts)} only {'apply' if len(conflicts) > 1 else 'applies'} to --cell rnn")
    elif getattr(args, "forget_bias", None) is not None:  # grid-search has no --forget-bias
        raise UsageError("--forget-bias only applies to --cell lstm")
    elif getattr(args, "forget_biases", None) is not None:  # train has no --forget-biases
        raise UsageError("--forget-biases only applies to --cell lstm")


def _resolve_model(args) -> ModelSpec:
    """The ModelSpec that the model flags describe, once ``_check_cell_flags`` has passed them."""
    forget_bias = getattr(args, "forget_bias", None)
    activation = args.activation or ModelSpec.activation
    init = parse_scheme(args.init or ("baseline" if args.cell == "lstm" or activation == "tanh" else "identity"))
    if args.task == "adding":
        head, input_dim, classes = "regression", 2, 0
    else:
        head, input_dim, classes = "softmax", 1, tasks.MNIST_CLASSES
    return ModelSpec(
        cell=args.cell,
        hidden=args.hidden,
        input_dim=input_dim,
        head=head,
        activation=activation,
        classes=classes,
        init=init,
        input_init_std=args.input_init_std,
        forget_bias=forget_bias if forget_bias is not None else ModelSpec.forget_bias,
    )


# --data usage by (model head, number of sets); a set is one ADDP file or an IDX images/labels pair
_DATA_USAGE = {
    ("regression", 2): "--task adding needs --data TRAIN.addp TEST.addp",
    ("softmax", 2): "--task mnist needs --data TRAIN_IMAGES TRAIN_LABELS TEST_IMAGES TEST_LABELS",
    ("regression", 1): "regression checkpoints need --data TEST.addp",
    ("softmax", 1): "softmax checkpoints need --data TEST_IMAGES TEST_LABELS",
}


def _load_sets(args, head: str, count: int) -> list:
    """The ``count`` data sets that --data names for a ``head`` model. Pixel sets are
    average-pooled to --downsample and permuted by --permute-seed."""
    paths = [Path(p) for p in args.data]
    if len(paths) != count * (1 if head == "regression" else 2):
        raise UsageError(_DATA_USAGE[head, count])
    if head == "regression":
        for flag, value in (("--permute-seed", args.permute_seed), ("--downsample", args.downsample)):
            if value is not None:
                raise UsageError(f"{flag} only applies to pixel-MNIST data, not to ADDP files")
        return [tasks.load_adding(path) for path in paths]
    _check_at_least("--permute-seed", args.permute_seed, 0)
    _check_at_least("--downsample", args.downsample, 1)
    raws = [tasks.load_mnist(images, labels) for images, labels in zip(paths[::2], paths[1::2])]
    if raws[-1].side != raws[0].side:
        raise DataFormatError(
            f"image side mismatch: {paths[0]} holds {raws[0].side}x{raws[0].side} images"
            f" but {paths[-2]} holds {raws[-1].side}x{raws[-1].side}"
        )
    side = args.downsample if args.downsample is not None else raws[0].side
    if raws[0].side % side:
        raise ValueError(f"--downsample {side} does not divide the image side {raws[0].side}")
    perm = None
    if args.permute_seed is not None:
        perm = tasks.make_permutation(side * side, args.permute_seed)
    return [tasks.prepare_pixel_sequences(raw, perm, args.downsample) for raw in raws]


def _write_manifest(out_dir: Path, command: str, flags: dict, data_paths) -> None:
    manifest = {
        "command": command,
        "flags": flags,
        "data_sha256": {str(p): _sha256(p) for p in data_paths},
    }
    with open(out_dir / "manifest.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_gen_adding(args) -> int:
    _check_at_least("--seed", args.seed, 0)
    out = Path(args.out)
    rng = make_rng(args.seed)
    train_ds = tasks.gen_adding(args.t, args.n_train, rng)
    test_ds = tasks.gen_adding(args.t, args.n_test, rng)
    out.mkdir(parents=True, exist_ok=True)  # after both sets are drawn, so a rejected size leaves none
    tasks.save_adding(train_ds, out / "train.addp")
    tasks.save_adding(test_ds, out / "test.addp")
    _write_manifest(out, "gen-adding", _manifest_flags(args), [out / "train.addp", out / "test.addp"])
    print(f"wrote {out / 'train.addp'} ({args.n_train} examples, T={args.t})")
    print(f"wrote {out / 'test.addp'} ({args.n_test} examples, T={args.t})")
    print(f"constant-1 baseline MSE: train {tasks.baseline_mse(train_ds):.6f}, test {tasks.baseline_mse(test_ds):.6f}")
    print(f"(analytic value 1/6 = {tasks.ANALYTIC_CONSTANT_BASELINE_MSE:.6f};"
          f" commonly quoted figure {tasks.REPORTED_CONSTANT_BASELINE_MSE})")
    return 0


_TRAIN_REQUIRED = ("task", "cell", "data", "lr", "clip", "out_dir")


def _manifest_flags(args) -> dict:
    """The parsed flags in parser order, as a manifest records them."""
    return {name: value for name, value in vars(args).items() if name not in ("command", "handler", "manifest")}


def _valid_flag_value(action: argparse.Action, value) -> bool:
    if value is None:
        return action.default is None and action.dest not in _TRAIN_REQUIRED
    if action.nargs == "+":
        return isinstance(value, list) and len(value) > 0 and all(isinstance(v, str) for v in value)
    if action.type is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is (action.type or str) and (action.choices is None or value in action.choices)


def _replay_manifest(args) -> None:
    """Set every train flag from ``args.manifest`` after checking the file's layout and value types."""
    path = args.manifest
    with open(path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: top level must be a JSON object, got {type(manifest).__name__}")
    for key, kind in (("command", str), ("flags", dict), ("data_sha256", dict)):
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"{path}: field {key!r} is missing or not a JSON {kind.__name__}")
    if manifest["command"] != "train":
        raise ValueError(f"{path} is not a train manifest")
    flags = manifest["flags"]
    expected = _manifest_flags(args)
    for name in sorted(set(flags) ^ set(expected)):
        raise ValueError(f"{path}: flag {name!r} is {'missing' if name in expected else 'unknown'}")
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command")
    actions = {a.dest: a for a in subcommands.choices["train"]._actions}
    for name, value in flags.items():
        if not _valid_flag_value(actions[name], value):
            raise ValueError(f"{path}: flag {name!r} has invalid value {value!r}")
    data_paths, digests = set(flags["data"]), manifest["data_sha256"]
    for name in sorted(data_paths ^ set(digests)):
        if name in data_paths:
            raise ValueError(f"{path}: data file {name!r} has no digest in 'data_sha256'")
        raise ValueError(f"{path}: 'data_sha256' lists {name!r}, which is not a data file")
    override_out = args.out_dir  # the one flag a replay may override
    vars(args).update(flags)
    if override_out is not None:
        args.out_dir = override_out
    for data_path, digest in digests.items():
        actual = _sha256(data_path)
        if actual != digest:
            raise ValueError(f"data file {data_path} changed since the manifest (sha256 {actual} != {digest})")


def _set_up(args, lr: float, clip: float, max_steps: int) -> tuple:
    """The set-up that train and grid-search share: resolve the model, build the TrainConfig,
    load the train and test sets, create --out-dir and write its manifest, so a rejected flag
    is reported before any data is read. Returns (spec, config, train set, test set, output directory)."""
    if args.eval_every is None:
        args.eval_every = DEFAULT_EVAL_EVERY[args.task]

    spec = _resolve_model(args)
    cfg = TrainConfig(
        lr=lr,
        clip=clip,
        max_steps=max_steps,
        eval_every=args.eval_every,
        batch_size=args.batch,
        seed=args.seed,
    )
    train_ds, test_ds = _load_sets(args, spec.head, 2)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, args.command, _manifest_flags(args), args.data)
    return spec, cfg, train_ds, test_ds, out_dir


def cmd_train(args) -> int:
    if args.manifest is not None:
        _replay_manifest(args)
    for flag in _TRAIN_REQUIRED:
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag.replace('_', '-')} is required (or use --manifest)")
    if args.steps is None:
        args.steps = DEFAULT_STEPS[args.task]
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    _check_cell_flags(args)
    spec, cfg, train_ds, test_ds, out_dir = _set_up(args, args.lr, args.clip, args.steps)

    with harness.metrics_csv(out_dir / "metrics.csv") as write_row:

        def on_row(row):
            write_row(row)
            print(
                f"step {row.step}: train_loss {row.train_loss:.6g} test_loss {row.test_loss:.6g}"
                f" task_metric {row.task_metric:.6g} grad_norm {row.grad_norm:.6g}"
            )

        result = harness.train(spec, cfg, train_ds, test_ds, on_row=on_row)
    save_checkpoint(out_dir / "checkpoint.irnn", spec, result.params, result.head)
    print(f"metrics: {out_dir / 'metrics.csv'}")
    print(f"checkpoint: {out_dir / 'checkpoint.irnn'}")
    if result.diverged:
        print(f"run diverged at step {result.diverged_at}", file=sys.stderr)
        return 3
    return 0


def cmd_grid_search(args) -> int:
    _check_cell_flags(args)
    if args.forget_biases is None:  # the manifest records the default, also for an rnn grid
        args.forget_biases = ",".join(f"{v:g}" for v in harness.DEFAULT_FORGET_BIASES)
    grid = harness.GridSpec(
        lrs=tuple(_parse_float_list("--lrs", args.lrs)),
        clips=tuple(_parse_float_list("--clips", args.clips)),
        forget_biases=tuple(_parse_float_list("--forget-biases", args.forget_biases)),
    )
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.steps_per_cell < 1:
        raise UsageError(f"--steps-per-cell must be >= 1, got {args.steps_per_cell}")
    # lr and clip are placeholders; each cell sets its own
    spec, budget, train_ds, test_ds, out_dir = _set_up(args, 1.0, 1.0, args.steps_per_cell)
    ranked = harness.grid_search(
        spec, grid, budget, train_ds, test_ds, out_dir, workers=args.workers
    )
    print(f"summary: {out_dir / 'summary.json'} ({len(ranked)} cells)")
    if ranked[0]["diverged"]:  # diverged cells rank last
        print(f"every cell diverged ({len(ranked)} cells)", file=sys.stderr)
        return 3
    print(f"best cell: {json.dumps(ranked[0])}")
    return 0


def cmd_eval(args) -> int:
    spec, params, head = load_checkpoint(args.checkpoint)
    (ds,) = _load_sets(args, spec.head, 1)
    loss, metric = harness.evaluate(spec, params, head, ds)
    metric_name = "rmse" if spec.head == "regression" else "accuracy"
    print(f"test_loss {loss!r} {metric_name} {metric!r}")
    return 0


def cmd_gradcheck(args) -> int:
    _check_cell_flags(args)
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    _check_at_least("--seed", args.seed, 0)
    activation = args.activation or ModelSpec.activation  # an lstm is checked against the relu bound
    bound = GRADCHECK_BOUNDS[activation]
    ok = True
    for head, classes in (("regression", 0), ("softmax", 10)):
        spec = ModelSpec(
            cell=args.cell,
            hidden=5,
            input_dim=2,
            head=head,
            activation=activation,
            classes=classes,
            forget_bias=args.forget_bias if args.forget_bias is not None else ModelSpec.forget_bias,
        )
        report = check_model(spec, trials=args.trials, seed=args.seed)
        status = "ok" if report.max_rel_err < bound else "FAIL"
        ok = ok and report.max_rel_err < bound
        print(
            f"{args.cell}/{activation}/{head}: max_rel_err {report.max_rel_err:.3e}"
            f" (bound {bound:g}, worst block {report.worst_block()},"
            f" {args.trials} trials, {report.redrawn} redrawn) {status}"
        )
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"irnnlab: error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"irnnlab: error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"irnnlab: divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
