"""Benchmark entry point: run one workload, or all of them, each in a fresh process.

    python3 perfbench/run.py                              # every workload, untraced
    python3 perfbench/run.py --workload adding-irnn-train --seed 3 --seconds 20
    python3 perfbench/run.py --workload pmnist-irnn-eval --trace 1

Each workload runs in its own interpreter (``workload.py``) whose
environment pins the BLAS thread count before numpy loads. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json untraced, the
per-layer metrics with ``--trace 1``). Everything above it is a
human-readable report. The script uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {  # name: BLAS threads of the workload process
    "adding-irnn-train": 1,
    "adding-lstm-train": 1,
    "pmnist-irnn-eval": 2,
    "adding-tanh-grid": 1,
}
TIMEOUT_S = 175


def run_one(name: str, seed: int, seconds: float, trace: int, size: str, record: bool = False) -> dict:
    """Start ``workload.py`` for one workload, wait for it, and return its result."""
    work = HERE / "_work" / f"run-{os.getpid()}-{name}"
    out = HERE / "_work" / f"result-{os.getpid()}-{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    threads = str(WORKLOADS[name])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size, "--work", str(work),
           "--out", str(out)] + (["--record"] if record else [])
    # A session of its own, so a timeout also stops the grid's pool workers.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=None if record else TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{name}: no result within {TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)  # already gone unless the process was killed
    if code != 0 or not out.exists():
        raise RuntimeError(f"{name}: workload process exited with code {code}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(res: dict) -> None:
    """Print one workload's result for a reader: metrics, failures and environment."""
    name = res["workload"]
    attempted, failed = len(res["walls"]), len(res["failures"])
    print(f"== {name}  seed={res['seed']} (input variant {res['variant']}, size {res['size']})")
    for metric, (value, unit) in {**res["metrics"], **res.get("named", {})}.items():
        print(f"  {metric:<32} {_fmt(value):>14} {unit}")
    print(f"  {'failed_frac':<32} {_fmt(failed / attempted):>14} fraction  ({failed} of {attempted} operations)")
    for metric, value in res.get("detail", {}).items():
        if metric == "self_ms_per_op":
            print("  self time per operation (ms):")
            for span, ms in value.items():
                print(f"    {span:<30} {_fmt(ms):>14}")
        else:
            print(f"  {metric:<32} {_fmt(value[0]):>14} {value[1]}")
    for failure in list(dict.fromkeys(res["failures"]))[:5]:  # distinct failures
        print(f"  FAILED: {failure}")
    print(f"  setup runs (s): {' '.join(_fmt(t) for t in res['setup_times'])}")
    print(f"  operation walls (s): {' '.join(_fmt(t) for t in res['walls'])}")
    if "trace_file" in res:
        print(f"  spans written to {res['trace_file']}")
    print("  environment: " + json.dumps(res["environment"], sort_keys=True))


def record_references() -> None:
    """Rewrite reference.json with the outcomes of the current program (full and tiny sizes)."""
    refs: dict = {}
    for size in ("tiny", "full"):
        for name in WORKLOADS:
            refs.setdefault(size, {})[name] = run_one(name, 0, 0, 0, size, record=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run the irnnlab benchmark.")
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every shape (smoke test); full is the measured benchmark")
    p.add_argument("--record-references", action="store_true",
                   help="record the current program's outcomes as the reference (all sizes, all seeds)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "irnnlab" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'irnnlab'} is missing", file=sys.stderr)
        return 2
    if args.record_references:
        record_references()
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_one(n, args.seed, args.seconds, args.trace, args.size) for n in names]
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
    attempted = sum(len(r["walls"]) for r in results)
    failed = sum(len(r["failures"]) for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
