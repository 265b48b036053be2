"""Every CLI output of this checkout, byte for byte, against committed digests.

``tools/cli_outputs.py`` runs the CLI on small fixed inputs and keeps every file and log it
leaves; ``golden/cli_outputs.sha256`` holds one SHA-256 per file. The bits are reproducible
on one numpy, one OpenBLAS and one CPU kernel set only, so the file records those, and on
any other the test skips and names both. A change that moves output bits on purpose
re-records the file (and says why):

    PYTHONPATH=src python tests/test_cli_golden.py

which prints each file whose digest changed, is new or is gone against the file it
replaces, then their count.
"""

from __future__ import annotations

import ctypes
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_outputs.sha256"


def platform_lines() -> list[str]:
    """numpy's version, its OpenBLAS's version and run-time kernel core, and the SIMD
    extensions numpy found on this CPU, as ``# `` comment lines."""
    config = np.show_config(mode="dicts")
    core = "unknown"
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode("ascii")
    return [
        f"# numpy {np.__version__}",
        f"# openblas {config['Build Dependencies']['blas']['version']} core {core}",
        f"# simd {' '.join(config['SIMD Extensions']['found'])}",
    ]


def capture_digests(out: Path) -> dict[str, str]:
    """Run ``tools/cli_outputs.py`` on this checkout into ``out``; the SHA-256 of each file it left."""
    subprocess.run([sys.executable, str(ROOT / "tools" / "cli_outputs.py"), "--src", str(ROOT),
                    "--out", str(out)], check=True, capture_output=True, timeout=600)
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_cli_outputs_match_golden_digests(tmp_path):
    lines = GOLDEN.read_text(encoding="ascii").splitlines()
    recorded = [line for line in lines if line.startswith("# ")]
    current = platform_lines()
    if recorded != current:
        pytest.skip(f"digests recorded under {', '.join(line[2:] for line in recorded)};"
                    f" this is {', '.join(line[2:] for line in current)}")
    expected = dict(reversed(line.split("  ", 1)) for line in lines if not line.startswith("# "))
    actual = capture_digests(tmp_path / "out")
    changed = sorted(name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name))
    assert changed == [], f"outputs differ from {GOLDEN.name} (missing, new or changed): {changed}"


if __name__ == "__main__":
    old = dict(reversed(line.split("  ", 1)) for line in GOLDEN.read_text(encoding="ascii").splitlines()
               if not line.startswith("# "))
    with tempfile.TemporaryDirectory() as tmp:
        digests = capture_digests(Path(tmp) / "out")
    GOLDEN.write_text("".join(f"{line}\n" for line in platform_lines())
                      + "".join(f"{digest}  {name}\n" for name, digest in digests.items()), encoding="ascii")
    moved = sorted(name for name in old.keys() | digests.keys() if old.get(name) != digests.get(name))
    for name in moved:
        print(f"{'new' if name not in old else 'gone' if name not in digests else 'changed'}  {name}")
    print(f"wrote {GOLDEN} ({len(digests)} digests, {len(moved)} moved)")
