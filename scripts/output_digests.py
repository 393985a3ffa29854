"""Print the SHA-256 of every file the benchmark workloads write at one seed.

Usage, from the root of a checkout::

    python3 scripts/output_digests.py SEED

For each workload of ``perfbench/workloads.py`` the script writes its
full-size INI file for benchmark seed SEED, runs the workload's CLI
commands in order, each in a fresh process with the sources under ``./src``
and one fresh output directory per workload, and prints one line
``<sha256>  <workload>/<path>`` per file written, ``run.log`` left out (it
holds timings).  Each measure file also gets a line
``<sha256>  <workload>/<path>:values``, the digest of the values it holds
(:func:`measure_value_digest`), which stays the same when only the file
encoding changes.  Each CSV file gets a line
``<sha256>  <workload>/<path>:rounded``, the digest of its text with every
float cell printed again at 10 significant digits
(:func:`csv_rounded_digest`), which stays the same when only the last
printed digits of its values move.  A line
``# <workload> <command> rc=<code>`` precedes each workload's digests.  Two checkouts whose outputs agree bit for bit
print the same lines.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from stableconv.stable import read_measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def measure_value_digest(path: Path) -> str:
    """SHA-256 of the measure :func:`read_measure` reads from ``path``: alpha
    and the bias index (-1 when untagged), then the weights, then the
    directions row by row, all as little-endian float64 bytes."""
    measure = read_measure(path)
    bias = -1 if measure.bias_index is None else measure.bias_index
    h = hashlib.sha256(np.array([measure.alpha, bias], dtype="<f8").tobytes())
    h.update(measure.weights.astype("<f8").tobytes())
    h.update(measure.directions.astype("<f8").tobytes())
    return h.hexdigest()


def _rounded_cell(cell: str) -> str:
    """``cell`` printed again at 10 significant digits if it is a float
    that is not an integer literal, else as it is."""
    try:
        int(cell)
        return cell
    except ValueError:
        pass
    try:
        return f"{float(cell):.10g}"
    except ValueError:
        return cell


def csv_rounded_digest(path: Path) -> str:
    """SHA-256 of the CSV text at ``path`` with every float cell printed
    again at 10 significant digits (:func:`_rounded_cell`); headers, integer
    cells and line breaks stay as they are."""
    lines = path.read_text().splitlines()
    text = "\n".join(",".join(map(_rounded_cell, line.split(","))) for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digests(name: str, seed: int, scratch: Path) -> list[str]:
    """The rc and digest lines of one workload run under ``scratch``."""
    workload = WORKLOADS[name]
    ini = scratch / f"{name}.ini"
    ini.write_text(workload.ini(seed))
    out = scratch / name
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    lines = []
    for argv in workload.commands:
        full = [argv[0], "-c", str(ini), "-o", str(out), *argv[1:]]
        done = subprocess.run(
            [sys.executable, "-m", "stableconv.cli", *full],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        lines.append(f"# {name} {' '.join(argv)} rc={done.returncode}")
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "run.log":
            lines.append(f"{_digest(path)}  {name}/{path.relative_to(out)}")
            if path.parent.name == "measures":
                lines.append(f"{measure_value_digest(path)}  {name}/{path.relative_to(out)}:values")
            if path.suffix == ".csv":
                lines.append(f"{csv_rounded_digest(path)}  {name}/{path.relative_to(out)}:rounded")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print("usage: python3 scripts/output_digests.py SEED", file=sys.stderr)
        return 2
    seed = int(args[0])
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for line in workload_digests(name, seed, Path(tmp)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
