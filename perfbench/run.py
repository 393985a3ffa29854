"""The stableconv benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``perfbench/workloads.py`` through the public CLI
(``stableconv.cli.main``) with the sources under ``./src``.  Every execution
is a fresh process with a fresh output directory.  Executions repeat, all on
the same seed, until the next one would take them past ``--seconds`` (at
least three).  The first one's outputs are checked; every later one must
reproduce its CSVs and measures byte for byte.  Before each execution,
set-up is also timed in processes that stop after ``build_spec``.

``--trace 0`` reports the end-to-end metrics, as medians over executions.
``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of standard output is one JSON object; earlier lines describe each
execution.  All outputs go under ``.perfbench_out/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import tracing
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # per execution; set-up is short and jittery, so it is sampled more
MIN_EXECUTIONS = 3
MAX_EXECUTIONS = 50
DEADLINE_S = 165  # a run must end within 180 s


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full", help="tiny is for smoke tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


class Ledger:
    """Operations attempted and failed: CLI commands and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}".rstrip(), file=sys.stderr)
        return ok


class Bench:
    """One invocation.  This process stays small and imports neither numpy
    nor stableconv: an exec'd child's ``ru_maxrss`` starts from its parent's
    peak, so a large parent would show up in every execution's memory."""

    def __init__(self, root: Path, base: Path, args):
        self.deadline = _now() + DEADLINE_S
        self.root = root
        self.base = base
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.ini = base / "workload.ini"
        self.ini.write_text(self.workload.ini(args.seed, args.size))
        self.work = self.workload.work_units(args.size)
        self.ledger = Ledger()
        self.first_hashes = None
        self.content = {"read_measure_s": 0.0, "sups": [], "oracle": {}}
        pythonpath = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))

    def _call(self, argv: list[str], log: Path) -> int:
        """Runs a Python script of the benchmark to completion, or kills it
        and its workers at the run's deadline; returns its exit code."""
        with open(log, "w") as fh:
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=self.root,
                env=self.env,
                stdout=fh,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                return proc.wait(timeout=max(self.deadline - _now(), 0.1))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                print(f"killed {argv[0]} at the run's deadline", file=sys.stderr)
                return -1

    def spawn(self, name: str, trace: bool = False, setup_only: bool = False) -> tuple[dict, Path]:
        """Runs child.py once; returns its result (empty if it died) and its
        directory."""
        d = self.base / name
        d.mkdir()
        job = {
            "ini": str(self.ini),
            "out": str(d / "out"),
            "commands": [list(c) for c in self.workload.commands],
            "trace": trace,
            "setup_only": setup_only,
            "run_id": f"{self.workload.name}-s{self.args.seed}-{name}",
            "result": str(d / "result.json"),
            "trace_path": str(d / "trace.json"),
        }
        (d / "job.json").write_text(json.dumps(job))
        t0 = _now()
        rc = self._call([str(HERE / "child.py"), str(d / "job.json"), repr(t0)], d / "child.log")
        if rc != 0 or not (d / "result.json").exists():
            tail = (d / "child.log").read_text()[-2000:]
            print(f"child {name} exited {rc}:\n{tail}", file=sys.stderr)
            return {}, d
        result = json.loads((d / "result.json").read_text())
        src = self.root / "src"
        if not Path(result["stableconv"]).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"stableconv imported from {result['stableconv']}, not {src}")
        return result, d

    def setup_times(self, index: int) -> list[float]:
        times = []
        for i in range(SETUP_PROBES):
            result, d = self.spawn(f"setup{index:02d}.{i}", setup_only=True)
            if self.ledger.record("set-up", bool(result), "set-up process failed"):
                times.append(result["setup_s"])
            shutil.rmtree(d)
        return times

    def execute(self, index: int, trace: bool) -> dict | None:
        """One execution and its checks; returns its measurements."""
        name = f"e{index:02d}{'t' if trace else ''}"
        start = _now()
        result, d = self.spawn(name, trace=trace)
        elapsed = _now() - start
        commands = result.get("commands", [])
        ok = True
        for i, argv in enumerate(self.workload.commands):
            if i >= len(commands):
                ok = self.ledger.record(argv[0], False, "did not run")
                continue
            entry = commands[i]
            detail = entry["error"] or f"exit code {entry['rc']}"
            ok &= self.ledger.record(argv[0], entry["rc"] == 0 and entry["error"] is None, detail)
        runs = list((d / "out").glob("*")) if (d / "out").exists() else []
        row = None
        if ok and len(runs) == 1:
            self.check_outputs(runs[0], d)
            row = {
                "name": name,
                "trace": trace,
                "setup_s": result["setup_s"],
                "wall_s": sum(e["s"] for e in commands),
                "peak_rss_mb": result["peak_rss_mb"],
                "elapsed_s": elapsed,
            }
            if trace:
                row["layers"] = layers.trace_metrics(*tracing.load_trace(d / "trace.json"))
        shutil.rmtree(d)
        return row

    def check_outputs(self, run: Path, d: Path) -> None:
        """The first successful execution's outputs get the content checks of
        checks.py; every later one must reproduce them byte for byte."""
        hashes = output_hashes(run)
        if self.first_hashes is not None:
            self.ledger.record(
                "byte-identical re-run",
                hashes == self.first_hashes,
                "outputs differ from the first execution",
            )
            return
        self.first_hashes = hashes
        job = {
            "ini": str(self.ini),
            "run": str(run),
            "commands": [argv[0] for argv in self.workload.commands],
            "reference": self.workload.reference_check,
            "result": str(d / "checks.json"),
        }
        (d / "checks_job.json").write_text(json.dumps(job))
        rc = self._call([str(HERE / "checks.py"), str(d / "checks_job.json")], d / "checks.log")
        if rc != 0 or not (d / "checks.json").exists():
            self.ledger.record("content checks", False, (d / "checks.log").read_text()[-2000:])
            return
        result = json.loads((d / "checks.json").read_text())
        for what, ok, detail in result["ops"]:
            self.ledger.record(what, ok, detail)
        for note in result["notes"]:
            print(note, flush=True)
        self.content = result["content"]

    def run(self) -> dict:
        _, d = self.spawn("warmup", setup_only=True)  # compiles bytecode, fills the file cache
        shutil.rmtree(d)
        setups, rows = [], []
        spent = 0.0  # in executions, without set-up probes and checks
        for index in range(MAX_EXECUTIONS):
            # stop before the next execution would overrun --seconds
            if index >= MIN_EXECUTIONS and spent * (index + 1) / index > self.args.seconds:
                break
            if _now() > self.deadline:
                break
            # spread over the run, so that set-up sees the machine as the executions do
            setups += self.setup_times(index)
            trace = bool(self.args.trace) and index % 2 == 1
            row = self.execute(index, trace)
            if row is not None:
                spent += row["elapsed_s"]
                rows.append(row)
                print(_describe(row), flush=True)
        return self.report(rows, setups)

    def report(self, rows: list[dict], setups: list[float]) -> dict:
        plain = [r for r in rows if not r["trace"]]
        traced = [r for r in rows if r["trace"]]
        measured = bool(plain) and (bool(traced) or not self.args.trace)
        metrics = {}
        if measured and not self.args.trace:
            wall = _median(r["wall_s"] for r in plain)
            metrics = {
                "setup_s": (_median(setups + [r["setup_s"] for r in rows]), "s"),
                "wall_s": (wall, "s"),
                "work_per_s": (self.work / wall, "1/s"),  # work units: see workloads.py
                "peak_rss_mb": (_median(r["peak_rss_mb"] for r in plain), "MB"),
                "ok_ops_ratio": (1.0 - self.ledger.failed / self.ledger.attempted, "ratio"),
            }
        elif measured:
            values = {
                name: _median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
            }
            values.update(self.output_metrics())
            plain_wall = _median(r["wall_s"] for r in plain)
            overhead = _median(r["wall_s"] for r in traced) - plain_wall
            values["trace.overhead_s"] = overhead
            values["trace.overhead_ratio"] = overhead / plain_wall
            metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
        print(
            f"{self.workload.name} seed={self.args.seed}: {len(rows)} executions "
            f"({len(traced)} traced), {self.work} {self.workload.work_unit} each, "
            f"{len(setups)} set-up processes",
            flush=True,
        )
        return {
            "correct": measured and self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def output_metrics(self) -> dict[str, float]:
        """Per-layer metrics read from the program's own CSVs by the content
        checks."""
        sups = dict(self.content["sups"])
        out = {f"verify.sup_cf_dist.C{c}": sups.get(c, 0.0) for c in layers.CHANNELS}
        out["verify.noise_floor"] = self.content.get("noise_floor", 0.0)
        ordered = [sups[c] for c in sorted(sups)]
        out["verify.decrease_margin"] = ordered[0] - ordered[-1] if ordered else 0.0
        out["verify.oracle_diag_rel_err"] = self.content["oracle"].get("max_diag_rel_err", 0.0)
        out["stable.read_measure.s"] = self.content["read_measure_s"]
        return out


def output_hashes(run: Path) -> dict[str, str]:
    """SHA-256 of every CSV and saved measure, keyed by relative path."""
    out = {}
    for path in sorted(run.glob("*.csv")) + sorted(run.glob("measures/*.txt")):
        with open(path, "rb") as fh:
            out[str(path.relative_to(run))] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def _median(values) -> float:
    return float(statistics.median(list(values)))


def _describe(row: dict) -> str:
    kind = "traced" if row["trace"] else "untraced"
    return (
        f"{row['name']} {kind}: setup {row['setup_s']:.4f} s, wall {row['wall_s']:.4f} s, "
        f"peak {row['peak_rss_mb']:.1f} MB"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "stableconv" / "__init__.py").is_file():
        print("error: no stableconv sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    out_root = root / ".perfbench_out"
    base = out_root / f"{args.workload}-{os.getpid()}"
    base.mkdir(parents=True)
    try:
        result = Bench(root, base, args).run()
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass  # another invocation is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
