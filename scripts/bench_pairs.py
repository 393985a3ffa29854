"""Run the benchmark on a parent commit and on this checkout in alternating
pairs, and write every result with its summary to ``BENCH_<tag>.json``.

Usage, from the root of a checkout::

    python3 scripts/bench_pairs.py --parent REV --tag TAG \\
        --workload wide-gauss=10 --workload toy-pipeline=3 --seconds 30

The parent's files are exported with ``git archive REV`` into a temporary
directory, and the change's into another: the files of this checkout's
working tree that ``git ls-files --cached --others --exclude-standard``
lists, with their uncommitted edits, less those deleted from the disk.  So
neither side runs with a ``.git``, ``__pycache__`` or ``.pytest_cache`` the
other lacks (run from the checkout itself, wide-gauss read about 1 MB more
``peak_rss_mb`` with identical code).  For each
``--workload NAME=PAIRS``, pair i runs the unchanged
``perfbench/run.py --workload NAME --seed S --seconds SECONDS`` once in each
tree, both at seed S = ``--first-seed`` + i, the parent first in even pairs
and the change first in odd ones.  ``BENCH_<TAG>.json`` holds every result
line (the JSON object perfbench prints last) and, for each workload and each
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles,
the number of pairs the change won (ties count for neither side), and
whether the change won at least nine tenths of the pairs with its median
ahead of the parent's by more than the parent's interquartile range.  Three
more fields read the no-regression rule against the metric's ``bound``:
``worse_by``, how far the change's median falls behind the parent's as a
share of the parent's median (negative where it is ahead); ``within_bound``,
whether that share is at most the bound; and ``unresolved``, whether the
parent's interquartile range, as a share of its median, is wider than the
bound while not every change run beats every parent run, so that the runs
spread too widely to tell.  The file is rewritten after every pair, so an
interrupted run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _value(run: dict, metric: str):
    return run["result"].get("metrics", {}).get(metric, {}).get("value")


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: each side's median and quartiles over its
    runs, the pairs the change won and the no-regression fields.  ``runs``
    are the records this script writes (``workload``, ``pair``, ``side``,
    ``result``); ``metrics`` the ``end_to_end`` entries of ``BENCHMARK.json``
    (``name``, ``better``, ``bound``).  A parent median of 0 has no shares,
    so its metric gets no no-regression fields."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        entry = {
            "pairs": len(pairs),
            "correct": {s: sum(bool(r["result"].get("correct")) for r in mine if r["side"] == s)
                        for s in SIDES},
            "metrics": {},
        }
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            by_pair = {(r["pair"], r["side"]): _value(r, name) for r in mine}
            sides, values = {}, {}
            for side in SIDES:
                values[side] = [v for p in pairs if (v := by_pair.get((p, side))) is not None]
                if values[side]:
                    q1, median, q3 = quartiles(values[side])
                    sides[side] = {"median": median, "q1": q1, "q3": q3, "n": len(values[side])}
            won = compared = 0
            for p in pairs:
                old, new = by_pair.get((p, "parent")), by_pair.get((p, "change"))
                if old is None or new is None:
                    continue
                compared += 1
                won += new > old if higher else new < old
            row = {**sides, "better": metric["better"], "pairs_compared": compared,
                   "change_won": won}
            if len(sides) == 2:
                gap = sides["change"]["median"] - sides["parent"]["median"]
                ahead = gap > 0 if higher else gap < 0
                spread = sides["parent"]["q3"] - sides["parent"]["q1"]
                row["claim_rule_met"] = bool(
                    compared and won >= 0.9 * compared and ahead and abs(gap) > spread
                )
                scale = abs(sides["parent"]["median"])
                if scale:
                    worse_by = (-gap if higher else gap) / scale
                    old, new = values["parent"], values["change"]
                    beats_all = min(new) > max(old) if higher else max(new) < min(old)
                    row["worse_by"] = worse_by
                    row["within_bound"] = worse_by <= metric["bound"]
                    row["unresolved"] = spread / scale > metric["bound"] and not beats_all
            entry["metrics"][name] = row
        out[workload] = entry
    return out


def export_worktree(root: Path, dest: Path) -> None:
    """Copy into ``dest`` the files of the working tree at ``root`` that git
    tracks or would track, as they are on the disk; a tracked file deleted
    from the disk is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` invocation in ``tree``; its last stdout line
    as a dict, or ``{"error": ...}`` if it printed none."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {done.returncode}: {done.stderr[-2000:]}"}


def _workload_pairs(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition("=")
    if not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected NAME=PAIRS, got {text!r}")
    return name, int(pairs)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    p.add_argument("--workload", type=_workload_pairs, action="append", required=True,
                   metavar="NAME=PAIRS")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--first-seed", type=int, default=1)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_sha = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out_path = ROOT / f"BENCH_{args.tag}.json"
    doc = {
        "parent": parent_sha,
        "change": "working tree of " + subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True,
            text=True).stdout.strip() + ", exported from git ls-files into its own directory",
        "argv": sys.argv if argv is None else argv,
        "seconds": args.seconds,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "runs": [],
        "summary": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        change = Path(tmp) / "change"
        export_worktree(ROOT, change)
        trees = {"parent": parent, "change": change}
        for workload, n_pairs in args.workload:
            for pair in range(n_pairs):
                seed = args.first_seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result = run_perfbench(trees[side], workload, seed, args.seconds)
                    doc["runs"].append({"workload": workload, "pair": pair, "seed": seed,
                                        "side": side, "order": position, "result": result})
                    print(f"{workload} seed={seed} {side}: {json.dumps(result)}", flush=True)
                doc["summary"] = summarize(doc["runs"], metrics)
                out_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
