"""The scripts in scripts/ still run against the package.

``resample_study.py`` rebinds ``_field_groups`` and ``compress_measure`` in
``stableconv.limits`` by name, so a rename there breaks it without any
other test failing.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stableconv as sc

ROOT = Path(__file__).resolve().parents[1]
STUDY = ROOT / "scripts" / "resample_study.py"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_study(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(STUDY), *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_resample_study_prints_one_row_per_rule():
    proc = run_study("50", "2")
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = proc.stdout.splitlines()[2:]
    assert [row[:16].strip() for row in rows] == ["full", "K=M", "shared K=M/10", "grouped K=M/10"]


def test_resample_study_needs_two_seeds():
    proc = run_study("50", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")


def test_measure_value_digest_hashes_the_values(tmp_path):
    digest = load_script("output_digests").measure_value_digest
    m = sc.SpectralMeasure(1.5, [0.5, 0.25], [[1.0, 0.0], [0.6, 0.8]], bias_index=1)
    sc.save_measure(m, tmp_path / "m.txt")
    expected = hashlib.sha256(
        np.array([1.5, 1.0, 0.5, 0.25, 1.0, 0.0, 0.6, 0.8], dtype="<f8").tobytes()
    ).hexdigest()
    assert digest(tmp_path / "m.txt") == expected
    # one ulp of one weight, or the bias tag alone, changes the digest
    variants = [
        sc.SpectralMeasure(1.5, [0.5, np.nextafter(0.25, 1.0)], m.directions, bias_index=1),
        sc.SpectralMeasure(1.5, m.weights, m.directions),
    ]
    for i, other in enumerate(variants):
        sc.save_measure(other, tmp_path / f"v{i}.txt")
        assert digest(tmp_path / f"v{i}.txt") != expected


def test_csv_rounded_digest_hashes_values_at_ten_digits(tmp_path):
    digest = load_script("output_digests").csv_rounded_digest
    path = tmp_path / "sweep.csv"
    path.write_text("C,n_replicas,sup_cf_dist,seconds\n64,10000,0.00517548348301,0.000\n")
    expected = hashlib.sha256(b"C,n_replicas,sup_cf_dist,seconds\n64,10000,0.005175483483,0").hexdigest()
    assert digest(path) == expected
    # a move in the last printed digits keeps the digest; one in the tenth
    # significant digit, or in an integer cell, changes it
    for text, same in [("64,10000,0.005175483483,0.000", True),
                       ("64,10000,0.005175483484,0.000", False),
                       ("64,10001,0.00517548348301,0.000", False)]:
        path.write_text(f"C,n_replicas,sup_cf_dist,seconds\n{text}\n")
        assert (digest(path) == expected) == same, text


def _bench_run(pair, side, wall, peak, setup, correct=True):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": peak, "unit": "MB"},
               "setup_s": {"value": setup, "unit": "s"}}
    return {"workload": "w", "pair": pair, "seed": pair + 1, "side": side,
            "result": {"correct": correct, "metrics": metrics}}


def test_bench_pairs_summary_on_canned_results():
    summarize = load_script("bench_pairs").summarize
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.05},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
               {"name": "setup_s", "better": "lower", "bound": 0.25},
               {"name": "work_per_s", "better": "higher", "bound": 0.25}]
    parent_peaks = [184.0, 183.9, 185.2, 184.1, 183.8]
    change_peaks = [143.8, 143.9, 184.1, 145.4, 143.7]
    walls = [(1.9, 1.8), (1.8, 1.8), (1.7, 1.9), (2.0, 1.9), (1.85, 1.80)]
    setups = [(0.20, 0.30), (0.21, 0.29), (0.20, 0.31), (0.19, 0.30), (0.20, 0.28)]
    runs = []
    for pair, ((old_wall, new_wall), old_peak, new_peak, (old_setup, new_setup)) in enumerate(
            zip(walls, parent_peaks, change_peaks, setups)):
        runs += [_bench_run(pair, "parent", old_wall, old_peak, old_setup),
                 _bench_run(pair, "change", new_wall, new_peak, new_setup, correct=pair != 4)]
    summary = summarize(runs, metrics)["w"]
    assert summary["pairs"] == 5
    assert summary["correct"] == {"parent": 5, "change": 4}
    peak = summary["metrics"]["peak_rss_mb"]
    assert peak["parent"] == {"median": 184.0, "q1": 183.9, "q3": 184.1, "n": 5}
    assert peak["change"]["median"] == 143.9
    # the change's one high reading (184.1) still beats its pair's 185.2
    assert (peak["change_won"], peak["pairs_compared"]) == (5, 5)
    assert peak["claim_rule_met"]
    # within the bound: ahead by 21.8%, on a parent spread of 0.1%
    assert peak["worse_by"] == pytest.approx((143.9 - 184.0) / 184.0)
    assert peak["within_bound"] and not peak["unresolved"]
    wall = summary["metrics"]["wall_s"]
    # one tie (pair 1) counts for neither side, one loss (pair 2)
    assert (wall["change_won"], wall["pairs_compared"]) == (3, 5)
    assert not wall["claim_rule_met"]
    # unresolved: ahead by 2.7%, but the parent's quartiles (1.8, 1.9) span
    # 5.4% of its median, wider than the bound, and the change's 1.9 does
    # not beat the parent's 1.7
    assert wall["worse_by"] == pytest.approx((1.8 - 1.85) / 1.85)
    assert wall["within_bound"] and wall["unresolved"]
    # beyond the bound: behind by half the parent's median
    setup = summary["metrics"]["setup_s"]
    assert setup["worse_by"] == pytest.approx(0.5)
    assert not setup["within_bound"] and not setup["unresolved"]
    # a metric no run reports has no sides and no pairs
    assert summary["metrics"]["work_per_s"] == {"better": "higher", "pairs_compared": 0,
                                                "change_won": 0}


def test_bench_pairs_rejects_a_workload_without_pairs():
    parse = load_script("bench_pairs").parse_args
    assert parse(["--parent", "HEAD", "--tag", "t", "--workload", "deep-limit=3"]).workload == [
        ("deep-limit", 3)]
    for bad in ("deep-limit", "deep-limit=0", "deep-limit=x"):
        with pytest.raises(SystemExit):
            parse(["--parent", "HEAD", "--tag", "t", "--workload", bad])


def test_bench_pairs_exports_the_working_tree(tmp_path):
    export = load_script("bench_pairs").export_worktree
    repo, dest = tmp_path / "repo", tmp_path / "change"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    files = {".gitignore": "__pycache__/\n.pytest_cache/\n", "kept.py": "x = 1\n",
             "sub/edited.py": "y = 1\n", "deleted.py": "z = 1\n",
             "__pycache__/kept.pyc": "", ".pytest_cache/v": ""}
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    # after staging: an edit, a deletion and a new untracked file
    (repo / "sub/edited.py").write_text("y = 2\n")
    (repo / "deleted.py").unlink()
    (repo / "new.py").write_text("w = 1\n")
    export(repo, dest)
    exported = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert exported == [".gitignore", "kept.py", "new.py", "sub/edited.py"]
    assert (dest / "sub/edited.py").read_text() == "y = 2\n"
    assert not any((dest / name).exists() for name in (".git", "__pycache__", ".pytest_cache"))
