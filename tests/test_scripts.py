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
