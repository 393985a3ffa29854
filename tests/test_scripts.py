"""The study scripts in scripts/ still run against the package.

``resample_study.py`` rebinds ``_field_groups`` and ``compress_measure`` in
``stableconv.limits`` by name, so a rename there breaks it without any
other test failing.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STUDY = ROOT / "scripts" / "resample_study.py"


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
