"""The study scripts start: each imports what it needs from the package and
prints its usage."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["energy_study.py", "refinement_ladder.py",
                                    "kalman_benchmark.py", "node_cost.py",
                                    "bundle_hashes.py", "ab_pairs.py"])
def test_script_help(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
