"""Smoke test: the quick narrative demos run to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    ["01_data_and_masks.py", "02_informativeness_scores.py", "03_fused_posteriors.py"],
)
def test_demo_runs(demo, src_env):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        capture_output=True, text=True, env=src_env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
