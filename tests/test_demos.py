"""Smoke test: the narrative demos run to completion.

Demo 05 (15 fits) is marked slow and writes its chart into the test's
temporary directory.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    ["01_data_and_masks.py", "02_informativeness_scores.py", "03_fused_posteriors.py",
     "04_train_and_cluster.py", "06_plugin_imputer.py"],
)
def test_demo_runs(demo, src_env):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        capture_output=True, text=True, env=src_env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_ratio_sweep_demo_writes_chart(tmp_path, src_env):
    out = tmp_path / "ratio_sweep.svg"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "05_selection_ratio_sweep.py"),
         str(out)],
        capture_output=True, text=True, env=src_env, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("<svg")
