"""Smoke test: the demos that write no files run to completion.

They import only from the package root, so this guards the root API.
Demo 04 writes CSVs into ``demos/out/`` and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_dominant_cdfs.py", "02_offline_kmax.py", "03_expected_rewards.py"])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
