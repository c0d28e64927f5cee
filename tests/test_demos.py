"""Every demo runs to exit 0, and the sweep demo reproduces its committed outputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a copy writes its output/ beside itself, so the committed one stays put
    shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, demo.name], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "concave_fitting":
        assert "concave input reproduced to 0.0\n" in proc.stdout
    if demo.stem == "kemperman_intervals":
        assert "->  no violations\n" in proc.stdout
    if demo.stem == "stability_sweep":
        for name in ("bites_sweep.csv", "bites_sweep.svg"):
            got = (tmp_path / "output" / name).read_bytes()
            assert got == (ROOT / "demos" / "output" / name).read_bytes(), name
