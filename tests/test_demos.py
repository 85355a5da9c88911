"""Every demo script, and the README's minimal end-to-end block, runs to
completion: each one calls public stage functions, so an API change that
breaks a walkthrough fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=ENV, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr


def test_readme_minimal_use_exits_zero():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("Minimal end-to-end use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=ENV, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
