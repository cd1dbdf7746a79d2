"""Smoke test: every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


def test_shifted_triples_prints_the_pair_collision_maxima():
    # the pair-collision maxima of the thm2 desk sets B and C
    out = _run(ROOT / "demos" / "harvest_shifted_triples.py").stdout
    assert "b-set (7, 713713), c-set (4, 6582)" in out
