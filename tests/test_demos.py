"""Smoke test: the bundled demos run to completion.

Demo 02 is left out: it takes over a minute, and the acceptance test of
criterion 2 already proves its result.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitz as hw

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_degree25_cover.py",
        "03_class_kinds_and_condition_e.py",
        "04_lifting_invariants.py",
        "05_goursat_distinctness.py",
    ],
)
def test_demo_exits_zero(name):
    src = str(Path(hw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
