"""The fixture pipeline reproduces the bundled data byte for byte."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "derive_covers.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("derive_covers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_matches_bundled_fixtures():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "fixtures match"


def test_diff_trees_reports_changed_missing_and_extra_files(tmp_path):
    diff_trees = _load_script().diff_trees
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.json").write_text("{}\n")
    (a / "sub" / "changed.json").write_text('{"x": 1}\n')
    (b / "sub" / "changed.json").write_text('{"x": 2}\n')
    (a / "only_a.json").write_text("{}\n")
    (b / "only_b.json").write_text("{}\n")
    assert diff_trees(a, b) == ["only_a.json", "only_b.json", "sub/changed.json"]
    assert diff_trees(a, a) == []
