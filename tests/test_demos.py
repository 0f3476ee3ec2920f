"""Smoke test: every demo script runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccnr

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(ccnr.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_state_file_demo_removes_its_temporary_directory(tmp_path):
    demo = next(path for path in DEMOS if path.name.startswith("05_"))
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(ccnr.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "TMPDIR": str(tmpdir)}
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "ccnr_demo_" in done.stdout  # the demo did write under TMPDIR
    assert not list(tmpdir.glob("ccnr_demo_*"))
