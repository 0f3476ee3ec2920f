"""Smoke test: every demo script, and every Python example of the README, runs to the end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ccnr

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def _run(argv, tmpdir, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(ccnr.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "TMPDIR": str(tmpdir)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=60)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    done = _run([str(demo)], tmp_path, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"example-{i}" for i in range(len(README_BLOCKS))])
def test_readme_example_runs(block, tmp_path):
    done = _run(["-c", block], tmp_path, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_state_file_demo_removes_its_temporary_directory(tmp_path):
    demo = next(path for path in DEMOS if path.name.startswith("05_"))
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    done = _run([str(demo)], tmpdir, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "ccnr_demo_" in done.stdout  # the demo did write under TMPDIR
    assert not list(tmpdir.glob("ccnr_demo_*"))


def test_the_package_runs_as_a_module(tmp_path):
    done = _run(["-m", "ccnr", "--help"], tmp_path, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ccnr ")
