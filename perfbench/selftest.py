"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Each workload runs at a tiny size with no failed operation, and the output
checks are shown to catch a deliberately wrong result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ccnr  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _ops(name, tmp_path, rounds=2, seed=7):
    workload = workloads.WORKLOADS[name](seed, tmp_path, tiny=True)
    return [op for _, ops in zip(range(rounds), workload.rounds()) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_has_no_failures(name, tmp_path):
    tally = run.Tally()
    for op in _ops(name, tmp_path):
        tally.add(run.run_op(op)[2])
    assert tally.attempted > 0
    assert tally.failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_tau_is_caught(name, tmp_path, monkeypatch):
    true_tau = ccnr.criteria.ccnr_tau
    monkeypatch.setattr(ccnr.criteria, "ccnr_tau", lambda rho: true_tau(rho) + 1e-6)
    problems = [run.run_op(op)[2] for op in _ops(name, tmp_path, rounds=1)]
    assert all(problems), problems


def test_state_file_that_does_not_round_trip_is_caught(tmp_path, monkeypatch):
    write = ccnr.cli.write_state_file

    def skewed(path, state):
        matrix = state.matrix.copy()
        matrix[0, 0] += 2**-40
        matrix[-1, -1] -= 2**-40
        write(path, ccnr.DensityOperator(matrix, state.dim_a, state.dim_b))

    monkeypatch.setattr(ccnr.cli, "write_state_file", skewed)
    problems = [run.run_op(op)[2] for op in _ops("files-n144", tmp_path, rounds=1)]
    assert all(p and "parse back" in p for p in problems), problems


def test_failing_exit_code_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(ccnr.cli, "main", lambda argv: 2)
    problems = [run.run_op(op)[2] for op in _ops("sweep-families", tmp_path, rounds=1)]
    assert all(p and "exit code" in p for p in problems), problems


def test_reference_agrees_with_closed_forms():
    for f in (-1.0, -0.5, 0.2, 1.0):
        tau = workloads.reference.criteria(workloads.reference.werner(3, f), 3, 3)[0]
        assert tau == pytest.approx(ccnr.tau_werner_closed(3, f), abs=1e-12)
    for alpha in (2.0, 3.5, 5.0):
        tau = workloads.reference.criteria(workloads.reference.qutrit(alpha), 3, 3)[0]
        assert tau == pytest.approx(ccnr.tau_qutrit_family_closed(alpha), abs=1e-12)


@pytest.mark.parametrize("name, per_verdict", [
    ("sweep-families", 5), ("files-n144", 6), ("report-n144", 5),
])
def test_trace_counts_decompositions_and_restores_the_program(name, per_verdict, tmp_path):
    originals = (ccnr.full_report, ccnr.criteria.ccnr_tau, ccnr.DensityOperator.__init__)
    tracer = tracing.Tracer()
    with tracer.installed():
        for op_id, op in enumerate(_ops(name, tmp_path, rounds=1)):
            assert run.run_op(op, tracer, op_id)[2] is None
    assert (ccnr.full_report, ccnr.criteria.ccnr_tau, ccnr.DensityOperator.__init__) == originals
    metrics = tracing.layer_metrics(tracing.aggregate(tracer.spans))
    assert metrics["linalg.decompositions_per_verdict"] == per_verdict
    assert set(metrics) | {"trace.overhead_ratio"} == set(tracing.PER_LAYER)


def test_scaling_cancels_a_uniform_slowdown():
    class Workload:
        round_size, round_calibration_s, tail_pct = 2, 1.0, 50

    fast = [[(0.1, 0.5, 1, {}), (0.3, 0.5, 1, {})]]
    slow = [[(0.2, 1.0, 1, {}), (0.6, 1.0, 1, {})]]
    a, b = run.timings(fast, Workload, True), run.timings(slow, Workload, True)
    assert a["op_ms_p50"] == pytest.approx(b["op_ms_p50"]) == pytest.approx(200.0)
    assert a["throughput_per_s"] == pytest.approx(b["throughput_per_s"]) == pytest.approx(5.0)
    assert run.timings(slow, Workload, False)["op_ms_p50"] == pytest.approx(400.0)


def test_self_time_subtracts_direct_children():
    spans = [
        ("op.x", 0.0, 1.0, -1, 0, 0),
        ("a", 0.1, 0.6, 0, 0, 0),
        ("b", 0.2, 0.3, 1, 0, 0),
        ("b", 0.7, 0.9, 0, 0, 0),
    ]
    totals = tracing.aggregate(spans)
    assert totals["op.x"][2] == pytest.approx(300.0)
    assert totals["a"][2] == pytest.approx(400.0)
    assert totals["b"][:2] == [2, pytest.approx(300.0)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "report-n144",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
