"""The batched core against the one-state API it replaces.

Stack builders, ``validate_stack`` and ``report_stack`` must reproduce the
scalar constructors and ``full_report`` exactly, member by member, and a
blocked sweep must write the same rows as a point-by-point rebuild.
"""

import re
import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from ccnr import cli
from ccnr.cli import CSV_HEADER, main
from ccnr.criteria import CriteriaReport, full_report, report_stack
from ccnr.crossnorm import (
    gamma_bell_diagonal_closed,
    gamma_isotropic_closed,
    gamma_pure,
    gamma_werner_closed,
)
from ccnr.realign import (
    operator_schmidt,
    realign_trace,
    tau_bell_diagonal_closed,
    tau_isotropic_closed,
    tau_qubit_family_closed,
    tau_qutrit_family_closed,
    tau_werner_closed,
)
from ccnr.states import (
    DensityOperator,
    InvariantViolation,
    bell_diagonal_stack,
    bell_diagonal_state,
    isotropic_stack,
    isotropic_state,
    qubit_family,
    qubit_family_stack,
    qutrit_family,
    qutrit_family_stack,
    random_density,
    random_pure,
    twirl_uu,
    twirl_uubar,
    validate_stack,
    werner_stack,
    werner_state,
)


# Sweep blocks of 32 matrices of side 4, so that short grids span several blocks.
SMALL_BLOCK_BYTES = 32 * 16 * 16


def _bell(t):
    rest = (1.0 - t) / 3.0
    return (t, rest, rest, rest)


# name -> (sweep CLI arguments, local dimension, stack builder, scalar
# constructor, closed tau, closed gamma or None), all over a sweep value.
FAMILIES = {
    "werner": (["--d", "3"], 3, lambda v: werner_stack(3, v), lambda v: werner_state(3, v),
               lambda v: tau_werner_closed(3, v), lambda v: gamma_werner_closed(3, v)),
    "isotropic": (["--d", "4"], 4, lambda v: isotropic_stack(4, v), lambda v: isotropic_state(4, v),
                  lambda v: tau_isotropic_closed(4, v), lambda v: gamma_isotropic_closed(4, v)),
    "bell": ([], 2, lambda v: bell_diagonal_stack([_bell(t) for t in v]),
             lambda v: bell_diagonal_state(_bell(v)), lambda v: tau_bell_diagonal_closed(_bell(v)),
             lambda v: gamma_bell_diagonal_closed(_bell(v))),
    "qubit": ([], 2, qubit_family_stack, qubit_family, tau_qubit_family_closed, None),
    "qutrit": ([], 3, qutrit_family_stack, qutrit_family, tau_qutrit_family_closed, None),
}
DOMAINS = {"werner": (-1.0, 1.0), "isotropic": (0.0, 1.0), "bell": (0.0, 1.0),
           "qubit": (0.0, 1.0), "qutrit": (2.0, 5.0)}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_stack_builder_matches_scalar_constructor(name):
    _, d, build, scalar, _, _ = FAMILIES[name]
    lo, hi = DOMAINS[name]
    grid = np.linspace(lo, hi, 23).tolist()
    stack = validate_stack(build(grid), d, d)
    assert stack.matrix.shape == (len(grid), d * d, d * d)
    for value, matrix in zip(grid, stack.matrix):
        assert np.array_equal(matrix, scalar(value).matrix)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_report_stack_matches_full_report_exactly(dims):
    states = [random_density(*dims, rank=rank, seed=seed)
              for seed in range(12) for rank in (None, 1)]
    batch = report_stack(validate_stack(np.stack([s.matrix for s in states]), *dims))
    assert len(batch) == len(states)
    for i, state in enumerate(states):
        one = full_report(DensityOperator(state.matrix, *dims))
        assert batch.tau[i] == one.tau
        assert batch.ppt_floor[i] == one.ppt_floor
        assert batch.reduction_floor[i] == one.reduction_floor
        assert batch.verdict[i] == one.verdict
        assert batch[i] == one


def test_validate_stack_names_the_first_failing_state():
    good = np.eye(4) / 4
    skew = good.copy()
    skew[0, 1] = 0.1
    with pytest.raises(InvariantViolation) as excinfo:
        validate_stack(np.stack([good, skew, 2 * good]))
    assert excinfo.value.invariant == "hermiticity"
    assert excinfo.value.residual == pytest.approx(0.1)
    with pytest.raises(InvariantViolation) as excinfo:
        validate_stack(np.stack([good, 2 * good]))
    assert excinfo.value.invariant == "unit_trace"
    assert excinfo.value.residual == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_blocked_sweep_matches_point_by_point_rebuild(tmp_path, monkeypatch, name):
    args, d, _, scalar, tau, gamma = FAMILIES[name]
    lo, hi = DOMAINS[name]
    # Blocks of SMALL_BLOCK_BYTES, whatever the worker count, and every worker
    # runs however few states a block holds.
    monkeypatch.setattr(cli, "SWEEP_BLOCK_BYTES", SMALL_BLOCK_BYTES)
    monkeypatch.setattr(cli, "SWEEP_MIN_SHARE", 1)
    count = 2 * 32 + 5
    size = SMALL_BLOCK_BYTES // (16 * d**4)  # 32 points at d = 2, 6 at d = 3, 2 at d = 4
    assert count // size >= 2 and count % size  # two or more full blocks and a partial one
    step = (hi - lo) / (count - 1)
    out_file = tmp_path / f"{name}.csv"
    assert main(["sweep", name, *args, f"--range={lo}:{hi}:{step!r}",
                 "--out", str(out_file)]) == 0
    rows = out_file.read_text(encoding="utf-8").split("\n")
    grid = cli._parse_range(f"{lo}:{hi}:{step!r}")
    assert len(grid) == count
    expected = [CSV_HEADER]
    for value in grid:
        closed = None if gamma is None else gamma(value)
        report = full_report(scalar(value), gamma=closed)
        expected.append(",".join([
            cli._fmt(value),
            cli._fmt(report.tau),
            cli._fmt(tau(value)),
            "" if closed is None else cli._fmt(closed.value),
            cli._fmt(report.ppt_floor),
            cli._fmt(report.reduction_floor),
            report.verdict,
        ]))
    assert rows == expected + [""]


def test_validate_stack_returns_a_density_operator():
    stack = validate_stack(werner_stack(2, [0.5, -0.5]), 2, 2)
    assert type(stack) is DensityOperator
    assert stack.matrix.shape == (2, 4, 4)
    assert stack.dims == (2, 2)


@pytest.mark.parametrize("closed", [None, gamma_werner_closed(3, -0.5)], ids=["none", "werner"])
def test_one_state_reports_as_its_full_report_and_as_a_stack_of_one(closed):
    rho = werner_state(3, -0.5)
    report = report_stack(rho, closed)
    assert len(report) == 1
    assert report[0] == full_report(rho, closed)
    one = validate_stack(rho.matrix[None], 3, 3)
    as_stack = None if closed is None else closed._replace(value=np.reshape(closed.value, 1))
    assert report_stack(one, as_stack)[0] == report[0]


def _random_pure_case():
    psi = random_pure(2, 3, seed=11)
    return psi.projector(), gamma_pure(psi)


# name -> one state and its closed-form cross norm.
_ONE_STATE_CASES = {
    "werner": lambda: (werner_state(3, -0.5), gamma_werner_closed(3, -0.5)),
    "isotropic": lambda: (isotropic_state(3, 0.7), gamma_isotropic_closed(3, 0.7)),
    "bell": lambda: (bell_diagonal_state(_bell(0.8)), gamma_bell_diagonal_closed(_bell(0.8))),
    "random-2-3": _random_pure_case,
}


def _field_bits(value):
    """A report field's type and, for a float, its bytes, so that -0.0 and 0.0 differ."""
    return type(value), np.float64(value).tobytes() if isinstance(value, float) else value


@pytest.mark.parametrize("closed", [False, True], ids=["none", "closed"])
@pytest.mark.parametrize("case", _ONE_STATE_CASES)
def test_one_state_reports_bit_for_bit_as_its_stack_of_one(case, closed):
    state, gamma = _ONE_STATE_CASES[case]()
    gamma = gamma if closed else None
    # Both validated from one matrix: validating a state again may move its last bits.
    rho, one = (DensityOperator(m, *state.dims) for m in (state.matrix, state.matrix[None]))
    as_stack = None if gamma is None else gamma._replace(value=np.reshape(gamma.value, 1))
    alone, stacked = report_stack(rho, gamma)[0], report_stack(one, as_stack)[0]
    for field in fields(CriteriaReport):
        name = field.name
        assert _field_bits(getattr(alone, name)) == _field_bits(getattr(stacked, name)), name


@pytest.mark.parametrize("report, shape", [
    (full_report, (2, 4, 4)), (full_report, (2, 3, 4, 4)), (report_stack, (2, 3, 4, 4)),
], ids=["full-stack", "full-grid", "stack-grid"])
def test_a_report_refuses_more_states_than_it_takes(report, shape):
    rhos = validate_stack(np.broadcast_to(np.eye(4) / 4, shape), 2, 2)
    with pytest.raises(ValueError, match=r"one state.*" + re.escape(str(shape))):
        report(rhos)


# Each function that takes one state, under the name its refusal gives.
_ONE_STATE = {
    "operator_schmidt": operator_schmidt,
    "realign_trace": realign_trace,
    "twirl_uu": twirl_uu,
    "twirl_uubar": twirl_uubar,
    "full_report": full_report,
    "write_state_file": lambda rho: cli.write_state_file(None, rho),
}


@pytest.mark.parametrize("name", _ONE_STATE)
def test_a_one_state_function_refuses_a_stack_naming_itself_and_the_shape(name):
    rhos = DensityOperator(werner_stack(2, [0.5, -0.5, 0.1]), 2, 2)
    with pytest.raises(ValueError, match=rf"^{name} needs one state, got shape \(3, 4, 4\)$"):
        _ONE_STATE[name](rhos)


def _record_validations(monkeypatch):
    """Record the shape of each matrix or stack that ``DensityOperator`` validates."""
    shapes = []
    init = DensityOperator.__init__

    def counted(self, matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        init(self, matrix, *args, **kwargs)

    monkeypatch.setattr(DensityOperator, "__init__", counted)
    return shapes


def test_sweep_validates_each_block_through_the_density_operator(tmp_path, monkeypatch):
    # One worker validates the blocks in grid order.
    monkeypatch.setattr(cli, "SWEEP_WORKERS", 1)
    monkeypatch.setattr(cli, "SWEEP_BLOCK_BYTES", SMALL_BLOCK_BYTES)
    shapes = _record_validations(monkeypatch)
    assert main(["sweep", "werner", "--d", "2", "--range=0:1:0.01",
                 "--out", str(tmp_path / "werner.csv")]) == 0
    assert shapes == 3 * [(32, 4, 4)] + [(5, 4, 4)]  # 101 points in blocks of 32


# name -> (sweep arguments, matrix side, block sizes, workers where two are
# available).  From d = 6 a block holds fewer than SWEEP_MIN_SHARE states, so
# two workers fall back to one.
_BLOCKED_SWEEPS = {
    "d2": (["werner", "--d", "2", "--range=-1:1:0.001"], 4, [1024, 977], 2),
    "d3": (["werner", "--d", "3", "--range=-1:1:0.001"], 9, 9 * [202] + [183], 2),
    "d4": (["isotropic", "--d", "4", "--range=0:1:0.0005"], 16, 31 * [64] + [17], 2),
    "d5": (["werner", "--d", "5", "--range=-1:1:0.05"], 25, [26, 15], 2),
    "d8": (["werner", "--d", "8", "--range=-1:-0.9:0.01"], 64, [4, 4, 3], 1),
    "d12": (["werner", "--d", "12", "--range=-1:-0.9:0.05"], 144, 3 * [1], 1),
}


def _validated_shapes(tmp_path, monkeypatch, name, workers):
    """The shapes validated by a sweep on up to ``workers`` threads, the shapes
    expected, and the worker counts the sweep ran on."""
    args, n, sizes, _ = _BLOCKED_SWEEPS[name]
    monkeypatch.setattr(cli, "SWEEP_WORKERS", workers)
    shapes = _record_validations(monkeypatch)
    ran_on = []
    map_in_order = cli._map_in_order

    def recorded(fn, items, workers):
        ran_on.append(workers)
        return map_in_order(fn, items, workers)

    monkeypatch.setattr(cli, "_map_in_order", recorded)
    assert main(["sweep", *args, "--out", str(tmp_path / "sweep.csv")]) == 0
    return shapes, [(size, n, n) for size in sizes], ran_on


@pytest.mark.parametrize("name", _BLOCKED_SWEEPS)
def test_sweep_blocks_hold_as_many_states_as_fit_the_block_bytes(tmp_path, monkeypatch, name):
    shapes, expected, ran_on = _validated_shapes(tmp_path, monkeypatch, name, 1)
    assert shapes == expected
    assert ran_on == [1]


@pytest.mark.parametrize("name", _BLOCKED_SWEEPS)
def test_two_sweep_workers_split_the_block_bytes(tmp_path, monkeypatch, name):
    # Two workers split the sweep into the blocks one worker runs, each of the
    # full SWEEP_BLOCK_BYTES, and from d = 6 one worker runs them all.  Threads
    # validate in no fixed order; the rows keep grid order (see the
    # point-by-point rebuild and the tests below).
    shapes, expected, ran_on = _validated_shapes(tmp_path, monkeypatch, name, 2)
    assert sorted(shapes) == sorted(expected)
    assert ran_on == [_BLOCKED_SWEEPS[name][-1]]


@pytest.mark.parametrize("args", [
    ["werner", "--d", "3", "--range=-1:1:0.001"],  # 9 blocks of 202 and one of 183
    ["isotropic", "--d", "4", "--range=0:1:0.0005"],
    ["bell", "--range=0:1:0.5"],  # one block, fewer than the workers
    ["qubit", "--range=0:1:0.0005"],
    ["qutrit", "--range=2:5:0.0015"],
    ["werner", "--d", "12", "--range=-1:1:0.25"],  # one state per block
    ["isotropic", "--d", "12", "--range=0:1:0.5"],
], ids=["werner-d3", "isotropic-d4", "bell", "qubit", "qutrit", "werner-d12", "isotropic-d12"])
def test_any_worker_count_writes_the_bytes_of_one_worker(tmp_path, monkeypatch, args):
    # Every worker runs, even on one-state blocks; four workers outnumber the
    # cores, and a short switch interval interleaves the threads finely.
    monkeypatch.setattr(cli, "SWEEP_MIN_SHARE", 1)
    written = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(cli, "SWEEP_WORKERS", workers)
            out_file = tmp_path / f"{workers}.csv"
            assert main(["sweep", *args, "--out", str(out_file)]) == 0
            written[workers] = out_file.read_bytes()
    finally:
        sys.setswitchinterval(interval)
    assert written[2] == written[1]
    assert written[4] == written[1]


@pytest.mark.parametrize("workers", [1, 2], ids=["1-worker", "2-workers"])
@pytest.mark.parametrize("k", [0, 5], ids=["block0", "block5"])
def test_the_first_failing_sweep_block_stops_the_sweep(tmp_path, monkeypatch, capsys, k, workers):
    # Werner d = 2 in blocks of 4 points: 101 points make 26 blocks.  Block k
    # and block k + 2 fail; with two workers, block k fails only after block
    # k + 2 has failed on the other thread.
    monkeypatch.setattr(cli, "SWEEP_WORKERS", workers)
    monkeypatch.setattr(cli, "SWEEP_BLOCK_BYTES", 4 * 16 * 2**4)
    monkeypatch.setattr(cli, "SWEEP_MIN_SHARE", 1)
    grid = cli._parse_range("0:1:0.01")
    failing = {grid[4 * k]: k, grid[4 * (k + 2)]: k + 2}
    later_failed = threading.Event()
    built = []

    def build(d, f):
        built.append(f[0])
        block = failing.get(f[0])
        if block == k + 2:
            later_failed.set()
        elif block == k and workers > 1:
            assert later_failed.wait(timeout=30)
        if block is not None:
            raise InvariantViolation("test", 0.0, f"block {block} fails")
        return werner_stack(d, f)

    monkeypatch.setattr(cli, "werner_stack", build)
    out_file = tmp_path / "werner.csv"
    assert main(["sweep", "werner", "--d", "2", "--range=0:1:0.01",
                 "--out", str(out_file)]) == 3
    assert capsys.readouterr().err == f"error: block {k} fails\n"
    assert not out_file.exists()
    assert len(built) <= k + 1 + 2 * workers


def test_importing_the_cli_loads_no_thread_pool():
    # concurrent.futures imports logging, 5-7 ms in all; the sweep pool imports it itself.
    import os
    import subprocess
    from pathlib import Path

    import ccnr

    script = ("import sys, ccnr, ccnr.cli\n"
              "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ccnr.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.stdout == "[]\n", done.stderr


def test_a_full_sweep_peaks_within_a_few_blocks_of_memory(tmp_path, monkeypatch):
    # Each worker holds a full block of 2**18 bytes with its validation and
    # report transients, and the grid, closed forms and CSV rows of all 2001
    # points are held besides.  Measured at 5.29-5.32 blocks with one worker
    # and 9.06-9.44 with two (4.53-4.72 per block in flight).  A short
    # two-worker sweep runs first, so the one-time import of concurrent.futures
    # (0.6 MB when logging is not yet loaded) falls outside the measurement.
    # The bound per block in flight leaves ~17% headroom at one worker and ~32%
    # at two.
    monkeypatch.setattr(cli, "SWEEP_WORKERS", 2)
    assert main(["sweep", "isotropic", "--d", "4", "--range=0:1:0.05",
                 "--out", str(tmp_path / "warm-up.csv")]) == 0
    for workers in (1, 2):
        monkeypatch.setattr(cli, "SWEEP_WORKERS", workers)
        tracemalloc.start()
        try:
            assert main(["sweep", "isotropic", "--d", "4", "--range=0:1:0.0005",
                         "--out", str(tmp_path / "isotropic.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.25 * workers * cli.SWEEP_BLOCK_BYTES, workers
