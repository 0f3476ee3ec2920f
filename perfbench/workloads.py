"""The three closed-loop workloads and the checks on their outputs.

A workload yields rounds of operations.  Building an operation's input
happens before it is yielded, outside the timed region.  For each operation
the harness times ``call`` (the call into the program), then times
``calibrate`` (reference work of the same kind, done by the benchmark's own
code, whose result the check uses), then runs ``verify``, which returns a
description of the first mismatch or ``None``.  All calls into the program
go through module attributes (``ccnr.cli.main``, ``ccnr.full_report``) so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import ccnr
import ccnr.cli

import reference

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))
CSV_HEADER = "param,tau_numeric,tau_closed,gamma_closed,ppt_floor,reduction_floor,verdict"
# (family, fixed CLI arguments, full range, tiny range, reference builder, d).
# The full ranges give 2001 points each, the tiny ones 21.
SWEEPS = (
    ("werner", ("--d", "3"), "-1:1:0.001", "-1:1:0.1", lambda v: reference.werner(3, v), 3),
    ("isotropic", ("--d", "4"), "0:1:0.0005", "0:1:0.05", lambda v: reference.isotropic(4, v), 4),
    ("bell", (), "0:1:0.0005", "0:1:0.05", reference.bell_diagonal, 2),
    ("qubit", (), "0:1:0.0005", "0:1:0.05", reference.qubit, 2),
    ("qutrit", (), "2:5:0.0015", "2:5:0.15", reference.qutrit, 3),
)
# Every CALIBRATION_STRIDE-th sweep point is recomputed by the reference
# after each sweep call, as that call's calibration work.
CALIBRATION_STRIDE = 5
# Each workload's ``named`` gives the names its throughput and operation
# carry in the lines run.py prints before the result.
# Each workload's ``round_calibration_s`` is the median calibration time of
# one round on a 2-core Intel Xeon VM with numpy 2.4.6 and one OpenBLAS
# thread.  Scaled times read as times on that machine at that speed.


@dataclass
class Op:
    """One closed-loop operation of a workload."""

    kind: str
    items: int
    call: Callable
    calibrate: Callable
    verify: Callable
    result: object = None
    reference: object = None
    parts: dict | None = None


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ccnr.cli.main(argv)
    return code, out.getvalue()


def _expected(want: tuple[float, float, float], gamma=None) -> tuple:
    return (*want, reference.verdict(*want, gamma))


# --- sweep-families --------------------------------------------------------


class SweepFamilies:
    """``ccnr sweep`` over the five families, in a seeded order each round."""

    name = "sweep-families"
    named = ("sweep_points_per_s", "sweep_call")
    round_size = len(SWEEPS)
    round_calibration_s = 0.51
    tail_pct = 70
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tiny = tiny
        self.verified: set[str] = set()

    def rounds(self):
        while True:
            order = self.rng.permutation(len(SWEEPS))
            yield [self._op(*SWEEPS[i]) for i in order]

    def _op(self, family, fixed, full, tiny, build, d):
        grid = tiny if self.tiny else full
        key = " ".join([family, *fixed, f"--range={grid}"])
        out = self.workdir / f"{family}.csv"
        values = reference.sweep_grid(grid)

        def call(op):
            return _cli(["sweep", family, *fixed, f"--range={grid}", "--out", str(out)])[0]

        def calibrate(op):
            sample = {}
            for k in range(0, len(values), CALIBRATION_STRIDE):
                sample[k] = reference.criteria(build(values[k]), d, d)
                ",".join(f"{x:.12g}" for x in (values[k], *sample[k]))
            return sample

        def verify(op):
            if op.result != 0:
                return f"{key}: exit code {op.result}"
            data = out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if digest != GOLDEN.get(key):
                return f"{key}: CSV digest {digest} differs from the recorded {GOLDEN.get(key)}"
            if key in self.verified:
                return None
            rows = data.decode("utf-8").split("\n")
            if rows[0] != CSV_HEADER or rows[-1] != "" or len(rows) != len(values) + 2:
                return f"{key}: CSV framing or row count is wrong"
            for k, (value, row) in enumerate(zip(values, csv.reader(rows[1:-1]))):
                want = op.reference.get(k) or reference.criteria(build(value), d, d)
                problem = _check_sweep_row(f"{key} @ {row[0]}", value, row, want)
                if problem:
                    return problem
            self.verified.add(key)
            return None

        return Op("sweep", len(values), call, calibrate, verify)


def _check_sweep_row(label: str, value: float, row: list[str], want) -> str | None:
    param, tau, tau_closed, gamma, ppt, red, verdict = row
    if param != f"{value:.12g}":
        return f"{label}: param column does not render {value!r}"
    tau, tau_closed, ppt, red = float(tau), float(tau_closed), float(ppt), float(red)
    if not abs(tau - tau_closed) <= reference.AGREE:
        return f"{label}: tau_numeric {tau} vs tau_closed {tau_closed}"
    gamma = float(gamma) if gamma else None
    return reference.disagreement(label, (tau, ppt, red, verdict), _expected(want, gamma))


# --- files-n144 ------------------------------------------------------------


class FilesN144:
    """``ccnr gen random`` writes a state file, then ``ccnr check --json`` reads it once."""

    name = "files-n144"
    named = ("files_per_s", "file_round_trip")
    round_size = 8
    round_calibration_s = 0.46
    tail_pct = 85
    trace_rounds = 2

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.splits = ((2, 2), (1, 4)) if tiny else ((12, 12), (6, 24))

    def rounds(self):
        while True:
            yield [self._op(k) for k in range(self.round_size)]

    def _op(self, k):
        # Four files per split in a round; every fourth file is rank 1.
        dim_a, dim_b = self.splits[(k + k // 4) % 2]
        rank = 1 if k % 4 == 3 else None
        seed = int(self.rng.integers(2**31))
        path = self.workdir / f"state{k}.json"
        gen = ["gen", "random", "--dims", f"{dim_a},{dim_b}", "--seed", str(seed), "--out", str(path)]
        if rank:
            gen += ["--rank", str(rank)]
        label = f"state file ({dim_a}x{dim_b}, rank {rank or 'full'}, seed {seed})"

        def call(op):
            t0 = perf_counter()
            gen_code, _ = _cli(gen)
            t1 = perf_counter()
            check_code, out = _cli(["check", str(path), "--json"])
            op.parts = {"gen": t1 - t0, "check": perf_counter() - t1}
            return gen_code, check_code, out

        def calibrate(op):
            """Parse the file, re-encode an eighth of it, recompute its criteria."""
            payload = json.loads(path.read_text(encoding="utf-8"))
            rows = payload["matrix"]
            json.dumps(rows[: len(rows) // 8], indent=1)
            pairs = np.array(payload["matrix"], dtype=float)
            matrix = pairs[..., 0] + 1j * pairs[..., 1]
            return payload["dims"], matrix, reference.criteria(matrix, dim_a, dim_b)

        def verify(op):
            gen_code, check_code, out = op.result
            if gen_code != 0 or check_code != 0:
                return f"{label}: exit codes gen={gen_code} check={check_code}"
            path.unlink()
            dims, matrix, want = op.reference
            written = ccnr.random_density(dim_a, dim_b, rank=rank, seed=seed).matrix
            if dims != [dim_a, dim_b] or matrix.shape != written.shape or not np.array_equal(matrix, written):
                return f"{label}: file does not parse back to the generated matrix"
            report = json.loads(out)
            got = (report["tau"], report["ppt_floor"], report["reduction_floor"], report["verdict"])
            return reference.disagreement(label, got, _expected(want))

        return Op("file", 1, call, calibrate, verify)


# --- report-n144 -----------------------------------------------------------


class ReportN144:
    """``DensityOperator`` + ``full_report`` on matrices built here, one per operation."""

    name = "report-n144"
    named = ("reports_per_s", "report")
    KINDS = ("random", "random", "rank1", "rank1", "werner", "isotropic")
    round_size = len(KINDS)
    round_calibration_s = 0.073
    tail_pct = 95
    trace_rounds = 20

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.d = 2 if tiny else 12
        self.splits = ((2, 2), (1, 4)) if tiny else ((12, 12), (6, 24))

    def rounds(self):
        while True:
            yield [self._op(kind, self.splits[i % 2]) for i, kind in enumerate(self.KINDS)]

    def _op(self, kind, split):
        rng, d = self.rng, self.d
        closed = None
        if kind in ("random", "rank1"):
            dim_a, dim_b = split
            n = dim_a * dim_b
            cols = n if kind == "random" else 1
            g = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
            matrix = g @ g.conj().T
            matrix /= np.trace(matrix).real
        elif kind == "werner":
            # Parameter grids with step 0.01 over each family's domain.
            dim_a = dim_b = d
            param = -1.0 + 0.01 * int(rng.integers(201))
            matrix = reference.werner(d, param)
            closed = lambda: ccnr.tau_werner_closed(d, param)
        else:
            dim_a = dim_b = d
            param = 0.01 * int(rng.integers(101))
            matrix = reference.isotropic(d, param)
            closed = lambda: ccnr.tau_isotropic_closed(d, param)
        label = f"{kind} {dim_a}x{dim_b}"

        def call(op):
            return ccnr.full_report(ccnr.DensityOperator(matrix, dim_a, dim_b))

        def calibrate(op):
            return reference.criteria(matrix, dim_a, dim_b)

        def verify(op):
            report = op.result
            got = (report.tau, report.ppt_floor, report.reduction_floor, report.verdict)
            problem = reference.disagreement(label, got, _expected(op.reference))
            if problem is None and closed is not None and not abs(report.tau - closed()) <= reference.AGREE:
                problem = f"{label}: tau {report.tau} vs closed form {closed()}"
            return problem

        return Op("report", 1, call, calibrate, verify)


WORKLOADS = {w.name: w for w in (SweepFamilies, FilesN144, ReportN144)}

