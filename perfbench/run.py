"""Closed-loop benchmark of the ccnr library and command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One caller issues operations back to back (each starts after the
previous one returns) until ``--seconds`` have passed, counting only
complete rounds, and checks every output against ``reference.py``.

``--trace 0`` prints the end-to-end metrics, with times scaled by
interleaved calibration work (see :func:`timings`); ``--trace 1`` runs a
fixed set of rounds alternately without and with layer wrappers, prints the
per-layer metrics and writes the spans to ``.perfbench_out/``.  The last
line of standard output is the result object; the lines before it describe
the machine and spell out the metrics under the names the workloads give
them.  BLAS runs on one thread, so outputs repeat bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
# numpy, the one dependency, is imported before the clock starts: set-up
# time is what importing the program adds, and numpy's own import would
# dominate it and add its noise.  The same interpreter then imports stdlib
# modules no part of ccnr uses, as calibration work of the same kind, timed
# separately (see :func:`timings` for why the benchmark calibrates).
SETUP_CODE = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import ccnr, ccnr.cli; t1 = time.perf_counter(); "
    "import email.parser, xml.dom.minidom, http.client, unittest, difflib, calendar, "
    "configparser, html.parser; print(t1 - t0, time.perf_counter() - t1)"
)
# Median calibration import time on the machine round_calibration_s was
# measured on (see workloads.py).
SETUP_CALIBRATION_S = 0.042
END_TO_END = {
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}


def setup_sample() -> tuple[float, float]:
    """Seconds of ``import ccnr, ccnr.cli`` and of the calibration imports after it."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    program, calibration = done.stdout.split()
    return float(program), float(calibration)


def machine() -> dict:
    import numpy as np

    import blas

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = (index / "size").read_text().strip()
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0))
    vendor, threads = blas.describe()
    if threads > nproc:
        raise RuntimeError(f"BLAS runs {threads} threads on {nproc} processors")
    return {
        "nproc": nproc, "cpu_model": model, "l2": caches.get("l2"), "l3": caches.get("l3"),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": vendor, "blas_threads": threads,
    }


def run_op(op, tracer=None, op_id=0):
    """Run, calibrate and check one operation.

    Returns ``(seconds, calibration_seconds, problem)``; ``problem`` is
    ``None`` when the operation succeeded and its output checked out.
    """
    start = perf_counter()
    try:
        if tracer is None:
            op.result = op.call(op)
        else:
            with tracer.operation(op_id, op.kind):
                op.result = op.call(op)
    except Exception:
        traceback.print_exc()
        return perf_counter() - start, 0.0, "raised"
    seconds = perf_counter() - start
    start = perf_counter()
    try:
        op.reference = op.calibrate(op)
        calibration = perf_counter() - start
        problem = op.verify(op)
    except Exception:
        traceback.print_exc()
        calibration, problem = perf_counter() - start, "output check raised"
    if problem:
        print(f"FAILED: {problem}", file=sys.stderr)
    return seconds, calibration, problem


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Tally:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, problem) -> bool:
        self.attempted += 1
        self.failed += problem is not None
        return problem is None


def measure(workload, seconds: float, tally: Tally) -> tuple[list[list[tuple]], list[float]]:
    """Run complete rounds until ``seconds`` have passed.

    Returns the rounds in which every operation succeeded, each as a list of
    ``(seconds, calibration_seconds, items, parts)``, and set-up samples from
    :func:`setup_sample`, taken between rounds at even intervals over the
    run so that they see the same machine as the rounds do.
    """
    rounds = workload.rounds()
    for op in next(rounds)[:2]:  # warm-up: imports, caches, both bipartitions
        tally.add(run_op(op)[2])
    kept, setup = [], []
    start = perf_counter()
    while perf_counter() < start + seconds or len(setup) < SETUP_REPEATS:
        if perf_counter() >= start + seconds * len(setup) / SETUP_REPEATS:
            setup.append(setup_sample())
            continue
        done = []
        for op in next(rounds):
            elapsed, calibration, problem = run_op(op)
            if tally.add(problem):
                done.append((elapsed, calibration, op.items, op.parts or {}))
        if len(done) == workload.round_size:
            kept.append(done)
    return kept, setup


def timings(rounds: list[list[tuple]], workload, scaled: bool) -> dict:
    """Throughput and latency percentiles over the kept rounds.

    With ``scaled``, each operation's time is multiplied by the workload's
    ``round_calibration_s`` over the calibration time of the round's worth
    of operations centred on it, which reads it at the speed of the machine
    the constant was measured on.  The machine this runs on drifts by tens
    of percent within a minute; the calibration work runs interleaved with
    the operations and slows with them, so scaled times stay steady where
    raw ones do not.
    """
    ops = [op for ops in rounds for op in ops]
    width = workload.round_size
    scales = []
    for i in range(len(ops)):
        lo = min(max(0, i - width // 2), len(ops) - width)
        window = sum(op[1] for op in ops[lo:lo + width])
        scales.append(workload.round_calibration_s / window)
    if not scaled:
        scales = [1.0] * len(ops)
    op_ms, parts = [], {}
    for (seconds, _, _, op_parts), scale in zip(ops, scales):
        op_ms.append(seconds * scale * 1e3)
        for name, value in op_parts.items():
            parts.setdefault(name, []).append(value * scale * 1e3)
    op_ms.sort()
    tail = workload.tail_pct
    return {
        "count": len(op_ms),
        "speed": statistics.median(scales),
        "throughput_per_s": sum(op[2] for op in ops) / (sum(op_ms) / 1e3),
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_tail": percentile(op_ms, tail),
        "parts": {name: (percentile(sorted(v), 50), percentile(sorted(v), tail)) for name, v in parts.items()},
    }


def trace_passes(workload, seconds: float, tally: Tally, trace_path: Path, header: dict) -> dict:
    """Alternate untraced and traced passes over the same fixed rounds."""
    from tracing import Tracer, aggregate, layer_metrics

    def one_pass(tracer):
        ops = [op for _, op_round in zip(range(workload.trace_rounds), workload.rounds()) for op in op_round]
        total = 0.0
        for op_id, op in enumerate(ops):
            elapsed, _, problem = run_op(op, tracer, op_id)
            tally.add(problem)
            total += elapsed
        return total

    seed_state = workload.rng.bit_generator.state
    ratios, passes, first = [], [], None
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        workload.rng.bit_generator.state = seed_state
        plain = one_pass(None)
        workload.rng.bit_generator.state = seed_state
        tracer = Tracer()
        with tracer.installed():
            traced = one_pass(tracer)
        ratios.append(traced / plain)
        passes.append(layer_metrics(aggregate(tracer.spans)))
        first = first or tracer
    first.write(trace_path, header)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ccnr" / "__init__.py").is_file():
        print(f"error: no ccnr sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import ccnr
    import tracing
    import workloads

    if Path(ccnr.__file__).resolve().parent != SRC / "ccnr":
        print(f"error: imported ccnr from {ccnr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tally = Tally()
    try:
        description = machine()
        print("machine " + json.dumps(description))
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            header = {"workload": args.workload, "seed": args.seed, "machine": description,
                      "span": ["name", "start_us", "end_us", "parent", "op_id", "bytes"]}
            values = trace_passes(workload, args.seconds, tally, trace_path, header)
            units = tracing.PER_LAYER
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            rounds, setup = measure(workload, args.seconds, tally)
            if not rounds:
                print("error: no round completed without a failure", file=sys.stderr)
                return 1
            scaled = timings(rounds, workload, scaled=True)
            values = {
                "throughput_per_s": scaled["throughput_per_s"],
                "op_ms_p50": scaled["op_ms_p50"],
                "op_ms_tail": scaled["op_ms_tail"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_ratio": 1.0 - tally.failed / tally.attempted,
                "setup_s": statistics.median(t * SETUP_CALIBRATION_S / c for t, c in setup),
            }
            units = END_TO_END
            _print_named(workload, scaled, timings(rounds, workload, scaled=False), tally)
            print(f"import_ccnr_s = {values['setup_s']:.6g} s [{statistics.median(t for t, _ in setup):.6g}]")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def _print_named(workload, scaled: dict, raw: dict, tally: Tally) -> None:
    """Spell out the end-to-end metrics under the workload's own names, scaled and raw."""
    rate, op = workload.named
    n, tail = scaled["count"], workload.tail_pct
    beyond = int(n * (100 - tail) / 100)
    print(f"tail = p{tail} of n={n} operations ({beyond} beyond it)")
    if beyond < 10:
        print(f"warning: fewer than 10 samples beyond p{tail}; lengthen --seconds")
    print(f"speed = {scaled['speed']:.4g} of the calibration machine; "
          "scaled values first, raw wall-clock values in brackets")
    print(f"{rate} = {scaled['throughput_per_s']:.6g} 1/s [{raw['throughput_per_s']:.6g}]")
    named = {f"{op}_ms_p50": "op_ms_p50", f"{op}_ms_tail": "op_ms_tail"}
    for label, key in named.items():
        print(f"{label} = {scaled[key]:.6g} ms [{raw[key]:.6g}]")
    for part, (p50, p_tail) in scaled["parts"].items():
        raw_p50, raw_tail = raw["parts"][part]
        print(f"{part}_ms_p50 = {p50:.6g} ms [{raw_p50:.6g}]")
        print(f"{part}_ms_tail = {p_tail:.6g} ms [{raw_tail:.6g}]")
    print(f"failed_ratio = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")


if __name__ == "__main__":
    raise SystemExit(main())
