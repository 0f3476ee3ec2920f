"""Layer spans recorded from outside the program.

While a :class:`Tracer` is installed, every public function of the six
``ccnr`` modules is replaced by a timing wrapper in every ``ccnr`` module that
binds it, ``DensityOperator.__init__`` is wrapped as ``states.validate``, and
numpy's ``svd``/``eigvalsh``/``eigh`` are wrapped as the LAPACK layer.  Spans
are kept in memory as ``(name, start, end, parent, op_id, bytes)`` and
written out by the caller when the run ends.

The program is single-threaded and the benchmark is one closed-loop caller,
so nothing waits in a queue: there is no "waited" metric, only busy time.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "states", "realign", "criteria", "crossnorm", "linalg")
LAPACK = ("svd", "eigvalsh", "eigh")
BUILDERS = (
    "werner_state", "isotropic_state", "bell_diagonal_state", "qubit_family",
    "qutrit_family", "random_density", "random_pure", "max_entangled",
    "bell_basis", "flip_operator", "fhat_operator", "pure_from_schmidt",
)
GAMMA_CLOSED = ("gamma_werner_closed", "gamma_isotropic_closed", "gamma_bell_diagonal_closed")
CLI_IO = ("cli.load_state_file", "cli.write_state_file")

# Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER = {
    "cli.self_ms": "ms",
    "cli.load_state_file.ms": "ms",
    "cli.load_state_file.calls": "count",
    "cli.read_mb_per_s": "MB/s",
    "cli.write_state_file.ms": "ms",
    "cli.write_state_file.calls": "count",
    "cli.write_mb_per_s": "MB/s",
    "states.validate.ms": "ms",
    "states.validate.calls": "count",
    "states.build.self_ms": "ms",
    "states.validations_per_verdict": "ratio",
    "realign.ccnr_tau.ms": "ms",
    "realign.ccnr_tau.calls": "count",
    "criteria.ppt_min_eigenvalue.ms": "ms",
    "criteria.reduction_min_eigenvalue.ms": "ms",
    "criteria.full_report.self_ms": "ms",
    "criteria.full_report.calls": "count",
    "crossnorm.gamma_closed.ms": "ms",
    "crossnorm.gamma_closed.calls": "count",
    "linalg.lapack.calls": "count",
    "linalg.lapack.ms": "ms",
    "linalg.decompositions_per_verdict": "ratio",
    "linalg.computed_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0])


def _decomposition_bytes(args, kwargs) -> int:
    """16 bytes per complex entry of the factorised matrix (computed, not measured)."""
    shape = np.shape(args[0])
    return 16 * shape[-2] * shape[-1]


class Tracer:
    """Installs wrappers on the ``ccnr`` modules and collects their spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.recording = False

    def _wrap(self, name: str, fn, measure=None):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                size = measure(args, kwargs) if measure else 0
                spans[index] = (name, start, end, parent, tracer.op_id, size)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "ccnr" or n.startswith("ccnr.")]
        for layer in LAYERS:
            module = sys.modules[f"ccnr.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                measure = _file_bytes if f"{layer}.{attr}" in CLI_IO else None
                wrapper = self._wrap(f"{layer}.{attr}", fn, measure)
                for binder in modules:
                    for bound, value in list(vars(binder).items()):
                        if value is fn:
                            self._patch(binder, bound, wrapper)
        density = sys.modules["ccnr.states"].DensityOperator
        self._patch(density, "__init__", self._wrap("states.validate", density.__init__))
        for fn in LAPACK:
            wrapper = self._wrap(f"linalg.lapack.{fn}", getattr(np.linalg, fn), _decomposition_bytes)
            self._patch(np.linalg, fn, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def operation(self, op_id: int, kind: str):
        """Root span of one benchmark operation; layer spans nest under it.

        Wrapped functions record spans only inside this context, so the
        checks that run between operations leave no trace.
        """
        self.op_id = op_id
        self.recording = True
        try:
            with self._span_of(f"op.{kind}"):
                yield
        finally:
            self.recording = False

    @contextlib.contextmanager
    def _span_of(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, self.op_id, 0)

    def write(self, path, header: dict) -> None:
        """Write the spans as gzipped JSON lines, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op_id, size in self.spans:
                fh.write(json.dumps([
                    name, round((start - origin) * 1e6, 3), round((end - origin) * 1e6, 3),
                    parent, op_id, size,
                ]) + "\n")


def aggregate(spans) -> dict[str, list[float]]:
    """Per span name: ``[calls, total_ms, self_ms, bytes]``.

    Self time is a span's duration minus the durations of its direct
    children; spans nest properly because everything runs on one thread.
    """
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    totals: dict[str, list[float]] = {}
    for index, (name, start, end, _, _, size) in enumerate(spans):
        ms = (end - start) * 1e3
        entry = totals.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += ms
        entry[2] += ms - child_ms[index]
        entry[3] += size
    return totals


def layer_metrics(totals: dict[str, list[float]]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (``trace.overhead_ratio`` excluded)."""

    def get(name, field):
        return totals.get(name, (0, 0.0, 0.0, 0))[field]

    def rate(name):
        seconds = get(name, 2) / 1e3
        return get(name, 3) / 1e6 / seconds if seconds > 0 else 0.0

    verdicts = get("criteria.full_report", 0)
    lapack = [f"linalg.lapack.{fn}" for fn in LAPACK]
    lapack_calls = sum(get(n, 0) for n in lapack)
    return {
        "cli.self_ms": sum((v[2] for n, v in totals.items() if n.startswith("cli.") and n not in CLI_IO), 0.0),
        "cli.load_state_file.ms": get("cli.load_state_file", 1),
        "cli.load_state_file.calls": get("cli.load_state_file", 0),
        "cli.read_mb_per_s": rate("cli.load_state_file"),
        "cli.write_state_file.ms": get("cli.write_state_file", 1),
        "cli.write_state_file.calls": get("cli.write_state_file", 0),
        "cli.write_mb_per_s": rate("cli.write_state_file"),
        "states.validate.ms": get("states.validate", 1),
        "states.validate.calls": get("states.validate", 0),
        "states.build.self_ms": sum(get(f"states.{n}", 2) for n in BUILDERS),
        "states.validations_per_verdict": get("states.validate", 0) / verdicts if verdicts else 0.0,
        "realign.ccnr_tau.ms": get("realign.ccnr_tau", 1),
        "realign.ccnr_tau.calls": get("realign.ccnr_tau", 0),
        "criteria.ppt_min_eigenvalue.ms": get("criteria.ppt_min_eigenvalue", 1),
        "criteria.reduction_min_eigenvalue.ms": get("criteria.reduction_min_eigenvalue", 1),
        "criteria.full_report.self_ms": get("criteria.full_report", 2),
        "criteria.full_report.calls": verdicts,
        "crossnorm.gamma_closed.ms": sum(get(f"crossnorm.{n}", 1) for n in GAMMA_CLOSED),
        "crossnorm.gamma_closed.calls": sum(get(f"crossnorm.{n}", 0) for n in GAMMA_CLOSED),
        "linalg.lapack.calls": lapack_calls,
        "linalg.lapack.ms": sum(get(n, 1) for n in lapack),
        "linalg.decompositions_per_verdict": lapack_calls / verdicts if verdicts else 0.0,
        "linalg.computed_mb": sum(get(n, 3) for n in lapack) / 1e6,
    }
