"""Batch command-line front end.

Subcommands::

    check     run the criteria report on a state file
    schmidt   print Schmidt data of a pure-state file
    oschmidt  print operator Schmidt data of a density-state file
    gen       write a family state (or a random one) to a state file
    sweep     tabulate a one-parameter family sweep to CSV

State files are JSON objects with explicit ``[re, im]`` pairs::

    {"kind": "density", "dims": [2, 2], "matrix": [[[re, im], ...], ...]}
    {"kind": "pure",    "dims": [2, 2], "matrix": [[re, im], ...]}

Exit codes: 0 computed (regardless of verdict), 2 input error,
3 state-invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import deque
from itertools import islice
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .crossnorm import (
    _checked_gamma,
    gamma_bell_diagonal_closed,
    gamma_isotropic_closed,
    gamma_pure,
    gamma_werner_closed,
    robustness_lower_bound,
)
from .criteria import _above_one, full_report, report_stack
from .linalg import _numbers
from .realign import (
    ccnr_tau,
    operator_schmidt,
    tau_bell_diagonal_closed,
    tau_isotropic_closed,
    tau_qubit_family_closed,
    tau_qutrit_family_closed,
    tau_werner_closed,
)
from .states import (
    MAX_STATE_FILE_BYTES,
    DensityOperator,
    InvariantViolation,
    PureState,
    _dims,
    _in_domain,
    _local_dim,
    _one_state,
    bell_diagonal_stack,
    isotropic_stack,
    qubit_family_stack,
    qutrit_family_stack,
    random_density,
    schmidt_decompose,
    werner_stack,
)
from .tolerances import GRID_SLACK

CSV_HEADER = "param,tau_numeric,tau_closed,gamma_closed,ppt_floor,reduction_floor,verdict"
# Every number the command line prints, in a report or a sweep row: 12 significant digits.
_NUMBER = "%.12g"

# Sweeps evaluate their grid in blocks, one validation and one report per
# block, on up to SWEEP_WORKERS threads.  The LAPACK calls of two threads do
# not run at the same time (two threads ran stacked eigvalsh at x0.8-1.0 of
# serial throughput): numpy holds the interpreter lock through eigvalsh and
# svd.  A pure-Python loop ran x2.1 slower beside a thread calling eigvalsh
# and x1.9 beside svd, but at its own speed beside matmul or sha256, which
# release the lock.  Two workers gain at d <= 4 because one worker's numpy work
# that releases the lock overlaps the other's LAPACK and Python.  Every block holds
# SWEEP_BLOCK_BYTES of states whatever the worker count: 1024 points at d = 2,
# 202 at d = 3, 64 at d = 4, 26 at d = 5, 4 at d = 8 and one from d = 10.
# Halving the block for two workers would make every numpy call short, and the
# two threads would hand the interpreter lock back and forth three times as
# often.  Blocks of fewer than SWEEP_MIN_SHARE states run on one worker.  A
# block's transient arrays cost a few times its bytes in peak memory, so two
# workers hold about twice the memory of one.  Each worker calls BLAS; pin it
# to one thread (OPENBLAS_NUM_THREADS=1) so that two workers do not
# oversubscribe the CPUs.
SWEEP_BLOCK_BYTES = 2**18
# The CPUs this process may use, capped at 2: on 2 CPUs a third or fourth
# worker gained nothing (isotropic d = 4: x1.46, 1.42 and 1.42 over one).
SWEEP_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
# On a 2-CPU Xeon VM, two workers beat one at d <= 4 (blocks of 64 or more
# states).  Below that, two workers ran at x1.43 the speed of one at Werner
# d = 5, x0.85 at isotropic d = 6, x0.83 at Werner d = 8 and x0.99 at Werner
# d = 12 (medians of 10 alternating runs).  No benchmark workload has d >= 5
# to settle it, so the cut stays.
SWEEP_MIN_SHARE = 32
# Grids with more points are refused before any point is generated.
MAX_SWEEP_POINTS = 10**6


def _bell_weights(t) -> np.ndarray:
    """Sweep spectra, a row per ``t``: weight ``t`` on the first Bell vector, the rest equal."""
    t = _in_domain(t, 0.0, 1.0, "bell sweep weight")
    rest = (1.0 - t) / 3.0
    return np.stack([t, rest, rest, rest], axis=-1)


class Family(NamedTuple):
    """A closed-form state family as ``gen`` and ``sweep`` use it.

    Each function takes the family's leading arguments ``fixed`` (``(d,)``
    where ``--d`` picks the local dimension, ``()`` where the family fixes it)
    and then a sequence of family parameters: ``build(*fixed, params)`` returns
    the unvalidated ``(k, n, n)`` stack, and ``tau(*fixed, params)`` and
    ``gamma(*fixed, params)`` are the closed forms, one value per member; the
    closed ``tau`` refuses a parameter outside the family's domain.  A sweep
    maps its grid of scalars to family parameters by ``point``.  ``dim`` fixes
    the local dimension; ``None`` means ``--d`` is required.  ``arity`` is the
    number of values ``gen --param`` takes.
    """

    build: Callable
    tau: Callable
    gamma: Callable | None
    dim: int | None = None
    point: Callable = lambda t: t
    arity: int = 1


def _families() -> dict[str, Family]:
    """The families by name, built from this module's names at each call, so a
    function replaced on the module (a test double, a timing wrapper) is the one called."""
    return {
        "werner": Family(werner_stack, tau_werner_closed, gamma_werner_closed),
        "isotropic": Family(isotropic_stack, tau_isotropic_closed, gamma_isotropic_closed),
        "bell": Family(bell_diagonal_stack, tau_bell_diagonal_closed, gamma_bell_diagonal_closed,
                       dim=2, point=_bell_weights, arity=4),
        "qubit": Family(qubit_family_stack, tau_qubit_family_closed, None, dim=2),
        "qutrit": Family(qutrit_family_stack, tau_qutrit_family_closed, None, dim=3),
    }


SWEEP_FAMILIES = tuple(_families())
GEN_FAMILIES = SWEEP_FAMILIES + ("random",)


def _fmt(x: float) -> str:
    """Locale-free decimal rendering of ``x`` in ``_NUMBER``."""
    return _NUMBER % float(x)


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        dim_a, dim_b = map(int, text.split(","))
    except ValueError:  # a part that is no integer, or not two parts
        raise argparse.ArgumentTypeError(f"dims must look like 'A,B', got {text!r}") from None
    return dim_a, dim_b


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like 'start:stop:step', got {text!r}")
    start, stop, step = _numbers([float(p) for p in parts], float, "range bounds and step").tolist()
    if step <= 0:
        raise ValueError("range step must be positive")
    if stop < start:
        raise ValueError("range stop must not precede start")
    steps = (stop - start) / step + GRID_SLACK
    if not steps < MAX_SWEEP_POINTS:
        raise ValueError(f"range {text!r} has more than {MAX_SWEEP_POINTS} points")
    count = int(math.floor(steps)) + 1
    return [start + k * step for k in range(count)]


def _read_state_text(path) -> str:
    """A state file's text, refused past ``MAX_STATE_FILE_BYTES`` before it is decoded."""
    chunk = 1 << 20  # one read of the cap would allocate all of it up front
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fits = size <= MAX_STATE_FILE_BYTES
        # A regular file is one read of its size, and one more byte shows whether
        # it grew after the stat.  stat cannot size a pipe (it reads 0); the rest
        # of a pipe or a grown file is read in chunks that stop within a chunk
        # past the cap.
        raw = fh.read(size + 1) if fits else b""
        if len(raw) > size:
            reads = iter(lambda: fh.read(chunk), b"")
            raw = b"".join([raw, *islice(reads, (MAX_STATE_FILE_BYTES - len(raw)) // chunk + 1)])
    if not fits or len(raw) > MAX_STATE_FILE_BYTES:
        raise ValueError(f"{path}: a state file may hold at most {MAX_STATE_FILE_BYTES} bytes")
    return raw.decode("utf-8")


def load_state_file(path, dims_override=None):
    """Parse a JSON state file into a (kind, state) pair.

    Malformed content raises ``ValueError``; a well-formed matrix that fails
    a state invariant, at the package's validation tolerances, raises
    :class:`InvariantViolation`, and a file longer than
    ``MAX_STATE_FILE_BYTES`` raises ``ValueError`` before it is parsed.
    """
    def integer(digits: str) -> float:  # a JSON integer, read as the float it spells
        if math.isinf(value := float(digits)):
            raise ValueError(f"{path}: an integer overflows a float")
        return value

    try:  # a file that is not UTF-8 is not JSON text (RFC 8259)
        text = _read_state_text(path)
        data = json.loads(text, parse_int=integer)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    kind = data.get("kind")
    if kind not in ("density", "pure"):
        raise ValueError(f"{path}: kind must be 'density' or 'pure', got {kind!r}")
    dims = dims_override
    if dims is None:
        raw_dims = data.get("dims")
        if not isinstance(raw_dims, (list, tuple)) or len(raw_dims) != 2:
            raise ValueError(f"{path}: dims must be a pair [d_a, d_b]")
        for entry in raw_dims:  # an integral number; JSON numbers are read as floats
            if not (isinstance(entry, float) and entry.is_integer()):
                raise ValueError(f"{path}: dims entries must be integers, got {entry!r}")
        # A refusal names the entries as the file spells them, not as integers
        # of up to 309 digits.
        dims = _dims(*map(int, raw_dims), shown="(" + ", ".join(map(_fmt, raw_dims)) + ")")
    payload = data.get("matrix")
    if payload is None:
        raise ValueError(f"{path}: missing 'matrix'")
    try:
        pairs = np.array(payload)
    except ValueError:  # ragged nesting, refused with the wrong shapes below
        pairs = np.array(None)
    form, depth = ("rows", 3) if kind == "density" else ("a list", 2)
    # The array reads JSON true/false among numbers as 1/0.  Only a text with
    # an "l" or a "u" can spell one (numbers and keys hold none but the "u" of
    # "pure"), and a one-letter test costs far less than a search for "true".
    if pairs.dtype != np.float64 or pairs.ndim != depth or pairs.shape[-1] != 2 or (
        ("u" in text or "l" in text) and bool in map(type, np.array(payload, dtype=object).flat)
    ):
        raise ValueError(f"{path}: a {kind} matrix must be {form} of [re, im] number pairs")
    # In C order, each pair of float64 holds the bytes of one complex entry.
    values = pairs.view(complex)[..., 0]
    if kind == "density":
        return kind, DensityOperator(values, *dims)
    return kind, PureState(values, *dims)


def _json_layout(shape: tuple[int, ...], depth: int = 1) -> str:
    """``json.dumps(a.tolist(), indent=1)`` for ``a`` of ``shape``, a ``%s`` per number:
    json writes a finite float as ``repr`` does, but its indenting encoder is pure Python."""
    pad = "\n" + " " * (depth + 1)
    item = "%s" if len(shape) == 1 else _json_layout(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + " " * depth + "]"


def _json_rows(values: np.ndarray) -> Iterator[str]:
    """``json.dumps(values.tolist(), indent=1)`` of finite floats, indented as the
    value of a top-level key, a row at a time (see :func:`write_state_file`)."""
    magnitudes, inverse = np.unique(np.abs(values), return_inverse=True)
    text = np.array(list(map(repr, magnitudes.tolist())), dtype=object)
    index = inverse.reshape(len(values), -1)
    negative = np.signbit(values).reshape(len(values), -1)
    layout = _json_layout(values.shape[1:], 2)
    for k in range(len(values)):
        row, sign = text[index[k]], negative[k]
        row[sign] = "-" + row[sign]
        yield (",\n  " if k else "[\n  ") + layout % tuple(row.tolist())
    yield "\n ]"


def write_state_file(path, state) -> None:
    """Serialize a DensityOperator or PureState as ``json.dumps(payload, indent=1)`` would.

    Each distinct magnitude is formatted once by ``repr``, with a ``-`` put before
    it wherever the sign bit is set: ``repr(-x) == "-" + repr(x)`` for every finite
    ``x >= 0``, zero included.  A Hermitian matrix formats about half its numbers.
    """
    if isinstance(state, DensityOperator):
        _one_state(state, "write_state_file")
        kind, values = "density", state.matrix
    elif isinstance(state, PureState):
        kind, values = "pure", state.amplitudes
    else:
        raise ValueError(f"cannot serialize {type(state).__name__}")
    head = f'{{\n "kind": "{kind}",\n "dims": [\n  {state.dim_a},\n  {state.dim_b}\n ],\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head} "matrix": ')
        fh.writelines(_json_rows(np.stack([values.real, values.imag], -1)))
        fh.write("\n}\n")


def _family(name: str, d: int | None) -> tuple[Family, int, tuple]:
    """Family ``name``, its local dimension given the ``--d`` option, and the
    leading arguments its functions take: ``(d,)`` where ``--d`` picks it, else ``()``."""
    family = _families()[name]
    if family.dim is None:
        if d is None:
            raise ValueError(f"family {name!r} needs --d")
        d = _local_dim(d)
        return family, d, (d,)
    if d not in (None, family.dim):
        raise ValueError(f"family {name!r} is fixed at local dimension {family.dim}")
    return family, family.dim, ()


def _read(args, kind=None):
    """The state in the file ``args.path``, the only place the commands load one.

    It is read with ``args.dims``.  A command that needs one ``kind``,
    ``"pure"`` or ``"density"``, refuses the other after the file and its
    invariants pass.  Without a ``kind`` (``check``), a pure state comes back
    as its projector.
    """
    found, state = load_state_file(args.path, args.dims)
    if kind not in (None, found):
        raise ValueError(f"{args.command} needs a {kind}-state file")
    return state.projector() if kind is None and found == "pure" else state


def _print(**lines) -> None:
    """Print a ``name = value`` line per keyword, the only printer of such lines.

    A boolean prints in lower case and a string as given; a number prints in
    ``_NUMBER``, and an array as its numbers so printed, space-separated.
    """
    for name, value in lines.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif not isinstance(value, str):  # a number or an array of numbers
            value = " ".join(map(_fmt, np.ravel(value)))
        print(f"{name} = {value}")


def cmd_check(args) -> int:
    report = full_report(_read(args)).as_dict()
    if args.json:
        print(json.dumps(report))
    else:  # check passes no gamma
        _print(**{key: value for key, value in report.items() if not key.startswith("gamma_")})
    return 0


def cmd_schmidt(args) -> int:
    state = _read(args, "pure")
    gamma = gamma_pure(state)  # one SVD, read for gamma and for robustness = gamma - 1
    _print(schmidt_coefficients=schmidt_decompose(state).coefficients,
           gamma=_checked_gamma(gamma, "schmidt")[0], robustness=robustness_lower_bound(gamma))
    return 0


def cmd_oschmidt(args) -> int:
    state = _read(args, "density")
    # check's tau and check's rule, without the floors check also computes.
    tau = ccnr_tau(state)
    _print(operator_schmidt_coefficients=operator_schmidt(state).coefficients, tau=tau,
           tau_criterion="violated" if _above_one(tau) else "satisfied")
    return 0


def cmd_gen(args) -> int:
    options = ("d", "param") if args.family == "random" else ("dims", "rank", "seed")
    stray = [f"--{name}" for name in options if getattr(args, name) is not None]
    if stray:
        raise ValueError(f"family {args.family!r} takes no {', '.join(stray)}")
    if args.family == "random":
        if args.dims is None:
            raise ValueError("family 'random' needs --dims")
        dim_a, dim_b = args.dims
        state = random_density(dim_a, dim_b, rank=args.rank, seed=args.seed)
    else:
        if args.param is None:
            raise ValueError(f"family {args.family!r} needs --param")
        values = [float(p) for p in args.param.split(",")]
        arity = _families()[args.family].arity
        if len(values) != arity:
            wanted = "a single parameter" if arity == 1 else "four comma-separated weights"
            raise ValueError(f"family {args.family!r} needs {wanted}")
        family, d, fixed = _family(args.family, args.d)
        param = values if arity > 1 else values[0]
        state = DensityOperator(family.build(*fixed, [param])[0], d, d)
    write_state_file(args.out, state)
    print(f"wrote {args.out}")
    return 0


def _map_in_order(fn: Callable, items, workers: int) -> list:
    """``list(map(fn, items))``, on ``workers`` threads when there are two or more.

    Calls are submitted in order with at most two per worker pending, and
    their results are taken in order, so the first call to fail raises and
    the calls not yet started are cancelled.  One worker is the calling
    thread: the same sweep blocks ran 6-15% slower on a pool thread at d = 8
    and d = 12, a gap that MALLOC_ARENA_MAX=1 closed, so glibc's per-thread
    malloc arena causes it.
    """
    if workers == 1:
        return list(map(fn, items))
    # Imported here: its logging import would add 5-7 ms to ``import ccnr.cli``.
    from concurrent.futures import ThreadPoolExecutor

    pending, results = deque(), []
    pool = ThreadPoolExecutor(workers)
    try:
        for item in items:
            if len(pending) == 2 * workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(fn, item))
        results += [future.result() for future in pending]
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def cmd_sweep(args) -> int:
    grid = _parse_range(args.range)
    family, d, fixed = _family(args.family, args.d)
    # The closed tau refuses the first value outside the domain before any state is built.
    params = family.point(np.array(grid))
    taus = family.tau(*fixed, params).tolist()
    # The columns of CSV_HEADER; a family without gamma leaves its field empty.
    fields = [_NUMBER] * 3 + ["%s" if family.gamma is None else _NUMBER] + [_NUMBER] * 2 + ["%s"]
    row = ",".join(fields) + "\n"
    size = max(1, SWEEP_BLOCK_BYTES // (16 * d**4))
    workers = SWEEP_WORKERS if size >= SWEEP_MIN_SHARE else 1

    def block(first: int) -> str:
        """The CSV rows of the block of points that starts at ``first``."""
        part = slice(first, first + size)
        gamma = None if family.gamma is None else family.gamma(*fixed, params[part])
        report = report_stack(DensityOperator(family.build(*fixed, params[part]), d, d), gamma)
        gammas = [""] * len(report) if gamma is None else report.gamma_closed.tolist()
        columns = (grid[part], report.tau.tolist(), taus[part], gammas,
                   report.ppt_floor.tolist(), report.reduction_floor.tolist(),
                   report.verdict.tolist())
        return "".join([row % values for values in zip(*columns)])

    blocks = _map_in_order(block, range(0, len(grid), size), workers)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(blocks)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccnr",
        description="Entanglement detection via the realignment criterion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, choices):
        p.add_argument("family", choices=choices)
        p.add_argument("--d", type=int, default=None, help="local dimension")

    def add_state_file(p):
        p.add_argument("path", help="JSON state file")
        p.add_argument("--dims", type=_parse_dims, default=None,
                       help="override the bipartition, e.g. 2,3")

    check = sub.add_parser("check", help="criteria report for a state file")
    add_state_file(check)
    check.add_argument("--json", action="store_true", help="emit one JSON object")

    schmidt = sub.add_parser("schmidt", help="Schmidt data of a pure-state file")
    add_state_file(schmidt)

    oschmidt = sub.add_parser("oschmidt", help="operator Schmidt data of a density file")
    add_state_file(oschmidt)

    gen = sub.add_parser("gen", help="write a family state to a file")
    add_family(gen, GEN_FAMILIES)
    gen.add_argument("--param", default=None,
                     help="family parameter; four comma-separated weights for bell")
    gen.add_argument("--dims", type=_parse_dims, default=None,
                     help="bipartition for family 'random'")
    gen.add_argument("--rank", type=int, default=None, help="rank for family 'random'")
    gen.add_argument("--seed", type=int, default=None, help="seed for family 'random'")
    gen.add_argument("--out", required=True, help="output state file")

    sweep = sub.add_parser("sweep", help="CSV sweep over a one-parameter family")
    add_family(sweep, SWEEP_FAMILIES)
    sweep.add_argument("--range", required=True,
                       help="grid as start:stop:step (use --range=-1:1:0.05)")
    sweep.add_argument("--out", required=True, help="output CSV path")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call, built on the first (building one takes ~1 ms).

    Parsing leaves it as it was, and argparse measures the terminal each time
    it formats usage or help, so a later call prints what a fresh parser would.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Looked up now, so a command replaced on this module (a test double, a
        # timing wrapper) is the one that runs, as in ``_families``.
        return globals()[f"cmd_{args.command}"](args)
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
