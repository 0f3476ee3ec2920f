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
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .crossnorm import (
    GammaValue,
    gamma_bell_diagonal_closed,
    gamma_isotropic_closed,
    gamma_pure,
    gamma_werner_closed,
    robustness_pure_exact,
)
from .criteria import full_report, report_stack
from .realign import (
    operator_schmidt,
    tau_bell_diagonal_closed,
    tau_isotropic_closed,
    tau_qubit_family_closed,
    tau_qutrit_family_closed,
    tau_werner_closed,
)
from .states import (
    DensityOperator,
    InvariantViolation,
    PureState,
    _local_dim,
    _parameters,
    bell_diagonal_stack,
    isotropic_stack,
    qubit_family_stack,
    qutrit_family_stack,
    random_density,
    schmidt_decompose,
    validate_stack,
    werner_stack,
)
from .tolerances import GRID_SLACK, HERMITICITY_TOL, PSD_TOL

CSV_HEADER = "param,tau_numeric,tau_closed,gamma_closed,ppt_floor,reduction_floor,verdict"

# Sweeps evaluate their grid this many points at a time: one validation and
# one report per block.  Larger blocks stop paying off well before 32 points
# at d <= 4, while the stacks' memory grows with the block, so blocks of
# large matrices shrink to keep one stack within SWEEP_BLOCK_BYTES.
SWEEP_BLOCK = 32
SWEEP_BLOCK_BYTES = 2**22
# Grids with more points are refused before any point is generated.
MAX_SWEEP_POINTS = 10**6
# States whose matrices have more rows than this (d_a * d_b, or d * d for a
# family) are refused before any array exists.
MAX_MATRIX_SIDE = 1024


def _bell_weights(t) -> np.ndarray:
    """Sweep spectra, a row per ``t``: weight ``t`` on the first Bell vector, the rest equal."""
    t = _parameters(t, 0.0, 1.0, "bell sweep weight")
    rest = (1.0 - t) / 3.0
    return np.stack([t, rest, rest, rest], axis=-1)


class Family(NamedTuple):
    """A closed-form state family as ``gen`` and ``sweep`` use it.

    ``build(d, params)`` returns the unvalidated ``(k, n, n)`` stack for a
    sequence of family parameters; ``tau(d, params)`` and ``gamma(d, params)``
    are the closed forms, one value per member; the closed ``tau`` refuses a
    parameter outside the family's domain.  A sweep maps its grid of scalars
    to family parameters by ``point``.  ``dim`` fixes the local dimension;
    ``None`` means ``--d`` is required.  ``arity`` is the number of values
    ``gen --param`` takes.
    """

    build: Callable
    tau: Callable
    gamma: Callable | None
    dim: int | None = None
    point: Callable = lambda t: t
    arity: int = 1


# Entries look their functions up by name at call time, so a function
# replaced on its module (a test double, a timing wrapper) is the one called.
FAMILIES = {
    "werner": Family(
        build=lambda d, f: werner_stack(d, f),
        tau=lambda d, f: tau_werner_closed(d, f),
        gamma=lambda d, f: gamma_werner_closed(d, f),
    ),
    "isotropic": Family(
        build=lambda d, F: isotropic_stack(d, F),
        tau=lambda d, F: tau_isotropic_closed(d, F),
        gamma=lambda d, F: gamma_isotropic_closed(d, F),
    ),
    "bell": Family(
        build=lambda d, lams: bell_diagonal_stack(lams),
        tau=lambda d, lam: tau_bell_diagonal_closed(lam),
        gamma=lambda d, lam: gamma_bell_diagonal_closed(lam),
        dim=2,
        point=_bell_weights,
        arity=4,
    ),
    "qubit": Family(
        build=lambda d, p: qubit_family_stack(p),
        tau=lambda d, p: tau_qubit_family_closed(p),
        gamma=None,
        dim=2,
    ),
    "qutrit": Family(
        build=lambda d, alpha: qutrit_family_stack(alpha),
        tau=lambda d, alpha: tau_qutrit_family_closed(alpha),
        gamma=None,
        dim=3,
    ),
}

SWEEP_FAMILIES = tuple(FAMILIES)
GEN_FAMILIES = SWEEP_FAMILIES + ("random",)


def _fmt(x: float) -> str:
    """Locale-free decimal rendering with 12 significant digits."""
    return f"{float(x):.12g}"


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"dims must look like 'A,B', got {text!r}")
    dim_a, dim_b = (int(p) for p in parts)
    if dim_a < 1 or dim_b < 1:
        raise argparse.ArgumentTypeError("dims must be positive")
    if dim_a * dim_b > MAX_MATRIX_SIDE:
        raise argparse.ArgumentTypeError(f"{text} gives more than {MAX_MATRIX_SIDE} rows")
    return dim_a, dim_b


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like 'start:stop:step', got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError("range step must be positive")
    if stop < start:
        raise ValueError("range stop must not precede start")
    steps = (stop - start) / step + GRID_SLACK
    if not steps < MAX_SWEEP_POINTS:
        raise ValueError(f"range {text!r} has more than {MAX_SWEEP_POINTS} points")
    count = int(math.floor(steps)) + 1
    return [start + k * step for k in range(count)]


def _dim_entry(value) -> int:
    """A ``dims`` entry of a state file: an integral number."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"dims entries must be integers, got {value!r}")


def load_state_file(path, dims_override=None, *, tol_psd=PSD_TOL, tol_herm=HERMITICITY_TOL):
    """Parse a JSON state file into a (kind, state) pair.

    Malformed content raises ``ValueError``; a well-formed matrix that fails
    a state invariant raises :class:`InvariantViolation`.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
        dims = (_dim_entry(raw_dims[0]), _dim_entry(raw_dims[1]))
    payload = data.get("matrix")
    if payload is None:
        raise ValueError(f"{path}: missing 'matrix'")
    try:
        pairs = np.array(payload)
    except ValueError:  # ragged nesting, refused with the wrong shapes below
        pairs = np.array(None)
    if pairs.dtype == object and all(isinstance(x, (int, float)) for x in pairs.flat):
        try:  # integers past 64 bits stay Python objects until converted
            pairs = pairs.astype(float)
        except OverflowError:
            raise ValueError(f"{path}: a matrix entry overflows a float") from None
    form, depth = ("rows", 3) if kind == "density" else ("a list", 2)
    # The array reads JSON true/false among numbers as 1/0.  Only a text with
    # an "l" or a "u" can spell one (numbers and keys hold none but the "u" of
    # "pure"), and a one-letter test costs far less than a search for "true".
    if pairs.dtype.kind not in "biuf" or pairs.ndim != depth or pairs.shape[-1] != 2 or (
        ("u" in text or "l" in text) and bool in map(type, np.array(payload, dtype=object).flat)
    ):
        raise ValueError(f"{path}: a {kind} matrix must be {form} of [re, im] number pairs")
    # In C order, each pair of float64 holds the bytes of one complex entry.
    values = np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    if kind == "density":
        return kind, DensityOperator(values, *dims, tol_psd=tol_psd, tol_herm=tol_herm)
    return kind, PureState(values, *dims)


def _json_layout(shape: tuple[int, ...], depth: int = 1) -> str:
    """``json.dumps(a.tolist(), indent=1)`` for ``a`` of ``shape``, a ``%r`` per number:
    json writes a finite float as ``%r`` does, but its indenting encoder is pure Python."""
    pad = "\n" + " " * (depth + 1)
    item = "%r" if len(shape) == 1 else _json_layout(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + " " * depth + "]"


def write_state_file(path, state) -> None:
    """Serialize a DensityOperator or PureState as ``json.dumps(payload, indent=1)`` would."""
    if isinstance(state, DensityOperator):
        kind, values = "density", state.matrix
    elif isinstance(state, PureState):
        kind, values = "pure", state.amplitudes
    else:
        raise ValueError(f"cannot serialize {type(state).__name__}")
    pairs = np.stack([values.real, values.imag], -1)
    matrix = _json_layout(pairs.shape) % tuple(pairs.ravel().tolist())
    head = f'{{\n "kind": "{kind}",\n "dims": [\n  {state.dim_a},\n  {state.dim_b}\n ],\n'
    Path(path).write_text(f'{head} "matrix": {matrix}\n}}\n', encoding="utf-8")


def _family_dim(name: str, d: int | None) -> int:
    """Local dimension of family ``name`` given the ``--d`` option."""
    fixed = FAMILIES[name].dim
    if fixed is None:
        if d is None:
            raise ValueError(f"family {name!r} needs --d")
        d = _local_dim(d)
        if d * d > MAX_MATRIX_SIDE:
            raise ValueError(f"--d {d} gives more than {MAX_MATRIX_SIDE} rows")
        return d
    if d not in (None, fixed):
        raise ValueError(f"family {name!r} is fixed at local dimension {fixed}")
    return fixed


def cmd_check(args) -> int:
    kind, state = load_state_file(
        args.path, args.dims, tol_psd=args.tol_psd, tol_herm=args.tol_herm
    )
    rho = state.projector() if kind == "pure" else state
    report = full_report(rho)
    if args.json:
        print(json.dumps(report.as_dict()))
        return 0
    print(f"tau = {_fmt(report.tau)}")
    print(f"tau_violated = {str(report.tau_violated).lower()}")
    print(f"ppt_floor = {_fmt(report.ppt_floor)}")
    print(f"ppt_violated = {str(report.ppt_violated).lower()}")
    print(f"reduction_floor = {_fmt(report.reduction_floor)}")
    print(f"reduction_violated = {str(report.reduction_violated).lower()}")
    print(f"verdict = {report.verdict}")
    return 0


def cmd_schmidt(args) -> int:
    kind, state = load_state_file(args.path, args.dims)
    if kind != "pure":
        raise ValueError("schmidt needs a pure-state file")
    coefficients = schmidt_decompose(state).coefficients
    print("schmidt_coefficients = " + " ".join(_fmt(p) for p in coefficients))
    print(f"gamma = {_fmt(gamma_pure(state).value)}")
    print(f"robustness = {_fmt(robustness_pure_exact(state))}")
    return 0


def cmd_oschmidt(args) -> int:
    kind, state = load_state_file(
        args.path, args.dims, tol_psd=args.tol_psd, tol_herm=args.tol_herm
    )
    if kind != "density":
        raise ValueError("oschmidt needs a density-state file")
    coefficients = operator_schmidt(state).coefficients
    report = full_report(state)
    print("operator_schmidt_coefficients = " + " ".join(_fmt(c) for c in coefficients))
    print(f"tau = {_fmt(report.tau)}")
    print(f"tau_criterion = {'violated' if report.tau_violated else 'satisfied'}")
    return 0


def cmd_gen(args) -> int:
    if args.out is None:
        raise ValueError("gen needs --out")
    if args.family == "random":
        if args.dims is None:
            raise ValueError("family 'random' needs --dims")
        dim_a, dim_b = args.dims
        state = random_density(dim_a, dim_b, rank=args.rank, seed=args.seed)
    else:
        family = FAMILIES[args.family]
        if args.param is None:
            raise ValueError(f"family {args.family!r} needs --param")
        values = [float(p) for p in args.param.split(",")]
        if len(values) != family.arity:
            wanted = "a single parameter" if family.arity == 1 else "four comma-separated weights"
            raise ValueError(f"family {args.family!r} needs {wanted}")
        d = _family_dim(args.family, args.d)
        param = values if family.arity > 1 else values[0]
        state = DensityOperator(family.build(d, [param])[0], d, d)
    write_state_file(args.out, state)
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if args.out is None:
        raise ValueError("sweep needs --out")
    family = FAMILIES[args.family]
    grid = _parse_range(args.range)
    d = _family_dim(args.family, args.d)
    # The closed tau refuses the first value outside the domain before any state is built.
    params = family.point(np.array(grid))
    taus = family.tau(d, params).tolist()
    # "%.12g" renders a float as _fmt does; a family without gamma leaves its field empty.
    if family.gamma is None:
        gamma, gammas, field = None, [""] * len(grid), "%s"
    else:
        gamma = family.gamma(d, params)
        gammas, field = gamma.value.tolist(), "%.12g"
    row = "%.12g,%.12g,%.12g," + field + ",%.12g,%.12g,%s"
    size = max(1, min(SWEEP_BLOCK, SWEEP_BLOCK_BYTES // (16 * d**4)))
    lines = [CSV_HEADER]
    for first in range(0, len(grid), size):
        part = slice(first, first + size)
        closed = None if gamma is None else GammaValue(gamma.value[part], gamma.family)
        report = report_stack(validate_stack(family.build(d, params[part]), d, d), closed)
        columns = (grid[part], report.tau.tolist(), taus[part], gammas[part],
                   report.ppt_floor.tolist(), report.reduction_floor.tolist(),
                   report.verdict.tolist())
        lines += [row % values for values in zip(*columns)]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccnr",
        description="Entanglement detection via the realignment criterion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tolerances(p):
        p.add_argument("--tol-psd", type=float, default=PSD_TOL, dest="tol_psd",
                       help="positive-semidefiniteness tolerance (default %(default)s)")
        p.add_argument("--tol-herm", type=float, default=HERMITICITY_TOL, dest="tol_herm",
                       help="hermiticity tolerance (default %(default)s)")

    check = sub.add_parser("check", help="criteria report for a state file")
    check.add_argument("path", help="JSON state file")
    check.add_argument("--dims", type=_parse_dims, default=None,
                       help="override the bipartition, e.g. 2,3")
    check.add_argument("--json", action="store_true", help="emit one JSON object")
    add_tolerances(check)
    check.set_defaults(func=cmd_check)

    schmidt = sub.add_parser("schmidt", help="Schmidt data of a pure-state file")
    schmidt.add_argument("path")
    schmidt.add_argument("--dims", type=_parse_dims, default=None)
    schmidt.set_defaults(func=cmd_schmidt)

    oschmidt = sub.add_parser("oschmidt", help="operator Schmidt data of a density file")
    oschmidt.add_argument("path")
    oschmidt.add_argument("--dims", type=_parse_dims, default=None)
    add_tolerances(oschmidt)
    oschmidt.set_defaults(func=cmd_oschmidt)

    gen = sub.add_parser("gen", help="write a family state to a file")
    gen.add_argument("family", choices=GEN_FAMILIES)
    gen.add_argument("--d", type=int, default=None, help="local dimension")
    gen.add_argument("--param", default=None,
                     help="family parameter; four comma-separated weights for bell")
    gen.add_argument("--dims", type=_parse_dims, default=None,
                     help="bipartition for family 'random'")
    gen.add_argument("--rank", type=int, default=None, help="rank for family 'random'")
    gen.add_argument("--seed", type=int, default=None, help="seed for family 'random'")
    gen.add_argument("--out", default=None, help="output state file")
    gen.set_defaults(func=cmd_gen)

    sweep = sub.add_parser("sweep", help="CSV sweep over a one-parameter family")
    sweep.add_argument("family", choices=SWEEP_FAMILIES)
    sweep.add_argument("--d", type=int, default=None, help="local dimension")
    sweep.add_argument("--range", required=True,
                       help="grid as start:stop:step (use --range=-1:1:0.05)")
    sweep.add_argument("--out", default=None, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
