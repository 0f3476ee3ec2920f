"""Comparison separability criteria (PPT, reduction) and report assembly.

All three numeric criteria are necessary conditions: a violation certifies
entanglement, while satisfaction alone certifies nothing.  Separability is
only certified through a closed-form cross norm equal to 1.

Every criterion accepts a :class:`~ccnr.states.DensityOperator` of one state
or of a stack; :func:`report_stack` evaluates either with one decomposition
call per criterion, and a second reduction call only on the states whose two
reduction operators differ bit for bit; :func:`full_report` is its report of one state.
Both return the one report type, :class:`CriteriaReport`: arrays indexed like
the stack from ``report_stack``, Python values from ``full_report``.  The
criteria rely on the exactly Hermitian matrices ``DensityOperator`` stores:
``eigvalsh`` reads one triangle, and ``tau`` reads a real matrix that shares
the realignment's singular values only for Hermitian input.

The numeric criteria are one table, :func:`_criteria`: each row names a
report field, its flag field, the measure and the violation rule, and a new
criterion is one row.  ``tau`` violates when it passes 1 and either floor when
it falls below 0, each by more than ``VIOLATION_GUARD``, a rule written once
for each side.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .crossnorm import GammaValue, _checked_gamma
from .realign import ccnr_tau
from .states import DensityOperator, _check_kind, _matrix, _one_state, _per_state
from .states import _raw_tensor, _state_tensor
from .states import partial_trace_a, partial_trace_b
from .tolerances import VIOLATION_GUARD

__all__ = [
    "VIOLATION_GUARD",
    "CriteriaReport",
    "partial_transpose_b",
    "ppt_min_eigenvalue",
    "reduction_min_eigenvalue",
    "report_stack",
    "full_report",
]


@dataclass(frozen=True)
class CriteriaReport:
    """Verdicts of the implemented criteria on one state, or on each state of a stack.

    :func:`full_report` fills the fields with Python values.  A report of a
    stack (:func:`report_stack`) holds one array per field, indexed like the
    stack, except ``gamma_family``; ``gamma_closed`` is ``None`` without a
    closed-form cross norm.  ``report[i]`` is the report of state ``i``.
    """

    tau: float
    tau_violated: bool
    ppt_floor: float
    ppt_violated: bool
    reduction_floor: float
    reduction_violated: bool
    gamma_closed: float | None
    gamma_family: str | None
    verdict: str

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, i: int) -> CriteriaReport:
        values = (getattr(self, field.name) for field in fields(self))
        # One state's report holds floats, which refuse an index as a report should.
        return CriteriaReport(*(v if v is None or isinstance(v, str) else v[i].item()
                                for v in values))

    def as_dict(self) -> dict:
        return asdict(self)


def _transposed_b(four: np.ndarray) -> np.ndarray:
    """The partial transpose on B of a bipartite view, as a matrix."""
    return _matrix(np.swapaxes(four, -3, -1))


def partial_transpose_b(matrix, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose on the B factor: ``PT[(i,k),(j,l)] = M[(i,l),(j,k)]``.

    A ``(..., n, n)`` stack is transposed matrix by matrix; non-finite entries are refused.
    """
    return _transposed_b(_raw_tensor(matrix, dim_a, dim_b))


def ppt_min_eigenvalue(rho: DensityOperator) -> float:
    """Minimum eigenvalue of the partial transpose; negative means entangled."""
    transposed = _transposed_b(_state_tensor(rho, "ppt_min_eigenvalue"))
    return _per_state(np.linalg.eigvalsh(transposed)[..., 0])


def reduction_min_eigenvalue(rho: DensityOperator) -> float:
    """Minimum eigenvalue over both reduction operators.

    Tests ``rho_A (x) I - rho`` and ``I (x) rho_B - rho``; a negative value
    certifies entanglement (and distillability).
    """
    four = _state_tensor(rho, "reduction_min_eigenvalue")
    eye_a = np.eye(rho.dim_a, dtype=complex)
    eye_b = np.eye(rho.dim_b, dtype=complex)
    # Kronecker products written on the (i, k, j, l) view of each matrix.
    first = partial_trace_b(rho)[..., :, None, :, None] * eye_b[:, None, :]
    second = eye_a[:, None, :, None] * partial_trace_a(rho)[..., None, :, None, :]
    first -= four
    second -= four
    first, second = _matrix(first), _matrix(second)
    floor = np.linalg.eigvalsh(first)[..., 0]
    # Swap-symmetric states often give both operators the same bits, and min(a, a) = a;
    # comparing bits, not values, keeps -0.0 and 0.0 apart.  One state is a stack of
    # one here: its 0-d mask indexes its 0-d floor.
    differ = (first.view(np.int64) != second.view(np.int64)).any(axis=(-2, -1))
    if differ.any():
        # A mask copies even when it keeps every state; the fresh pages of that copy
        # cost ~0.3 ms, 2.6% of a report at n = 144.
        picked = second if differ.all() else second[differ]
        floor[differ] = np.minimum(floor[differ], np.linalg.eigvalsh(picked)[..., 0])
    return _per_state(floor)


def _above_one(values):
    """Whether each ``tau`` or closed-form gamma passes 1, its bound on separable states,
    by more than the guard: the one rule for both, which ``oschmidt`` also applies."""
    return values > 1.0 + VIOLATION_GUARD


def _below_zero(values):
    """Whether each eigenvalue floor falls below 0, its bound on separable states, by more
    than the guard: the one rule for the PPT and reduction floors."""
    return values < -VIOLATION_GUARD


def _criteria() -> tuple:
    """The criteria as ``(value field, flag field, measure, violation rule)`` rows.

    Built from this module's names at each call, so a measure replaced on the
    module (a timing wrapper, a test double) is the one a report runs.  A new
    criterion is one row, and its two fields of :class:`CriteriaReport`.
    """
    return (("tau", "tau_violated", ccnr_tau, _above_one),
            ("ppt_floor", "ppt_violated", ppt_min_eigenvalue, _below_zero),
            ("reduction_floor", "reduction_violated", reduction_min_eigenvalue, _below_zero))


def report_stack(rhos: DensityOperator, gamma: GammaValue | None = None) -> CriteriaReport:
    """Evaluate every criterion on one state or a ``(k, n, n)`` stack and aggregate verdicts.

    One state reports as a stack of one; the report holds each field as an
    array of one value per state.  ``gamma``, if given, is the closed-form
    cross norm of the states' family with one value per state: a ``value``
    of shape ``(k,)`` for ``k`` states, where a scalar counts as shape
    ``(1,)``; see :func:`full_report`.
    """
    _check_kind(rhos, DensityOperator, "report_stack")
    if rhos.matrix.ndim not in (2, 3):
        raise ValueError(f"need one state or a (k, n, n) stack, got shape {rhos.matrix.shape}")
    count = int(np.prod(rhos.matrix.shape[:-2]))
    values, separable = ((np.full(count, np.nan), False) if gamma is None
                         else _checked_gamma(gamma, "report_stack"))
    values, separable = np.atleast_1d(values, separable)
    if values.shape != (count,):
        raise ValueError(f"need one gamma per state, shape ({count},), got {values.shape}")
    # The verdict rule, elementwise; a state without a gamma has NaN in ``values``.
    columns, entangled = {}, _above_one(values)
    for value, flag, measure, rule in _criteria():
        columns[value] = np.reshape(measure(rhos), count)
        columns[flag] = rule(columns[value])
        entangled |= columns[flag]
    verdict = np.where(entangled, "entangled_certified",
                       np.where(separable, "separable_certified", "undecided"))
    return CriteriaReport(**columns, gamma_closed=None if gamma is None else values,
                          gamma_family=None if gamma is None else gamma.family, verdict=verdict)


def full_report(rho: DensityOperator, gamma: GammaValue | None = None) -> CriteriaReport:
    """Evaluate every criterion on one state and aggregate a verdict.

    ``gamma`` is an optional closed-form cross norm for states of a known
    family; when given, it can certify separability (value 1) or
    entanglement (value above 1).  A stack is refused: :func:`report_stack`
    reports one.
    """
    _one_state(rho, "full_report")
    return report_stack(rho, gamma)[0]
