"""Bipartite state families, Schmidt machinery and analytic twirling.

Composite systems use the row-major index convention: the basis vector
``|a> (x) |b>`` of ``C^{d_a} (x) C^{d_b}`` sits at component ``a * d_b + b``,
which only :func:`_bipartite_tensor` spells out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import index

import numpy as np

from .linalg import _as_matrix, _hermitian_part, _numbers
from .tolerances import CHOLESKY_MARGIN, CLIP_GUARD, NORM_TOL, PSD_TOL, TRACE_TOL, WEIGHT_SLACK
from .tolerances import HERMITICITY_TOL as HERM_TOL, SV_FLOOR as _SV_FLOOR

__all__ = [
    "InvariantViolation",
    "DensityOperator",
    "validate_stack",
    "PureState",
    "SchmidtForm",
    "bell_spectrum",
    "flip_operator",
    "fhat_operator",
    "max_entangled",
    "werner_state",
    "werner_stack",
    "isotropic_state",
    "isotropic_stack",
    "bell_basis",
    "bell_diagonal_state",
    "bell_diagonal_stack",
    "qubit_family",
    "qubit_family_stack",
    "qutrit_family",
    "qutrit_family_stack",
    "pure_from_schmidt",
    "schmidt_decompose",
    "twirl_uu",
    "twirl_uubar",
    "partial_trace_a",
    "partial_trace_b",
    "random_pure",
    "random_density",
]


class InvariantViolation(ValueError):
    """A state invariant failed beyond its tolerance.

    ``residual`` is the one number the package admits without a name: a
    Hermiticity residual of entries near the float limit overflows to inf,
    and a name would turn on ``_numbers``' finiteness test, so the refusal
    would be an input error (exit 2 on the command line) instead of this
    invariant (exit 3).
    """

    def __init__(self, invariant: str, residual: float, message: str | None = None):
        self.invariant = invariant
        residual = _numbers(residual, float)
        if residual.ndim:
            raise ValueError(f"residual must be a single number, got shape {residual.shape}")
        self.residual = float(residual)
        default = f"invariant '{invariant}' violated: residual {self.residual:.6e}"
        super().__init__(message or default)

    def __reduce__(self):
        # ``BaseException`` would rebuild from ``args``, which hold only the message.
        return type(self), (self.invariant, self.residual, str(self))


# The most rows a state's matrix may have: d_a * d_b, or d * d for a family.
MAX_MATRIX_SIDE = 1024
# The most bytes a ``*_stack`` builder may return, 256 MiB: sixteen complex
# matrices of the largest side, or about a million two-qubit ones.
MAX_STACK_BYTES = 2**28
# The most bytes a state file may hold, checked before it is parsed.  The
# largest file ``cli.write_state_file`` emits, a density matrix of
# MAX_MATRIX_SIDE rows, holds at most 70 bytes per entry (two 24-character
# numbers at a 4-space indent), 73.4 MB; the next power of two, 2**27 bytes,
# leaves ~1.8x headroom.
MAX_STATE_FILE_BYTES = 1 << (70 * MAX_MATRIX_SIDE**2).bit_length()

_EPS = np.finfo(float).eps
_SUBNORMAL = np.finfo(float).smallest_subnormal


def _index(value, name: str) -> int:
    """``operator.index(value)``, refusing ``True`` and ``False``, which it takes as 1 and 0.

    The one integer conversion: a refusal is a ``ValueError`` naming ``value`` as ``name``.
    """
    try:
        return index(None if isinstance(value, bool) else value)  # index(None) raises
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _dims(*dims, shown: str | None = None) -> tuple[int, ...]:
    """Positive integer ``dims`` of at most ``MAX_MATRIX_SIDE`` rows, checked before any sizing.

    A refusal names them as ``shown`` spells them, if given (a state file's
    ``1e+300`` rather than its 301 digits), else as the integers they are.
    """
    try:
        checked = tuple(_index(d, "dims") for d in dims)
    except ValueError:
        raise ValueError(f"dims must be integers, got {dims!r}") from None
    shown = str(checked) if shown is None else shown
    if min(checked) < 1:
        raise ValueError(f"dims {shown} must be positive")
    if math.prod(checked) > MAX_MATRIX_SIDE:
        raise ValueError(f"dims {shown} give more than {MAX_MATRIX_SIDE} rows")
    return checked


def _infer_dims(n: int, dim_a, dim_b) -> tuple[int, int]:
    if dim_a is None and dim_b is None:
        dim_a = dim_b = math.isqrt(n)
        if dim_a * dim_b != n:
            raise ValueError(
                f"cannot infer a bipartition of total dimension {n}; pass dim_a, dim_b"
            )
    elif dim_a is None:
        dim_a = n // _dims(dim_b)[0]
    elif dim_b is None:
        dim_b = n // _dims(dim_a)[0]
    else:
        dim_a, dim_b = _dims(dim_a, dim_b)
    if dim_a * dim_b != n:
        raise ValueError(f"dims ({dim_a}, {dim_b}) do not factor total dimension {n}")
    return _dims(dim_a, dim_b)


def _local_dim(d) -> int:
    """A local dimension of a symmetric family: an integer of at least 2, ``d * d`` rows in all."""
    d = _index(d, "local dimension")
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    return _dims(d, d)[0]


def _in_domain(values, lo: float, hi: float, name: str) -> np.ndarray:
    """``values`` as a float array of any shape, each inside ``[lo, hi]``, named ``name``."""
    values = _numbers(values, float, name)
    outside = np.flatnonzero(~((values >= lo) & (values <= hi)))
    if outside.size:
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {values.flat[outside[0]]}")
    return values


# Family parameter domains, each as ``(lo, hi, name)`` for ``_in_domain`` and ``_parameters``.
_FLIP = (-1.0, 1.0, "flip expectation")
_FIDELITY = (0.0, 1.0, "fidelity")
_MIXING = (0.0, 1.0, "mixing weight")
_QUTRIT = (2.0, 5.0, "parameter")


def _stack_fits(count: int, side: int) -> None:
    """Refuse ``count`` complex ``side x side`` matrices above ``MAX_STACK_BYTES``.

    Called before the matrices are allocated.
    """
    size = 16 * count * side * side
    if size > MAX_STACK_BYTES:
        raise ValueError(
            f"{count} matrices of side {side} take {size} bytes, more than {MAX_STACK_BYTES}"
        )


def _sizable(values, name: str) -> np.ndarray:
    """``values`` as an array whose size counts the matrices a ``*_stack`` builder makes.

    An array passes as it is, so its size meets ``MAX_STACK_BYTES`` before
    any pass over its values.  Any other value is admitted by ``_numbers``
    first, which reads a list's entries by kind, so a ragged list is refused
    by name; the conversion peaks at 17 bytes an entry, against 64 or more
    of the matrices an entry sizes.
    """
    return values if isinstance(values, np.ndarray) else _numbers(values, float, name)


def _parameters(values, lo: float, hi: float, name: str, side: int) -> np.ndarray:
    """Family parameters as a 1-d float array, each inside ``[lo, hi]``.

    A ``*_stack`` builder passes the ``side`` of the matrices it sizes from
    them; their count meets ``MAX_STACK_BYTES`` (see :func:`_sizable`).
    """
    values = _sizable(values, name)
    _stack_fits(values.size, side)
    values = _in_domain(values, lo, hi, name)
    if values.ndim != 1:
        raise ValueError(f"{name} values must form a 1-d sequence, got shape {values.shape}")
    return values


def _bipartite_tensor(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """View a ``(..., d_a d_b, d_a d_b)`` stack as ``(..., d_a, d_b, d_a, d_b)``.

    The one reshape of the composite index: axes ``-4, -3`` index the row's A
    and B factors, ``-2, -1`` the column's.
    """
    return m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))


def _matrix(four: np.ndarray) -> np.ndarray:
    """The ``(..., p q, r s)`` matrix of a ``(..., p, q, r, s)`` permuted bipartite view."""
    *lead, p, q, r, s = four.shape
    return four.reshape((*lead, p * q, r * s))


def _state_tensor(rho: DensityOperator, caller: str) -> np.ndarray:
    """The bipartite view of a validated state or stack, read as it was stored for ``caller``."""
    _check_kind(rho, DensityOperator, caller)
    return _bipartite_tensor(rho.matrix, rho.dim_a, rho.dim_b)


def _raw_tensor(matrix, dim_a: int, dim_b: int) -> np.ndarray:
    """The bipartite view of a raw matrix or stack, admitted as ``linalg`` admits raw input.

    The dims meet the rule of every state constructor (:func:`_dims`) first.
    """
    dim_a, dim_b = _dims(dim_a, dim_b)
    m = _as_matrix(matrix, stack=True)
    if m.shape[-2:] != (dim_a * dim_b,) * 2:
        raise ValueError(f"matrix shape {m.shape} does not match bipartition ({dim_a}, {dim_b})")
    return _bipartite_tensor(m, dim_a, dim_b)


def _per_state(values, scalar=float):
    """A Python ``scalar`` (float by default) for one state, the array itself for a stack."""
    return scalar(values) if np.ndim(values) == 0 else values


def _check_kind(value, kind: type, caller: str) -> None:
    """Refuse anything but a ``kind`` where ``caller`` takes one, before any attribute is read.

    The one type check of a state-like argument: a ``DensityOperator`` (one
    state or a stack), a ``PureState`` or a ``GammaValue``.  A raw array is
    refused, not validated on the caller's behalf.
    """
    if not isinstance(value, kind):
        raise TypeError(f"{caller} needs a {kind.__name__}, got {type(value).__name__}")


def _one_state(rho: DensityOperator, caller: str) -> None:
    """Refuse anything but one validated state where ``caller`` takes one."""
    _check_kind(rho, DensityOperator, caller)
    if rho.matrix.ndim != 2:
        raise ValueError(f"{caller} needs one state, got shape {rho.matrix.shape}")


def _square_dim(rho: DensityOperator, caller: str) -> int:
    """The local dimension ``d`` of one state on ``C^d (x) C^d``, which ``caller`` needs."""
    _one_state(rho, caller)
    if rho.dim_a != rho.dim_b:
        raise ValueError(f"{caller} needs equal local dimensions, got dims {rho.dims}")
    return rho.dim_a


def _check_invariant(invariant: str, residual: np.ndarray, failed: np.ndarray) -> None:
    """Raise for the first state of a stack whose invariant ``failed``."""
    first = np.flatnonzero(failed)
    if first.size:
        raise InvariantViolation(invariant, np.ravel(residual)[first[0]])


def _psd_shift(n):
    """The diagonal shift of :func:`_certify_psd` for side ``n``, or for each side of an array."""
    trace = 1.0 + n * PSD_TOL  # bounds tr(A) and max a_ii
    return PSD_TOL - (CHOLESKY_MARGIN * (n + 2) * _EPS * trace
                      + 4 * n * (2 * (n + 1) + trace) * _SUBNORMAL)


def _certify_psd(m: np.ndarray) -> bool:
    """Whether one Cholesky proves ``lambda_min > -PSD_TOL`` for every matrix of ``m``.

    ``m`` is a Hermitian ``(..., n, n)`` stack of unit trace.  A stack whose
    imaginary parts are all zero is a real symmetric one, and only its real
    part is copied and factored, in real arithmetic.  The Cholesky factor
    ``R`` computed for ``A = m + shift I`` satisfies ``R^H R = A + E`` with
    ``|E| <= g |R^H| |R|``, where ``g = gamma_{n+1}`` in real arithmetic and
    ``g = gamma_{n+2}`` in complex arithmetic (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., Thm 10.3 and Sec. 3.6);
    the real constant is the smaller, so the bound below, written for the
    complex one, covers both.  Since
    ``|| |R^H| |R| ||_2 <= ||R||_F^2 = tr(A + E)``, this gives
    ``||E||_2 <= g / (1 - g) tr(A)`` (Rump, "Verification of positive
    definiteness", BIT 46 (2006) 433-452), which Rump extends by an
    underflow term ``4 n (2 (n + 1) + max a_ii) eta`` for the smallest
    subnormal ``eta``.  With ``tr(A)`` and ``max a_ii`` at most
    ``1 + n PSD_TOL`` and ``u = eps / 2``, the margin
    ``CHOLESKY_MARGIN (n + 2) eps (1 + n PSD_TOL)`` plus that underflow term
    covers this bound and the rounding of the shifted diagonal, about
    ``(n + 3) u (1 + n PSD_TOL)`` together, at least three times over.  With
    ``shift = PSD_TOL - margin`` (:func:`_psd_shift`), a factorization that
    runs to completion makes ``A + E`` positive definite, so by Weyl's
    inequality ``lambda_min(m) > -shift - ||E||_2 >= -PSD_TOL``.  The shift
    is positive for every ``n`` up to ``MAX_MATRIX_SIDE``, and smallest
    there, at 9.95e-11.

    ``False`` proves nothing: some matrix of the stack has ``lambda_min``
    within about ``margin`` of ``-PSD_TOL`` or below it; the caller then
    measures ``lambda_min`` itself.
    """
    n = m.shape[-1]
    shifted = (m if m.imag.any() else m.real).copy()
    shifted.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1] += _psd_shift(n)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


class _Bipartite:
    """Immutable object on ``C^{d_a} (x) C^{d_b}``; subclasses set their slots in ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}(dim_a={self.dim_a}, dim_b={self.dim_b})"

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)

    def _freeze(self, dim_a: int, dim_b: int, data: np.ndarray) -> None:
        """Close ``__init__``: make ``data`` read-only and set the three slots, in order."""
        data.setflags(write=False)
        for name, value in zip(self.__slots__, (dim_a, dim_b, data)):
            object.__setattr__(self, name, value)


class DensityOperator(_Bipartite):
    """Density operator on ``C^{d_a} (x) C^{d_b}``, or a stack of them validated together.

    ``matrix`` is one ``(n, n)`` matrix or a ``(..., n, n)`` stack.  Every
    matrix must be Hermitian, unit-trace and positive semidefinite, each
    within tolerance.  Accepted matrices are symmetrized, trace-renormalized
    and frozen read-only.  The first matrix failing an invariant raises
    :class:`InvariantViolation` with its residual; invariants are checked in
    that order over the whole stack.  The tolerances are the constants
    ``HERMITICITY_TOL``, ``TRACE_TOL`` and ``PSD_TOL``, which no caller
    sets: they absorb rounding, and the criteria are exact statements.

    A stack with ``matrix == matrix^dag`` in every entry, as every builder
    of this module and ``random_density`` make, has Hermiticity residual 0,
    found by one comparison without measuring ``max|h - h^dag|``; one matrix
    that differs in any bit sends the whole stack through that measurement.
    Either way the stored matrix is ``(h + h^dag) / 2`` over its trace.

    Positive semidefiniteness, ``lambda_min >= -PSD_TOL``, is first
    certified by one Cholesky factorization of the stack shifted by just
    under ``PSD_TOL``, in real arithmetic for a real-valued stack; its
    success proves ``lambda_min > -PSD_TOL`` for every matrix (see
    :func:`_certify_psd`), rank-deficient ones included.  Only when it fails
    does ``eigvalsh`` measure each ``lambda_min``, which then decides
    acceptance and is the refused matrix's residual.  The criteria take one
    state or a stack and return one value per state.
    """

    __slots__ = ("dim_a", "dim_b", "matrix")

    # Entries near the float limit overflow in the checks; the invariant that
    # fails then raises its own error, with no numpy warning before it.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, matrix, dim_a: int | None = None, dim_b: int | None = None):
        m = _numbers(matrix, complex, "density matrix entries")
        if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        dim_a, dim_b = _infer_dims(m.shape[-1], dim_a, dim_b)

        m, herm_residual, bound = _hermitian_part(m, HERM_TOL)
        _check_invariant("hermiticity", herm_residual, herm_residual > bound)

        trace = np.real(np.trace(m, axis1=-2, axis2=-1))
        deviation = np.abs(trace - 1.0)
        _check_invariant("unit_trace", deviation, deviation > TRACE_TOL)
        m /= trace[..., None, None]

        if not _certify_psd(m):
            min_eig = np.linalg.eigvalsh(m)[..., 0]
            _check_invariant("positive_semidefinite", min_eig, min_eig < -PSD_TOL)

        self._freeze(dim_a, dim_b, m)


# The name stack callers use; the constructor is the one validation.
validate_stack = DensityOperator


class PureState(_Bipartite):
    """Unit vector on ``C^{d_a} (x) C^{d_b}`` (row-major composite index)."""

    __slots__ = ("dim_a", "dim_b", "amplitudes")

    @np.errstate(over="ignore", invalid="ignore")  # as on DensityOperator
    def __init__(self, amplitudes, dim_a: int | None = None, dim_b: int | None = None):
        amps = _numbers(amplitudes, complex, "amplitudes").ravel()
        dim_a, dim_b = _infer_dims(amps.size, dim_a, dim_b)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantViolation("unit_norm", abs(norm - 1.0))
        self._freeze(dim_a, dim_b, amps / norm)

    def coefficient_matrix(self) -> np.ndarray:
        """The ``d_a x d_b`` matrix ``c`` with ``c[a, b] = <a (x) b|psi>``."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def projector(self) -> DensityOperator:
        """The rank-one density operator ``|psi><psi|``, validated as every state is."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), *self.dims)


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data of a bipartite vector.

    ``coefficients`` are the probabilities ``p_i`` in descending order; the
    columns of ``left_basis`` / ``right_basis`` are the matching orthonormal
    local vectors, so the source vector is ``sum_i sqrt(p_i) a_i (x) b_i``.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray


def bell_spectrum(lam) -> np.ndarray:
    """Validate Bell-diagonal spectra: four finite, nonnegative weights summing to 1.

    ``lam`` is one spectrum of shape ``(4,)`` or one per row of a ``(k, 4)``
    array; the result has the same shape.
    """
    lam = _numbers(lam, float, "weights")
    if lam.ndim not in (1, 2) or lam.shape[-1] != 4:
        raise ValueError(f"spectrum needs four weights: shape (4,) or (k, 4), got {lam.shape}")
    rows = lam.reshape(-1, 4)
    low = rows.min(axis=1)
    negative = low < -WEIGHT_SLACK
    if negative.any():
        raise ValueError(f"weights must be nonnegative, got min {low[negative.argmax()]}")
    total = rows.sum(axis=1)
    unnormalized = np.abs(total - 1.0) > WEIGHT_SLACK
    if unnormalized.any():
        raise ValueError(f"weights must sum to 1, got {total[unnormalized.argmax()]}")
    return (rows.clip(0.0, None) / total[:, None]).reshape(lam.shape)


def _swapped_identity(d, axis1: int, axis2: int) -> np.ndarray:
    """The identity of ``C^d (x) C^d`` with two axes of its bipartite view swapped."""
    d = _local_dim(d)
    identity = _bipartite_tensor(np.eye(d * d, dtype=complex), d, d)
    return _matrix(np.swapaxes(identity, axis1, axis2))


def flip_operator(d: int) -> np.ndarray:
    """Swap operator on ``C^d (x) C^d``: maps ``|i (x) j>`` to ``|j (x) i>``.

    Built as the identity with the column's two factors swapped.
    """
    return _swapped_identity(d, -2, -1)


def max_entangled(d: int) -> PureState:
    """Maximally entangled vector ``sum_i |i (x) i> / sqrt(d)``: coefficients ``I / sqrt(d)``."""
    d = _local_dim(d)
    return PureState(np.eye(d) / math.sqrt(d), d, d)


@functools.lru_cache(maxsize=8)
def _max_entangled_amplitudes(d: int) -> np.ndarray:
    """The read-only amplitudes of ``max_entangled(d)``, built once; ``d`` from ``_local_dim``."""
    return max_entangled(d).amplitudes


def fhat_operator(d: int) -> np.ndarray:
    """Rank-one operator ``sum_ij |i (x) i><j (x) j|`` (trace ``d``).

    Coincides with the partial transpose of the swap operator on one factor,
    with ``d`` times the maximally entangled projector, and with the
    realignment of the identity, as which it is built.
    """
    return _swapped_identity(d, -3, -2)


# The ``*_stack`` builders take a 1-d sequence of parameters (spectra for
# the Bell-diagonal family) and return the unvalidated matrices as one
# ``(k, n, n)`` array; pass it to ``DensityOperator``.  A result above
# ``MAX_STACK_BYTES`` is refused before it is allocated.  The scalar
# constructors are the builders applied to one parameter.


def werner_stack(d: int, f) -> np.ndarray:
    """Werner matrices for each flip expectation in ``f``.

    Built as ``((d - f) I + (d f - 1) F) / (d^3 - d)`` so that
    ``tr(rho F) = f`` for the swap operator ``F``.
    """
    d = _local_dim(d)
    f = _parameters(f, *_FLIP, side=d * d)[:, None, None]
    return ((d - f) * np.eye(d * d, dtype=complex) + (d * f - 1.0) * flip_operator(d)) / (d**3 - d)


def werner_state(d: int, f: float) -> DensityOperator:
    """Werner state with flip expectation ``f`` (see :func:`werner_stack`)."""
    return DensityOperator(werner_stack(d, [f])[0], d, d)


def isotropic_stack(d: int, F) -> np.ndarray:
    """Isotropic matrices for each maximally entangled fidelity in ``F``."""
    d = _local_dim(d)
    F = _parameters(F, *_FIDELITY, side=d * d)[:, None, None]
    psi = _max_entangled_amplitudes(d)
    proj = np.outer(psi, psi.conj())
    return (1.0 - F) / (d * d - 1.0) * (np.eye(d * d, dtype=complex) - proj) + F * proj


def isotropic_state(d: int, F: float) -> DensityOperator:
    """Isotropic state with maximally entangled fidelity ``F``."""
    return DensityOperator(isotropic_stack(d, [F])[0], d, d)


def bell_basis() -> tuple[PureState, PureState, PureState, PureState]:
    """The four Bell vectors of ``C^2 (x) C^2``.

    Phases: the two triplet vectors with a symmetric component pick up a
    factor ``i``; the singlet is real.
    """
    s = 1.0 / math.sqrt(2.0)
    vectors = (
        np.array([s, 0.0, 0.0, s], dtype=complex),
        np.array([0.0, 1j * s, 1j * s, 0.0], dtype=complex),
        np.array([0.0, -s, s, 0.0], dtype=complex),
        np.array([1j * s, 0.0, 0.0, -1j * s], dtype=complex),
    )
    return tuple(PureState(v, 2, 2) for v in vectors)


# Validated amplitudes: raw 1/sqrt(2) entries miss PureState's rescaling in the last bit.
_BELL_VECTORS = np.array([psi.amplitudes for psi in bell_basis()])


def bell_diagonal_stack(lams) -> np.ndarray:
    """Two-qubit matrices diagonal in the Bell basis, one per row of ``(k, 4)`` weights."""
    lams = _sizable(lams, "weights")
    _stack_fits(lams.size // 4, 4)  # four weights a matrix
    lams = bell_spectrum(lams)
    if lams.ndim != 2:
        raise ValueError(f"spectra must form a (k, 4) array, got shape {lams.shape}")
    m = np.zeros((lams.shape[0], 4, 4), dtype=complex)
    for weight, psi in zip(lams.T, _BELL_VECTORS):
        m += weight[:, None, None] * np.outer(psi, psi.conj())
    return m


def bell_diagonal_state(lam) -> DensityOperator:
    """Two-qubit state diagonal in the Bell basis with weights ``lam``."""
    spectrum = bell_spectrum(lam)  # refused under the shape the caller passed
    if spectrum.shape != (4,):
        raise ValueError(f"one spectrum needs shape (4,), got {spectrum.shape}")
    return DensityOperator(bell_diagonal_stack(np.reshape(lam, (1, 4)))[0], 2, 2)


def qubit_family_stack(p) -> np.ndarray:
    """Two-qubit mixtures ``p |00><00| + (1 - p) |Phi><Phi|`` for each ``p``.

    ``|Phi> = (|01> + |10>) / sqrt(2)``; entangled for every ``p < 1``.
    """
    p = _parameters(p, *_MIXING, side=4)[:, None, None]
    s = 1.0 / math.sqrt(2.0)
    e00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    phi = np.array([0.0, s, s, 0.0], dtype=complex)
    return p * np.outer(e00, e00.conj()) + (1.0 - p) * np.outer(phi, phi.conj())


def qubit_family(p: float) -> DensityOperator:
    """Two-qubit mixture of ``|00>`` with a Bell state (see :func:`qubit_family_stack`)."""
    return DensityOperator(qubit_family_stack([p])[0], 2, 2)


def qutrit_family_stack(alpha) -> np.ndarray:
    """Two-qutrit family interpolating separable, bound and free entanglement.

    ``rho = (2/7) P+ + (alpha/7) sigma_plus + ((5 - alpha)/7) sigma_minus``
    with ``sigma_plus`` the uniform mixture of ``|01>, |12>, |20>`` and
    ``sigma_minus`` of ``|10>, |21>, |02>``; defined for ``2 <= alpha <= 5``.
    """
    alpha = _parameters(alpha, *_QUTRIT, side=9)[:, None, None]
    psi = _max_entangled_amplitudes(3)
    proj = np.outer(psi, psi.conj())
    # The weights of sigma_plus on |a (x) a+1 mod 3> as a coefficient layout;
    # sigma_minus weighs the transposed layout.
    cycle = np.roll(np.eye(3), 1, axis=1) / 3.0
    sigma_plus, sigma_minus = np.diag(cycle.ravel()), np.diag(cycle.T.ravel())
    return (2.0 / 7.0) * proj + (alpha / 7.0) * sigma_plus + ((5.0 - alpha) / 7.0) * sigma_minus


def qutrit_family(alpha: float) -> DensityOperator:
    """Two-qutrit family member (see :func:`qutrit_family_stack`)."""
    return DensityOperator(qutrit_family_stack([alpha])[0], 3, 3)


def pure_from_schmidt(p, dim_a: int, dim_b: int) -> PureState:
    """Vector ``sum_i sqrt(p_i) |i (x) i>`` built on the canonical bases."""
    dim_a, dim_b = _dims(dim_a, dim_b)
    p = _numbers(p, float, "coefficients").ravel()
    if p.size > min(dim_a, dim_b):
        raise ValueError(f"{p.size} coefficients do not fit local dimensions ({dim_a}, {dim_b})")
    if float(np.min(p, initial=0.0)) < 0.0:
        raise ValueError("coefficients must be nonnegative")
    if abs(float(np.sum(p)) - 1.0) > WEIGHT_SLACK:
        raise ValueError(f"coefficients must sum to 1, got {np.sum(p)}")
    coefficients = np.zeros((dim_a, dim_b), dtype=complex)
    coefficients[np.diag_indices(p.size)] = np.sqrt(p)
    return PureState(coefficients, dim_a, dim_b)


def _thin_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``u, s, vh`` of the thin SVD of ``matrix``, without the singular values ``<= SV_FLOOR``."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    keep = s > _SV_FLOOR
    return u[:, keep], s[keep], vh[keep]


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    """Schmidt decomposition via the SVD of the coefficient matrix."""
    _check_kind(psi, PureState, "schmidt_decompose")
    u, s, vh = _thin_svd(psi.coefficient_matrix())
    # Right vectors are the rows of vh: psi reconstructs as
    # sum_i s_i u_i (x) vh[i].
    return SchmidtForm(coefficients=s**2, left_basis=u, right_basis=vh.T)


def _expectation(rho: DensityOperator, operator: np.ndarray) -> float:
    return float(np.real(np.einsum("ij,ji->", rho.matrix, operator)))


def _clip_to(value: float, lo: float, hi: float, name: str) -> float:
    """Clip ``value`` into ``[lo, hi]`` from within ``CLIP_GUARD``; ``_in_domain`` refuses others."""
    if lo - CLIP_GUARD <= value <= hi + CLIP_GUARD:
        value = min(max(value, lo), hi)
    _in_domain(value, lo, hi, name)
    return value


def twirl_uu(sigma: DensityOperator) -> DensityOperator:
    """Projection onto the Werner family (average over ``U (x) U`` rotations).

    Matches the flip expectation of the input, so the result is the Werner
    state with ``f = tr(sigma F)``.
    """
    d = _square_dim(sigma, "twirl_uu")
    f = _clip_to(_expectation(sigma, flip_operator(d)), *_FLIP)
    return werner_state(d, f)


def twirl_uubar(sigma: DensityOperator) -> DensityOperator:
    """Projection onto the isotropic family (average over ``U (x) conj(U)``)."""
    d = _square_dim(sigma, "twirl_uubar")
    fidelity = _clip_to(_expectation(sigma, fhat_operator(d)) / d, *_FIDELITY)
    return isotropic_state(d, fidelity)


def partial_trace_a(rho: DensityOperator) -> np.ndarray:
    """Trace out the A factor, returning the ``d_b x d_b`` marginal (one per state of a stack)."""
    return np.trace(_state_tensor(rho, "partial_trace_a"), axis1=-4, axis2=-2)


def partial_trace_b(rho: DensityOperator) -> np.ndarray:
    """Trace out the B factor, returning the ``d_a x d_a`` marginal (one per state of a stack)."""
    return np.trace(_state_tensor(rho, "partial_trace_b"), axis1=-3, axis2=-1)


def _rng(seed) -> np.random.Generator:
    """The generator of a random state or unitary: ``seed`` is ``None`` or a nonnegative integer."""
    if seed is not None and _index(seed, "seed") < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(None if seed is None else _index(seed, "seed"))


def random_pure(dim_a: int, dim_b: int, seed=None) -> PureState:
    """Haar-random pure state on ``C^{d_a} (x) C^{d_b}``.

    ``seed``, if given, is a nonnegative integer.
    """
    dim_a, dim_b = _dims(dim_a, dim_b)
    rng = _rng(seed)
    z = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return PureState(z / np.linalg.norm(z), dim_a, dim_b)


def random_density(dim_a: int, dim_b: int, rank: int | None = None, seed=None) -> DensityOperator:
    """Random density operator of the given rank (full rank by default).

    ``seed``, if given, is a nonnegative integer, as for :func:`random_pure`.
    """
    dim_a, dim_b = _dims(dim_a, dim_b)
    n = dim_a * dim_b
    rank = n if rank is None else _index(rank, "rank")
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    rng = _rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.real(np.trace(m)), dim_a, dim_b)
