"""Bipartite state families, Schmidt machinery and analytic twirling.

Composite systems use the row-major index convention: the basis vector
``|a> (x) |b>`` of ``C^{d_a} (x) C^{d_b}`` sits at component ``a * d_b + b``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import index
from typing import NamedTuple

import numpy as np

from .linalg import _hermitian_part
from .tolerances import CLIP_GUARD, NORM_TOL, PSD_TOL, TRACE_TOL, WEIGHT_SLACK
from .tolerances import HERMITICITY_TOL as HERM_TOL, SV_FLOOR as _SV_FLOOR

__all__ = [
    "InvariantViolation",
    "DensityOperator",
    "DensityStack",
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
    """A state invariant failed beyond its tolerance."""

    def __init__(self, invariant: str, residual: float, message: str | None = None):
        self.invariant = invariant
        self.residual = float(residual)
        super().__init__(
            message
            or f"invariant '{invariant}' violated: residual {self.residual:.6e}"
        )


def _infer_dims(n: int, dim_a, dim_b) -> tuple[int, int]:
    if dim_a is None and dim_b is None:
        root = math.isqrt(n)
        if root * root != n:
            raise ValueError(
                f"cannot infer a bipartition of total dimension {n}; pass dim_a, dim_b"
            )
        return root, root
    given_a = None if dim_a is None else int(dim_a)
    given_b = None if dim_b is None else int(dim_b)
    if (given_a is not None and given_a < 1) or (given_b is not None and given_b < 1):
        raise ValueError(f"dims ({dim_a}, {dim_b}) must be positive")
    dim_a = n // given_b if given_a is None else given_a
    dim_b = n // dim_a if given_b is None else given_b
    if dim_a < 1 or dim_b < 1 or dim_a * dim_b != n:
        raise ValueError(f"dims ({dim_a}, {dim_b}) do not factor total dimension {n}")
    return dim_a, dim_b


def _local_dim(d) -> int:
    """A local dimension of a symmetric family: an integer of at least 2."""
    try:
        d = index(d)
    except TypeError:
        raise ValueError(f"local dimension must be an integer, got {d!r}") from None
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    return d


def _in_domain(values, lo: float, hi: float, name: str) -> np.ndarray:
    """``values`` as a float array of any shape, each inside ``[lo, hi]``."""
    values = np.asarray(values, dtype=float)
    outside = np.flatnonzero(~((values >= lo) & (values <= hi)))
    if outside.size:
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {values.flat[outside[0]]}")
    return values


# Family parameter domains, each as ``(lo, hi, name)`` for ``_in_domain`` and ``_parameters``.
_FLIP = (-1.0, 1.0, "flip expectation")
_FIDELITY = (0.0, 1.0, "fidelity")
_MIXING = (0.0, 1.0, "mixing weight")
_QUTRIT = (2.0, 5.0, "parameter")


def _parameters(values, lo: float, hi: float, name: str) -> np.ndarray:
    """Family parameters as a 1-d float array, each inside ``[lo, hi]``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} values must form a 1-d sequence, got shape {values.shape}")
    return _in_domain(values, lo, hi, name)


def _bipartite_tensor(matrix, dim_a: int, dim_b: int) -> np.ndarray:
    """View a ``(..., d_a d_b, d_a d_b)`` stack as ``(..., d_a, d_b, d_a, d_b)``.

    Axes ``-4, -3`` index the row's A and B factors, ``-2, -1`` the column's.
    """
    m = np.asarray(matrix, dtype=complex)
    n = dim_a * dim_b
    if m.ndim < 2 or m.shape[-2:] != (n, n):
        raise ValueError(
            f"matrix shape {m.shape} does not match bipartition ({dim_a}, {dim_b})"
        )
    return m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))


def _per_state(values, scalar=float):
    """A Python ``scalar`` (float by default) for one state, the array itself for a stack."""
    return scalar(values) if np.ndim(values) == 0 else values


def _check_invariant(invariant: str, residual: np.ndarray, failed: np.ndarray) -> None:
    """Raise for the first state of a stack whose invariant ``failed``."""
    first = np.flatnonzero(failed)
    if first.size:
        raise InvariantViolation(invariant, np.ravel(residual)[first[0]])


class DensityStack(NamedTuple):
    """Density operators on ``C^{d_a} (x) C^{d_b}``, validated together.

    ``matrix`` has shape ``(..., d_a d_b, d_a d_b)`` and is read-only.
    :func:`validate_stack` builds one; constructing it directly skips the
    checks.  The criteria accept it wherever they accept a
    :class:`DensityOperator` and return one value per state.  They assume
    the exactly Hermitian matrices :func:`validate_stack` stores: on a
    hand-built stack of non-Hermitian matrices ``tau`` and the eigenvalue
    floors are meaningless.
    """

    matrix: np.ndarray
    dim_a: int
    dim_b: int


# Entries near the float limit overflow in the checks; the invariant that
# fails then raises its own error, with no numpy warning before it.
@np.errstate(over="ignore", invalid="ignore")
def validate_stack(
    matrices,
    dim_a: int | None = None,
    dim_b: int | None = None,
    *,
    tol_herm: float = HERM_TOL,
    tol_psd: float = PSD_TOL,
) -> DensityStack:
    """Check and normalise a ``(..., n, n)`` stack of density matrices.

    Every matrix must be Hermitian, unit-trace and positive semidefinite,
    each within tolerance.  Accepted matrices are symmetrized and
    trace-renormalized.  The first matrix failing an invariant raises
    :class:`InvariantViolation` with its residual; invariants are checked in
    that order over the whole stack.  Both tolerances must be finite and
    nonnegative.
    """
    for name, tol in (("tol_herm", tol_herm), ("tol_psd", tol_psd)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {tol}")
    m = np.asarray(matrices, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix entries must be finite")
    dim_a, dim_b = _infer_dims(m.shape[-1], dim_a, dim_b)

    m, herm_residual, bound = _hermitian_part(m, tol_herm)
    _check_invariant("hermiticity", herm_residual, herm_residual > bound)

    trace = np.real(np.trace(m, axis1=-2, axis2=-1))
    deviation = np.abs(trace - 1.0)
    _check_invariant("unit_trace", deviation, deviation > TRACE_TOL)
    m = m / trace[..., None, None]

    min_eig = np.linalg.eigvalsh(m)[..., 0]
    _check_invariant("positive_semidefinite", min_eig, min_eig < -tol_psd)

    m.setflags(write=False)
    return DensityStack(m, dim_a, dim_b)


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


class DensityOperator(_Bipartite):
    """Density operator on ``C^{d_a} (x) C^{d_b}``.

    The matrix is required to be Hermitian, unit-trace and positive
    semidefinite, each within tolerance; accepted inputs are symmetrized and
    trace-renormalized, then frozen.
    """

    __slots__ = ("dim_a", "dim_b", "matrix")

    def __init__(
        self,
        matrix,
        dim_a: int | None = None,
        dim_b: int | None = None,
        *,
        tol_herm: float = HERM_TOL,
        tol_psd: float = PSD_TOL,
    ):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        state = validate_stack(m, dim_a, dim_b, tol_herm=tol_herm, tol_psd=tol_psd)
        object.__setattr__(self, "dim_a", state.dim_a)
        object.__setattr__(self, "dim_b", state.dim_b)
        object.__setattr__(self, "matrix", state.matrix)


class PureState(_Bipartite):
    """Unit vector on ``C^{d_a} (x) C^{d_b}`` (row-major composite index)."""

    __slots__ = ("dim_a", "dim_b", "amplitudes")

    @np.errstate(over="ignore", invalid="ignore")  # as on validate_stack
    def __init__(self, amplitudes, dim_a: int | None = None, dim_b: int | None = None):
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        dim_a, dim_b = _infer_dims(amps.size, dim_a, dim_b)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantViolation("unit_norm", abs(norm - 1.0))
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        object.__setattr__(self, "amplitudes", amps)

    def coefficient_matrix(self) -> np.ndarray:
        """The ``d_a x d_b`` matrix ``c`` with ``c[a, b] = <a (x) b|psi>``."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def projector(self) -> DensityOperator:
        """The rank-one density operator ``|psi><psi|``."""
        return DensityOperator(
            np.outer(self.amplitudes, self.amplitudes.conj()), self.dim_a, self.dim_b
        )


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
    """Validate Bell-diagonal spectra: four nonnegative weights summing to 1.

    ``lam`` is one spectrum of shape ``(4,)`` or one per row of a ``(k, 4)``
    array; the result has the same shape.
    """
    lam = np.asarray(lam, dtype=float)
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


def flip_operator(d: int) -> np.ndarray:
    """Swap operator on ``C^d (x) C^d``: maps ``|i (x) j>`` to ``|j (x) i>``."""
    d = _local_dim(d)
    f = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def max_entangled(d: int) -> PureState:
    """Maximally entangled vector ``sum_i |i (x) i> / sqrt(d)``."""
    d = _local_dim(d)
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / math.sqrt(d)
    return PureState(amps, d, d)


@functools.lru_cache(maxsize=8)
def _max_entangled_amplitudes(d: int) -> np.ndarray:
    """The read-only amplitudes of ``max_entangled(d)``, built once; ``d`` from ``_local_dim``."""
    return max_entangled(d).amplitudes


def fhat_operator(d: int) -> np.ndarray:
    """Rank-one operator ``sum_ij |i (x) i><j (x) j|`` (trace ``d``).

    Coincides with the partial transpose of the swap operator on one factor
    and with ``d`` times the maximally entangled projector.
    """
    d = _local_dim(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)
    m[np.ix_(diag, diag)] = 1.0
    return m


# The ``*_stack`` builders take a 1-d sequence of parameters (spectra for
# the Bell-diagonal family) and return the unvalidated matrices as one
# ``(k, n, n)`` array; pass it to ``validate_stack``.  The scalar
# constructors are the builders applied to one parameter.


def werner_stack(d: int, f) -> np.ndarray:
    """Werner matrices for each flip expectation in ``f``.

    Built as ``((d - f) I + (d f - 1) F) / (d^3 - d)`` so that
    ``tr(rho F) = f`` for the swap operator ``F``.
    """
    d = _local_dim(d)
    f = _parameters(f, *_FLIP)[:, None, None]
    return (
        (d - f) * np.eye(d * d, dtype=complex) + (d * f - 1.0) * flip_operator(d)
    ) / (d**3 - d)


def werner_state(d: int, f: float) -> DensityOperator:
    """Werner state with flip expectation ``f`` (see :func:`werner_stack`)."""
    return DensityOperator(werner_stack(d, [f])[0], d, d)


def isotropic_stack(d: int, F) -> np.ndarray:
    """Isotropic matrices for each maximally entangled fidelity in ``F``."""
    d = _local_dim(d)
    F = _parameters(F, *_FIDELITY)[:, None, None]
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
    lams = bell_spectrum(lams)
    if lams.ndim != 2:
        raise ValueError(f"spectra must form a (k, 4) array, got shape {lams.shape}")
    m = np.zeros((lams.shape[0], 4, 4), dtype=complex)
    for weight, psi in zip(lams.T, _BELL_VECTORS):
        m += weight[:, None, None] * np.outer(psi, psi.conj())
    return m


def bell_diagonal_state(lam) -> DensityOperator:
    """Two-qubit state diagonal in the Bell basis with weights ``lam``."""
    return DensityOperator(bell_diagonal_stack(np.reshape(lam, (1, -1)))[0], 2, 2)


def qubit_family_stack(p) -> np.ndarray:
    """Two-qubit mixtures ``p |00><00| + (1 - p) |Phi><Phi|`` for each ``p``.

    ``|Phi> = (|01> + |10>) / sqrt(2)``; entangled for every ``p < 1``.
    """
    p = _parameters(p, *_MIXING)[:, None, None]
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
    alpha = _parameters(alpha, *_QUTRIT)[:, None, None]
    psi = _max_entangled_amplitudes(3)
    proj = np.outer(psi, psi.conj())
    sigma_plus = np.zeros((9, 9), dtype=complex)
    sigma_minus = np.zeros((9, 9), dtype=complex)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        sigma_plus[a * 3 + b, a * 3 + b] = 1.0 / 3.0
        sigma_minus[b * 3 + a, b * 3 + a] = 1.0 / 3.0
    return (
        (2.0 / 7.0) * proj
        + (alpha / 7.0) * sigma_plus
        + ((5.0 - alpha) / 7.0) * sigma_minus
    )


def qutrit_family(alpha: float) -> DensityOperator:
    """Two-qutrit family member (see :func:`qutrit_family_stack`)."""
    return DensityOperator(qutrit_family_stack([alpha])[0], 3, 3)


def pure_from_schmidt(p, dim_a: int, dim_b: int) -> PureState:
    """Vector ``sum_i sqrt(p_i) |i (x) i>`` built on the canonical bases."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size > min(dim_a, dim_b):
        raise ValueError(
            f"{p.size} coefficients do not fit local dimensions ({dim_a}, {dim_b})"
        )
    if float(np.min(p)) < 0.0:
        raise ValueError("coefficients must be nonnegative")
    if abs(float(np.sum(p)) - 1.0) > WEIGHT_SLACK:
        raise ValueError(f"coefficients must sum to 1, got {np.sum(p)}")
    amps = np.zeros(dim_a * dim_b, dtype=complex)
    for i, weight in enumerate(p):
        amps[i * dim_b + i] = math.sqrt(weight)
    return PureState(amps, dim_a, dim_b)


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    """Schmidt decomposition via the SVD of the coefficient matrix."""
    u, s, vh = np.linalg.svd(psi.coefficient_matrix(), full_matrices=False)
    keep = s > _SV_FLOOR
    # Right vectors are the rows of vh: psi reconstructs as
    # sum_i s_i u_i (x) vh[i].
    return SchmidtForm(
        coefficients=s[keep] ** 2,
        left_basis=u[:, keep],
        right_basis=vh[keep].T,
    )


def _expectation(rho: DensityOperator, operator: np.ndarray) -> float:
    return float(np.real(np.einsum("ij,ji->", rho.matrix, operator)))


def _clip_to(value: float, lo: float, hi: float) -> float:
    if value < lo - CLIP_GUARD or value > hi + CLIP_GUARD:
        raise ValueError(f"value {value} falls outside [{lo}, {hi}]")
    return min(max(value, lo), hi)


def twirl_uu(sigma: DensityOperator) -> DensityOperator:
    """Projection onto the Werner family (average over ``U (x) U`` rotations).

    Matches the flip expectation of the input, so the result is the Werner
    state with ``f = tr(sigma F)``.
    """
    if sigma.dim_a != sigma.dim_b:
        raise ValueError("twirl requires equal local dimensions")
    d = sigma.dim_a
    f = _clip_to(_expectation(sigma, flip_operator(d)), *_FLIP[:2])
    return werner_state(d, f)


def twirl_uubar(sigma: DensityOperator) -> DensityOperator:
    """Projection onto the isotropic family (average over ``U (x) conj(U)``)."""
    if sigma.dim_a != sigma.dim_b:
        raise ValueError("twirl requires equal local dimensions")
    d = sigma.dim_a
    fidelity = _clip_to(_expectation(sigma, fhat_operator(d)) / d, *_FIDELITY[:2])
    return isotropic_state(d, fidelity)


def partial_trace_a(rho: DensityOperator) -> np.ndarray:
    """Trace out the A factor, returning the ``d_b x d_b`` marginal (one per state of a stack)."""
    return np.trace(_bipartite_tensor(rho.matrix, rho.dim_a, rho.dim_b), axis1=-4, axis2=-2)


def partial_trace_b(rho: DensityOperator) -> np.ndarray:
    """Trace out the B factor, returning the ``d_a x d_a`` marginal (one per state of a stack)."""
    return np.trace(_bipartite_tensor(rho.matrix, rho.dim_a, rho.dim_b), axis1=-3, axis2=-1)


def random_pure(dim_a: int, dim_b: int, seed=None) -> PureState:
    """Haar-random pure state on ``C^{d_a} (x) C^{d_b}``."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return PureState(z / np.linalg.norm(z), dim_a, dim_b)


def random_density(dim_a: int, dim_b: int, rank: int | None = None, seed=None) -> DensityOperator:
    """Random density operator of the given rank (full rank by default)."""
    n = dim_a * dim_b
    if rank is None:
        rank = n
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.real(np.trace(m)), dim_a, dim_b)
