"""The realignment map, operator Schmidt decomposition and closed-form values.

The realignment of a bipartite density matrix pairs the two A indices into
the row and the two B indices into the column:

    R[i * d_a + j, k * d_b + l] = rho[i * d_b + k, j * d_b + l]

so a product input ``X (x) Y`` realigns to the rank-one matrix
``vec(X) vec(Y)^T`` with trace norm ``||X||_2 ||Y||_2``.  The sum of the
singular values of ``R`` is the separability diagnostic ``tau``: it cannot
exceed 1 on separable states.  The closed forms of ``tau`` map an array of
family parameters to an array, and one parameter to a float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import singular_values
from .states import _FIDELITY, _FLIP, _MIXING, _QUTRIT, DensityOperator, _bipartite_tensor
from .states import _in_domain, _local_dim, _per_state, bell_spectrum
from .tolerances import SV_FLOOR

__all__ = [
    "RealignedMatrix",
    "OperatorSchmidt",
    "realign_matrix",
    "realign",
    "operator_schmidt",
    "ccnr_tau",
    "tau_werner_closed",
    "tau_isotropic_closed",
    "tau_bell_diagonal_closed",
    "tau_qubit_family_closed",
    "tau_qutrit_family_closed",
    "realign_trace",
]

@dataclass(frozen=True)
class RealignedMatrix:
    """Matrix of the realignment map, of shape ``(d_a^2, d_b^2)``."""

    dim_a: int
    dim_b: int
    matrix: np.ndarray


@dataclass(frozen=True)
class OperatorSchmidt:
    """Operator Schmidt decomposition ``rho = sum_i c_i E_i (x) F_i``.

    ``coefficients`` descend; ``left_ops[i]`` / ``right_ops[i]`` are
    orthonormal in the Hilbert-Schmidt inner product.  The coefficient sum
    equals the realignment trace norm ``tau``.
    """

    coefficients: np.ndarray
    left_ops: np.ndarray
    right_ops: np.ndarray


def realign_matrix(matrix, dim_a: int, dim_b: int) -> np.ndarray:
    """Realign a raw ``(d_a d_b) x (d_a d_b)`` matrix (no state validation).

    This is the diagnostic entry point: it accepts arbitrary square inputs of
    the right shape, e.g. rank-one operators ``|psi><omega|`` that are not
    states.  A ``(..., d_a d_b, d_a d_b)`` stack realigns matrix by matrix.
    """
    four = _bipartite_tensor(matrix, dim_a, dim_b)
    return np.swapaxes(four, -3, -2).reshape(four.shape[:-4] + (dim_a * dim_a, dim_b * dim_b))


def realign(rho: DensityOperator) -> RealignedMatrix:
    """Realignment of a validated density operator."""
    return RealignedMatrix(
        rho.dim_a, rho.dim_b, realign_matrix(rho.matrix, rho.dim_a, rho.dim_b)
    )


def operator_schmidt(rho: DensityOperator) -> OperatorSchmidt:
    """Operator Schmidt decomposition via the SVD of the realigned matrix."""
    u, s, vh = np.linalg.svd(
        realign_matrix(rho.matrix, rho.dim_a, rho.dim_b), full_matrices=False
    )
    keep = s > SV_FLOOR
    # Left operators unvectorize the left singular vectors; the rows of vh
    # already carry the conjugation that makes rho = sum_i s_i E_i (x) F_i.
    left = u[:, keep].T.reshape(-1, rho.dim_a, rho.dim_a)
    right = vh[keep].reshape(-1, rho.dim_b, rho.dim_b)
    return OperatorSchmidt(coefficients=s[keep], left_ops=left, right_ops=right)


def ccnr_tau(rho: DensityOperator) -> float:
    """Realignment trace norm ``tau``; values above 1 certify entanglement.

    For a :class:`~ccnr.states.DensityStack`, an array with one ``tau`` per state.
    """
    # R = realign_matrix(rho) shares its singular values with the real
    # X[(i,j),(k,l)] = Re R[(j,i),(k,l)] - Im R[(i,j),(k,l)] = U_A R U_B^T, where
    # U = (w I + conj(w) S)/sqrt(2), w = e^{i pi/4} and S swaps the two A (or
    # B) indices; X is real because rho is Hermitian.
    realigned = np.swapaxes(_bipartite_tensor(rho.matrix, rho.dim_a, rho.dim_b), -3, -2)
    real = np.swapaxes(realigned, -4, -3).real - realigned.imag
    shape = real.shape[:-4] + (rho.dim_a * rho.dim_a, rho.dim_b * rho.dim_b)
    return _per_state(np.sum(singular_values(real.reshape(shape)), axis=-1))


def tau_werner_closed(d: int, f) -> float | np.ndarray:
    """Closed-form ``tau`` for the Werner state: ``2/d - f`` up to ``f = 1/d``, then ``f``."""
    d = _local_dim(d)
    f = _in_domain(f, *_FLIP)
    return _per_state(np.where(f <= 1.0 / d, 2.0 / d - f, f))


def tau_isotropic_closed(d: int, F) -> float | np.ndarray:
    """Closed-form ``tau`` for the isotropic state: ``2/d - dF`` below ``F = 1/d^2``, then ``dF``."""
    d = _local_dim(d)
    F = _in_domain(F, *_FIDELITY)
    return _per_state(np.where(F < 1.0 / (d * d), 2.0 / d - d * F, d * F))


def tau_bell_diagonal_closed(lam) -> float | np.ndarray:
    """Closed-form ``tau`` for a Bell-diagonal state (one per row of a ``(k, 4)`` array).

    Equals ``2 max(lam)`` whenever ``max(lam) >= 1/2``, so the criterion is
    exact on this family.
    """
    l0, l1, l2, l3 = bell_spectrum(lam).T
    return _per_state(0.5 * (
        1.0
        + abs(l0 + l3 - l1 - l2)
        + abs(l1 - l2)
        + abs(l0 - l3)
        + abs(abs(l0 - l3) - abs(l1 - l2))
    ))


# ``np.float_power(x, 2.0)`` is C ``pow``, as ``x ** 2`` on a Python float is;
# ``x * x`` and ``np.power`` differ from it in the last bit on some values.
def tau_qubit_family_closed(p) -> float | np.ndarray:
    """Closed-form ``tau`` for the two-qubit mixture of ``|00>`` with a Bell state."""
    p = _in_domain(p, *_MIXING)
    cross = 0.5 * p * np.sqrt(p * p + np.float_power(1.0 - p, 2.0))
    base = 0.5 * p * p + 0.25 * np.float_power(1.0 - p, 2.0)
    return _per_state(1.0 - p + np.sqrt(base + cross) + np.sqrt(np.maximum(base - cross, 0.0)))


def tau_qutrit_family_closed(alpha) -> float | np.ndarray:
    """Closed-form ``tau`` for the two-qutrit family: ``19/21 + (2/21) sqrt(19 - 15a + 3a^2)``."""
    alpha = _in_domain(alpha, *_QUTRIT)
    root = np.sqrt(19.0 - 15.0 * alpha + 3.0 * np.float_power(alpha, 2.0))
    return _per_state(19.0 / 21.0 + (2.0 / 21.0) * root)


def realign_trace(rho: DensityOperator) -> complex:
    """Trace of the realigned matrix (square bipartitions only).

    Equals ``d`` times the maximally entangled fidelity of the state, hence
    ``dF`` for isotropic states and ``(f + 1)/(d + 1)`` for Werner states.
    """
    if rho.dim_a != rho.dim_b:
        raise ValueError("realigned matrix is square only for equal local dimensions")
    return complex(np.trace(realign_matrix(rho.matrix, rho.dim_a, rho.dim_b)))
