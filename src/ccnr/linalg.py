"""Dense complex linear algebra kernel shared by the whole package.

Everything here operates on plain ``numpy`` arrays (promoted to
``complex128``, except that :func:`singular_values` keeps a real float64
input real) and is pure: inputs are never modified.
"""

from __future__ import annotations

import numpy as np

from .tolerances import HERMITICITY_TOL

__all__ = [
    "HERMITICITY_TOL",
    "kron",
    "hermitian_eigensystem",
    "singular_values",
    "trace_norm",
    "hs_norm",
    "determinant",
    "ferrers_determinant",
    "random_unitary",
]


def _as_matrix(a, *, stack: bool = False, keep_real: bool = False) -> np.ndarray:
    a = np.asarray(a)
    if not (keep_real and a.dtype == np.float64):
        a = a.astype(complex, copy=False)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


# Entries near the float limit overflow here silently; the residual then fails its bound.
@np.errstate(over="ignore", invalid="ignore")
def _hermitian_part(h, tol: float):
    """``(h + h^dag) / 2``, ``max|h - h^dag|`` and its bound ``tol (1 + max|h|)``, per matrix."""
    adjoint = np.swapaxes(h.conj(), -2, -1)
    square = (-2, -1)
    residual = np.max(np.abs(h - adjoint), axis=square)
    return (h + adjoint) / 2.0, residual, tol * (1.0 + np.max(np.abs(h), axis=square))


def kron(a, b) -> np.ndarray:
    """Kronecker product ``a (x) b`` of two matrices."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    limit = np.iinfo(np.intp).max
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > limit // max(cols, 1):
        raise ValueError("kron output dimensions exceed platform limits")
    return np.kron(a, b)


def hermitian_eigensystem(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a numerically Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix with ``||h - h^dag||_inf`` within
        ``HERMITICITY_TOL * (1 + ||h||_inf)``.  Inputs inside the band are
        symmetrized as ``(h + h^dag) / 2`` before factorization.

    Returns
    -------
    eigenvalues : ndarray
        Real eigenvalues in ascending order.
    eigenvectors : ndarray
        Matrix whose k-th column is the orthonormal eigenvector belonging to
        ``eigenvalues[k]``.
    """
    h = _as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    hermitian, residual, bound = _hermitian_part(h, HERMITICITY_TOL)
    if residual > bound:
        raise ValueError(
            f"matrix is not Hermitian: ||h - h^dag||_inf = {residual:.3e} "
            f"exceeds tolerance {bound:.3e}"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(hermitian)
    return eigenvalues, eigenvectors


def singular_values(a) -> np.ndarray:
    """Singular values of ``a``, descending, of length ``min(rows, cols)``.

    A ``(..., rows, cols)`` stack gives one row of singular values per matrix.
    A real float64 input stays real, so LAPACK takes the real SVD, which
    costs less than half the complex one.
    """
    return np.linalg.svd(_as_matrix(a, stack=True, keep_real=True), compute_uv=False)


def trace_norm(a) -> float:
    """Schatten-1 norm: the sum of the singular values."""
    return float(np.sum(singular_values(_as_matrix(a))))


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the summed squared moduli."""
    return float(np.linalg.norm(_as_matrix(a)))


def determinant(a) -> complex:
    """Determinant via pivoted LU elimination."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return complex(np.linalg.det(a))


def ferrers_determinant(a) -> complex:
    """Closed-form determinant of the all-ones matrix plus ``diag(a)``.

    Evaluates ``a_1 a_2 ... a_n * (1 + 1/a_1 + ... + 1/a_n)``, which equals
    ``det(ones((n, n)) + diag(a))`` whenever every coefficient is nonzero.
    """
    a = np.asarray(a, dtype=complex).ravel()
    if a.size < 1:
        raise ValueError("need at least one coefficient")
    if np.any(a == 0):
        raise ValueError("all coefficients must be nonzero")
    return complex(np.prod(a) * (1.0 + np.sum(1.0 / a)))


def random_unitary(d: int, seed=None) -> np.ndarray:
    """Haar-distributed ``d x d`` unitary from the QR of a complex Gaussian."""
    if d < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
