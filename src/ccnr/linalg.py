"""Dense complex linear algebra kernel shared by the whole package.

Everything here operates on plain ``numpy`` arrays (promoted to
``complex128``, except that :func:`singular_values` keeps a real float64
input real) and is pure: inputs are never modified.  ``_hermitian_part``
also serves ``states``, on arrays that module has already admitted.
``_numbers`` admits every public number of the package: it refuses text and
booleans, which numpy would parse or read as 0 and 1, a complex number where
real ones are asked for, which numpy would cast to its real part, anything
that is not a number, such as ``None``, which numpy would read as NaN, and a
Python int beyond the float range.  Where the caller names the numbers, it
refuses entries that are not finite: it is the package's only finiteness test
of a number.
"""

from __future__ import annotations

from numbers import Number

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


def _numbers(value, dtype, name: str | None = None) -> np.ndarray:
    """``np.asarray(value, dtype)``: the one conversion of a public number or array of numbers.

    Refused, each with a ``ValueError`` that names the numbers as ``name``,
    or else as ``numbers``: text, bytes and booleans; complex numbers unless
    ``dtype`` is ``complex``; any other kind that is not a Python or NumPy
    number, such as ``None``; a Python int beyond the float range; and,
    given a ``name``, an entry that is not finite.  Kinds are read from a
    scalar, from an array's dtype, or from each entry of a list, a tuple or
    an object array, which is scanned (a 0-d array there by its entry); an
    array of numbers pays only the dtype test.
    """
    entries = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    kinds = {entries.dtype.type} if entries.dtype != object else {
        type(entry[()] if isinstance(entry, np.ndarray) else entry) for entry in entries.flat}
    if any(issubclass(k, (str, bytes, bool, np.bool_)) for k in kinds):
        raise ValueError(f"{name or 'numbers'} must not be text or booleans")
    if dtype is not complex and any(issubclass(k, (complex, np.complexfloating)) for k in kinds):
        raise ValueError(f"{name or 'numbers'} must not be complex")
    if other := sorted(k.__name__ for k in kinds if not issubclass(k, Number)):
        raise ValueError(f"{name or 'numbers'} must be of a numeric kind, got {other[0]}")
    try:
        numbers = np.asarray(value, dtype)
    except OverflowError:
        raise ValueError(f"{name or 'numbers'} must lie within the float range") from None
    if name is not None and not np.isfinite(numbers).all():
        raise ValueError(f"{name} must be finite")
    return numbers


def _as_matrix(a, *, stack: bool = False, keep_real: bool = False) -> np.ndarray:
    if keep_real and not isinstance(a, np.ndarray):  # numpy cannot type a ragged list
        _numbers(a, complex, "matrix entries")
    real = keep_real and np.asarray(a).dtype == np.float64
    a = _numbers(a, float if real else complex, "matrix entries")
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got shape {a.shape}")
    return a


# Entries near the float limit overflow here silently; the residual then fails its bound.
@np.errstate(over="ignore", invalid="ignore")
def _hermitian_part(h, tol: float):
    """``(h + h^dag) / 2``, ``max|h - h^dag|`` and its bound ``tol (1 + max|h|)``, per matrix.

    A stack with ``h == h^dag`` in every entry has residual 0, returned with
    a bound of 0 and without scanning the moduli.
    """
    adjoint = np.swapaxes(h.conj(), -2, -1)
    if np.array_equal(h, adjoint):
        residual = bound = np.zeros(h.shape[:-2])
    else:
        square = (-2, -1)
        residual = np.max(np.abs(h - adjoint), axis=square)
        bound = tol * (1.0 + np.max(np.abs(h), axis=square))
    return (h + adjoint) / 2.0, residual, bound


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
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of a Hermitian matrix.

    The square matrix ``h`` must have ``||h - h^dag||_inf`` within
    ``HERMITICITY_TOL * (1 + ||h||_inf)``; it is symmetrized as
    ``(h + h^dag) / 2`` before factorization.
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
    """Schatten-1 norm: the sum of the singular values of one matrix."""
    return float(np.sum(singular_values(_as_matrix(a, keep_real=True))))


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
    a = _numbers(a, complex, "coefficients").ravel()
    if a.size < 1:
        raise ValueError("need at least one coefficient")
    if not np.all(a != 0):
        raise ValueError("all coefficients must be nonzero")
    return complex(np.prod(a) * (1.0 + np.sum(1.0 / a)))


def random_unitary(d: int, seed=None) -> np.ndarray:
    """Haar-distributed ``d x d`` unitary from the QR of a complex Gaussian.

    ``d`` meets the rule for state dimensions: a positive integer of at most
    ``states.MAX_MATRIX_SIDE``, and ``seed``, if given, is a nonnegative integer.
    """
    from .states import _dims, _rng  # states imports this module

    (d,) = _dims(d)
    rng = _rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
