"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into ``ccnr``.  The realignment and the partial transpose
are written block by block, not with the reshape/transpose the library uses,
so an error in either formulation shows as a disagreement.  The LAPACK entry
points are bound when this module is imported, before any tracing wrapper is
installed, so reference work never appears in a trace.
"""

from __future__ import annotations

import math

import numpy as np

_svd = np.linalg.svd
_eigvalsh = np.linalg.eigvalsh

# The verdict contract from the README: tau above 1 + 1e-9 or an eigenvalue
# floor below -1e-9 is a violation; a closed-form cross norm certifies
# separability only at 1 within 1e-12.
GUARD = 1e-9
GAMMA_EQUALITY = 1e-12
# Agreement required between the program and this reference.
AGREE = 1e-9


def _block(m: np.ndarray, i: int, j: int, dim_b: int) -> np.ndarray:
    return m[i * dim_b:(i + 1) * dim_b, j * dim_b:(j + 1) * dim_b]


def realigned(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Row ``i * d_a + j`` is the row-major vectorisation of block ``(i, j)``."""
    rows = [_block(m, i, j, dim_b).ravel() for i in range(dim_a) for j in range(dim_a)]
    return np.array(rows)


def partial_transpose(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose every ``d_b x d_b`` block in place of itself."""
    out = np.empty_like(m)
    for i in range(dim_a):
        for j in range(dim_a):
            out[i * dim_b:(i + 1) * dim_b, j * dim_b:(j + 1) * dim_b] = _block(m, i, j, dim_b).T
    return out


def criteria(m: np.ndarray, dim_a: int, dim_b: int) -> tuple[float, float, float]:
    """``(tau, ppt_floor, reduction_floor)`` of a density matrix."""
    m = np.asarray(m, dtype=complex)
    tau = float(np.sum(_svd(realigned(m, dim_a, dim_b), compute_uv=False)))
    ppt = float(_eigvalsh(partial_transpose(m, dim_a, dim_b))[0])
    rho_a = np.array(
        [[np.trace(_block(m, i, j, dim_b)) for j in range(dim_a)] for i in range(dim_a)]
    )
    rho_b = sum(_block(m, i, i, dim_b) for i in range(dim_a))
    first = np.kron(rho_a, np.eye(dim_b)) - m
    second = np.kron(np.eye(dim_a), rho_b) - m
    reduction = float(min(_eigvalsh(first)[0], _eigvalsh(second)[0]))
    return tau, ppt, reduction


def verdict(tau: float, ppt: float, reduction: float, gamma: float | None) -> str:
    if tau > 1.0 + GUARD or ppt < -GUARD or reduction < -GUARD or (
        gamma is not None and gamma > 1.0 + GUARD
    ):
        return "entangled_certified"
    if gamma is not None and abs(gamma - 1.0) <= GAMMA_EQUALITY:
        return "separable_certified"
    return "undecided"


def disagreement(label: str, got, want) -> str | None:
    """Describe a mismatch between the program's and the reference's criteria.

    ``got`` and ``want`` are ``(tau, ppt_floor, reduction_floor, verdict)``.
    """
    names = ("tau", "ppt_floor", "reduction_floor")
    for name, a, b in zip(names, got[:3], want[:3]):
        if not abs(a - b) <= AGREE:
            return f"{label}: {name} {a!r} differs from reference {b!r}"
    if got[3] != want[3]:
        return f"{label}: verdict {got[3]!r}, reference gives {want[3]!r}"
    return None


# --- state families, written from their defining formulas ----------------


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _basis(d: int, *indices: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[list(indices)] = 1.0
    return v


def flip(d: int) -> np.ndarray:
    """Swap operator on ``C^d (x) C^d``."""
    f = np.zeros((d * d, d * d), dtype=complex)
    i, j = np.divmod(np.arange(d * d), d)
    f[i * d + j, j * d + i] = 1.0
    return f


def werner(d: int, f: float) -> np.ndarray:
    return ((d - f) * np.eye(d * d) + (d * f - 1.0) * flip(d)) / (d**3 - d)


def isotropic(d: int, fidelity: float) -> np.ndarray:
    phi = _projector(_basis(d * d, *range(0, d * d, d + 1)) / math.sqrt(d))
    return (1.0 - fidelity) / (d * d - 1.0) * (np.eye(d * d) - phi) + fidelity * phi


def bell_diagonal(t: float) -> np.ndarray:
    """Weight ``t`` on ``Phi+`` and ``(1 - t)/3`` on each other Bell vector."""
    s = 1.0 / math.sqrt(2.0)
    vectors = (
        s * (_basis(4, 0) + _basis(4, 3)),
        s * (_basis(4, 1) + _basis(4, 2)),
        s * (_basis(4, 2) - _basis(4, 1)),
        s * (_basis(4, 0) - _basis(4, 3)),
    )
    rest = (1.0 - t) / 3.0
    return sum(w * _projector(v) for w, v in zip((t, rest, rest, rest), vectors))


def qubit(p: float) -> np.ndarray:
    """``p |00><00| + (1 - p) |Psi+><Psi+|``."""
    psi = (_basis(4, 1) + _basis(4, 2)) / math.sqrt(2.0)
    return p * _projector(_basis(4, 0)) + (1.0 - p) * _projector(psi)


def qutrit(alpha: float) -> np.ndarray:
    """``(2/7) P+ + (alpha/7) sigma+ + ((5 - alpha)/7) sigma-``."""
    plus = sum(_projector(_basis(9, 3 * a + b)) for a, b in ((0, 1), (1, 2), (2, 0))) / 3.0
    minus = sum(_projector(_basis(9, 3 * b + a)) for a, b in ((0, 1), (1, 2), (2, 0))) / 3.0
    return (2.0 / 7.0) * isotropic(3, 1.0) + (alpha / 7.0) * plus + ((5.0 - alpha) / 7.0) * minus


def sweep_grid(text: str) -> list[float]:
    """The points ``ccnr sweep --range=start:stop:step`` tabulates."""
    start, stop, step = (float(p) for p in text.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]
