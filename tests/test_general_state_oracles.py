"""Exact facts on general states, at d = 2 to 12, within the bound of the closed-form oracles.

A product pure state ``|a><a| (x) |b><b|`` has ``tau = 1`` exactly: its
realignment is the rank-one ``vec(|a><a|) vec(|b><b|)^T`` of trace norm
``|| |a><a| ||_2 || |b><b| ||_2 = 1``.  Both its floors are exactly 0: the
partial transpose is the projector ``|a><a| (x) |b*><b*|``, and the reduction
operators are ``|a><a| (x) (I - |b><b|)`` and ``(I - |a><a|) (x) |b><b|``, all
positive semidefinite and singular.  The check is two-sided, since a shift
that lowers ``tau`` or raises a floor hides on the separable side of every
one-sided test.

Local unitaries ``U (x) V`` move none of the three numbers: the realignment of
``(U (x) V) rho (U (x) V)^dag`` is ``(U (x) conj(U)) R(rho) (V (x) conj(V))^T``,
its partial transpose is a conjugation by ``U (x) conj(V)``, and its marginals
are conjugations by ``U`` and ``V``.

The bound is :func:`test_floor_oracles.error_bound`, relative to
``max(1, tau)`` for ``tau`` as that module scales it.
"""

import numpy as np
import pytest

from ccnr.criteria import report_stack
from ccnr.linalg import random_unitary
from ccnr.states import DensityOperator, random_density
from test_floor_oracles import _tau_error_bound, error_bound

DIMS = range(2, 13)
STATES = 4  # per local dimension


def _haar_vectors(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` Haar-random unit vectors of ``C^d``, one per row."""
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@pytest.mark.parametrize("d", DIMS)
def test_a_product_pure_state_has_tau_one_and_both_floors_zero(d):
    rng = np.random.default_rng(3000 + d)
    a, b = _haar_vectors(rng, STATES, d), _haar_vectors(rng, STATES, d)
    psi = (a[:, :, None] * b[:, None, :]).reshape(STATES, d * d)
    report = report_stack(DensityOperator(psi[:, :, None] * psi[:, None, :].conj(), d, d))
    assert np.max(np.abs(report.tau - 1.0)) <= error_bound(d)
    assert np.max(np.abs(report.ppt_floor)) <= error_bound(d)
    assert np.max(np.abs(report.reduction_floor)) <= error_bound(d)


@pytest.mark.parametrize("d", DIMS)
def test_local_unitaries_move_neither_tau_nor_a_floor(d):
    rhos = [random_density(d, d, seed=3100 + STATES * d + k) for k in range(STATES)]
    turns = [np.kron(random_unitary(d, seed=3200 + 2 * k), random_unitary(d, seed=3201 + 2 * k))
             for k in range(STATES)]
    before = report_stack(DensityOperator(np.stack([rho.matrix for rho in rhos]), d, d))
    after = report_stack(DensityOperator(
        np.stack([w @ rho.matrix @ w.conj().T for w, rho in zip(turns, rhos)]), d, d))
    assert np.all(np.abs(after.tau - before.tau) <= _tau_error_bound(d, before.tau))
    assert np.max(np.abs(after.ppt_floor - before.ppt_floor)) <= error_bound(d)
    assert np.max(np.abs(after.reduction_floor - before.reduction_floor)) <= error_bound(d)
