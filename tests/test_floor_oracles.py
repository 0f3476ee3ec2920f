"""Closed-form oracles for the numbers a report prints, at d = 2 to 12 and one pure state at d = 24.

``tau`` of a Werner or isotropic state is the paper's closed form
(``tau_werner_closed``, ``tau_isotropic_closed``); ``tau`` of a pure state
with Schmidt probabilities ``p`` is ``gamma_pure = (sum_i sqrt(p_i))^2``, the
same after any local unitary.  ``tau`` reaches ``d`` (an isotropic state at
``F = 1``), so its error is bounded relative to ``max(1, tau)``.

The partial transpose of the flip operator ``F`` is ``d P+``, with eigenvalues
``d`` (once) and 0, so the PPT floor of the Werner state
``((d - f) I + (d f - 1) F) / (d^3 - d)`` is ``min(f/d, (d - f) / (d (d^2 - 1)))``:
``f/d`` for ``f < 1/d``, else the second.  An isotropic state has eigenvalues
``F`` and ``(1 - F) / (d^2 - 1)`` and both marginals ``I/d``, so both
reduction operators are ``I/d - rho`` and the floor is
``1/d - max(F, (1 - F) / (d^2 - 1))``.  The partial transpose of a pure state
with Schmidt probabilities ``p`` has eigenvalues ``p_i`` and
``+-sqrt(p_i p_j)`` for ``i < j``, so its floor is ``-sqrt(p_1 p_2)`` for the
two largest.
"""

import math

import numpy as np
import pytest

from ccnr.criteria import ppt_min_eigenvalue, report_stack
from ccnr.crossnorm import gamma_pure
from ccnr.linalg import random_unitary
from ccnr.realign import ccnr_tau, tau_isotropic_closed, tau_werner_closed
from ccnr.states import DensityOperator, PureState, isotropic_stack, pure_from_schmidt, werner_stack

DIMS = range(2, 13)


def error_bound(d: int) -> float:
    """The error allowed on an eigenvalue floor of a ``d^2``-row operator of norm at most 1.

    A backward-stable Hermitian eigensolver misplaces an eigenvalue by
    ``c n eps ||A||_2`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Sec. 3 and 19); ``n = d^2`` rows and ``c = 1``.
    The errors measured on these families stay below ``0.2 n eps``.
    """
    return d * d * np.finfo(float).eps


def _tau_error_bound(d: int, exact) -> np.ndarray:
    """:func:`error_bound` for a ``tau`` of size ``exact``, which may exceed 1."""
    return error_bound(d) * np.maximum(1.0, exact)


def _grid(d: int, lo: float, *ends: float) -> np.ndarray:
    """21 points over ``[lo, 1]`` and the family's thresholds ``ends``."""
    return np.r_[np.linspace(lo, 1.0, 21), ends]


@pytest.mark.parametrize("d", DIMS)
def test_werner_ppt_floor_matches_its_closed_form(d):
    f = _grid(d, -1.0, 1.0 / d, np.nextafter(1.0 / d, 0.0))
    floor = report_stack(DensityOperator(werner_stack(d, f), d, d)).ppt_floor
    exact = np.where(f < 1.0 / d, f / d, (d - f) / (d * (d * d - 1.0)))
    assert np.max(np.abs(floor - exact)) <= error_bound(d)


@pytest.mark.parametrize("d", DIMS)
def test_isotropic_reduction_floor_matches_its_closed_form(d):
    F = _grid(d, 0.0, 1.0 / d, 1.0 / (d * d))
    floor = report_stack(DensityOperator(isotropic_stack(d, F), d, d)).reduction_floor
    exact = 1.0 / d - np.maximum(F, (1.0 - F) / (d * d - 1.0))
    assert np.max(np.abs(floor - exact)) <= error_bound(d)


@pytest.mark.parametrize("d", DIMS)
def test_pure_state_ppt_floor_matches_its_closed_form(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        p = rng.random(d)
        p /= p.sum()
        first, second = np.sort(p)[::-1][:2]
        floor = ppt_min_eigenvalue(pure_from_schmidt(p, d, d).projector())
        assert abs(floor + math.sqrt(first * second)) <= error_bound(d)


@pytest.mark.parametrize("d", range(3, 13))
def test_pure_state_ppt_floor_is_exact_on_a_short_schmidt_spectrum(d):
    floor = ppt_min_eigenvalue(pure_from_schmidt([0.5, 0.3, 0.2], d, d).projector())
    assert floor == -math.sqrt(0.5 * 0.3)


@pytest.mark.parametrize("d", DIMS)
def test_werner_tau_matches_its_closed_form(d):
    f = _grid(d, -1.0, 1.0 / d, np.nextafter(1.0 / d, 0.0))
    tau, exact = ccnr_tau(DensityOperator(werner_stack(d, f), d, d)), tau_werner_closed(d, f)
    assert np.all(np.abs(tau - exact) <= _tau_error_bound(d, exact))


@pytest.mark.parametrize("d", DIMS)
def test_isotropic_tau_matches_its_closed_form(d):
    F = _grid(d, 0.0, 1.0 / d, 1.0 / (d * d))
    tau, exact = ccnr_tau(DensityOperator(isotropic_stack(d, F), d, d)), tau_isotropic_closed(d, F)
    assert np.all(np.abs(tau - exact) <= _tau_error_bound(d, exact))


def _assert_pure_tau(p, d, rotation_seed=None):
    """``tau`` and ``gamma_pure`` of Schmidt probabilities ``p`` on ``C^d (x) C^d`` meet the bound.

    With a ``rotation_seed``, the state is first turned by Haar local
    unitaries ``U_A (x) U_B``, which take its coefficient matrix ``C`` to
    ``U_A C U_B^T`` and keep ``p``.
    """
    psi = pure_from_schmidt(p, d, d)
    if rotation_seed is not None:
        u_a, u_b = (random_unitary(d, seed=rotation_seed + k) for k in (0, 1))
        psi = PureState(u_a @ psi.coefficient_matrix() @ u_b.T, d, d)
    exact = math.fsum(np.sqrt(p)) ** 2
    for value in (ccnr_tau(psi.projector()), gamma_pure(psi).value):
        assert abs(value - exact) <= _tau_error_bound(d, exact)


@pytest.mark.parametrize("d", DIMS)
def test_pure_state_tau_and_gamma_match_the_schmidt_sum(d):
    rng = np.random.default_rng(100 + d)
    for k in range(3):
        p = rng.random(d)
        p /= p.sum()
        _assert_pure_tau(p, d, rotation_seed=None if k == 0 else 10 * d + k)


def test_a_pure_state_rotated_at_d24_keeps_tau_and_gamma():
    d = 24
    p = np.random.default_rng(24).random(d)
    p /= p.sum()
    _assert_pure_tau(p, d, rotation_seed=2400)
