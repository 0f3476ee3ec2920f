"""Closed-form oracles for the numbers a report prints, at d = 2 to 12, one pure state at
d = 24, and one Werner and one isotropic state at d = 32.

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

The bound may not be slack either: at d = 8 it is at most ``1e5`` times the
largest error measured on the Werner and isotropic grids, since a bound far
above the error would leave a verdict undecided for no reason.
"""

import math

import numpy as np
import pytest

from ccnr.criteria import ppt_min_eigenvalue, reduction_min_eigenvalue, report_stack
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


def _werner_grid(d: int) -> np.ndarray:
    """21 flip expectations over ``[-1, 1]``, ``1/d`` and the float below it."""
    return np.r_[np.linspace(-1.0, 1.0, 21), 1.0 / d, np.nextafter(1.0 / d, 0.0)]


def _isotropic_grid(d: int) -> np.ndarray:
    """21 fidelities over ``[0, 1]``, ``1/d`` and ``1/d^2``."""
    return np.r_[np.linspace(0.0, 1.0, 21), 1.0 / d, 1.0 / (d * d)]


def _werner_ppt_floor(d: int, f):
    return np.where(f < 1.0 / d, f / d, (d - f) / (d * (d * d - 1.0)))


def _isotropic_reduction_floor(d: int, F):
    return 1.0 / d - np.maximum(F, (1.0 - F) / (d * d - 1.0))


@pytest.mark.parametrize("d", DIMS)
def test_werner_ppt_floor_matches_its_closed_form(d):
    f = _werner_grid(d)
    floor = report_stack(DensityOperator(werner_stack(d, f), d, d)).ppt_floor
    assert np.max(np.abs(floor - _werner_ppt_floor(d, f))) <= error_bound(d)


@pytest.mark.parametrize("d", DIMS)
def test_isotropic_reduction_floor_matches_its_closed_form(d):
    F = _isotropic_grid(d)
    floor = report_stack(DensityOperator(isotropic_stack(d, F), d, d)).reduction_floor
    assert np.max(np.abs(floor - _isotropic_reduction_floor(d, F))) <= error_bound(d)


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
    f = _werner_grid(d)
    tau, exact = ccnr_tau(DensityOperator(werner_stack(d, f), d, d)), tau_werner_closed(d, f)
    assert np.all(np.abs(tau - exact) <= _tau_error_bound(d, exact))


@pytest.mark.parametrize("d", DIMS)
def test_isotropic_tau_matches_its_closed_form(d):
    F = _isotropic_grid(d)
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


def test_a_werner_state_at_d32_keeps_tau_and_the_ppt_floor():
    d, f = 32, -0.5
    rho = DensityOperator(werner_stack(d, [f])[0], d, d)
    exact = tau_werner_closed(d, f)
    assert abs(ccnr_tau(rho) - exact) <= _tau_error_bound(d, exact)
    assert abs(ppt_min_eigenvalue(rho) - _werner_ppt_floor(d, f)) <= error_bound(d)


def test_an_isotropic_state_at_d32_keeps_tau_and_the_reduction_floor():
    d, F = 32, 0.5
    rho = DensityOperator(isotropic_stack(d, [F])[0], d, d)
    exact = tau_isotropic_closed(d, F)
    assert abs(ccnr_tau(rho) - exact) <= _tau_error_bound(d, exact)
    assert abs(reduction_min_eigenvalue(rho) - _isotropic_reduction_floor(d, F)) <= error_bound(d)


def test_the_bound_is_at_most_1e5_times_the_measured_error_at_d8():
    d = 8
    f, F = _werner_grid(d), _isotropic_grid(d)
    werner = report_stack(DensityOperator(werner_stack(d, f), d, d))
    isotropic = report_stack(DensityOperator(isotropic_stack(d, F), d, d))
    tau_werner, tau_isotropic = tau_werner_closed(d, f), tau_isotropic_closed(d, F)
    errors = {  # relative to the size the bound scales with
        "werner ppt floor": np.abs(werner.ppt_floor - _werner_ppt_floor(d, f)),
        "isotropic reduction floor":
            np.abs(isotropic.reduction_floor - _isotropic_reduction_floor(d, F)),
        "werner tau": np.abs(werner.tau - tau_werner) / np.maximum(1.0, tau_werner),
        "isotropic tau": np.abs(isotropic.tau - tau_isotropic) / np.maximum(1.0, tau_isotropic),
    }
    for name, error in errors.items():
        assert error_bound(d) <= 1e5 * np.max(error), name
