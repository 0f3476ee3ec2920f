"""The paper's claims about the realignment criterion, checked through ``report_stack``.

``tau`` is a lower bound on the greatest cross norm ``gamma``, so
``tau <= 1`` is necessary for separability.  For pure states, Bell-diagonal
states, Werner states at ``d = 2`` and isotropic states at every ``d`` it is
also sufficient: ``tau`` is violated exactly when ``gamma > 1``.  For Werner
states at ``d >= 3`` it is only necessary: on ``2/d - 1 < f < 0`` the state
is entangled (``gamma = 1 - f > 1``) while ``tau = 2/d - f < 1``, and the PPT
criterion certifies the entanglement instead.

A state counts only outside the band ``|gamma - (1 + VIOLATION_GUARD)| <= BAND``
around the verdict threshold, where rounding may put the numeric ``tau`` and
the closed ``gamma`` on different sides of it.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccnr.criteria import report_stack
from ccnr.crossnorm import (
    GammaValue,
    gamma_bell_diagonal_closed,
    gamma_isotropic_closed,
    gamma_pure,
    gamma_werner_closed,
)
from ccnr.linalg import random_unitary
from ccnr.states import (
    PureState,
    bell_diagonal_stack,
    isotropic_stack,
    pure_from_schmidt,
    validate_stack,
    werner_stack,
)
from ccnr.tolerances import VIOLATION_GUARD

BAND = 1e-10
# Offsets of gamma from 1 that put a state just off the threshold on either side.
NEAR = np.array([-1e-7, -1e-8, 1e-8, 1e-7])
# The numeric tau may exceed the closed gamma it equals by this much rounding (d <= 6).
TAU_ROUNDING = 1e-12


def _report(matrices, d, gamma):
    report = report_stack(validate_stack(matrices, d, d), gamma)
    assert np.all(report.tau <= report.gamma + TAU_ROUNDING)
    return report


def _assert_tau_decides_exactly(report):
    outside = np.abs(report.gamma - (1.0 + VIOLATION_GUARD)) > BAND
    assert outside.any()
    entangled = report.gamma > 1.0 + VIOLATION_GUARD
    assert np.array_equal(report.tau_violated[outside], entangled[outside])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    d=st.integers(2, 5),
    weights=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_tau_is_exact_on_pure_states(d, weights, seed):
    weights = np.array(weights[:d])
    assume(weights.sum() > 0.0)
    canonical = pure_from_schmidt(weights / weights.sum(), d, d)
    local = np.kron(random_unitary(d, seed), random_unitary(d, seed + 1))
    psi = PureState(local @ canonical.amplitudes, d, d)
    projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
    _assert_tau_decides_exactly(
        _report(projector[None], d, GammaValue(np.array([gamma_pure(psi).value]), "pure"))
    )


def test_tau_is_exact_on_bell_diagonal_states():
    t = np.concatenate([np.linspace(0.0, 1.0, 201), (1.0 + NEAR) / 2.0])
    rest = (1.0 - t) / 3.0
    swept = np.stack([rest, rest, t, rest], axis=-1)
    lams = np.concatenate([swept, np.random.default_rng(7).dirichlet(np.ones(4), 200)])
    report = _report(bell_diagonal_stack(lams), 2, gamma_bell_diagonal_closed(lams))
    _assert_tau_decides_exactly(report)


def test_tau_is_exact_on_two_qubit_werner_states():
    f = np.concatenate([np.linspace(-1.0, 1.0, 401), -NEAR])
    _assert_tau_decides_exactly(_report(werner_stack(2, f), 2, gamma_werner_closed(2, f)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_tau_is_exact_on_isotropic_states(d):
    F = np.concatenate([np.linspace(0.0, 1.0, 201), (1.0 + NEAR) / d])
    _assert_tau_decides_exactly(_report(isotropic_stack(d, F), d, gamma_isotropic_closed(d, F)))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_tau_misses_entangled_werner_states_that_ppt_certifies(d):
    f = np.linspace(2.0 / d - 1.0, 0.0, 42)[1:-1]
    report = _report(werner_stack(d, f), d, gamma_werner_closed(d, f))
    assert np.all(report.gamma > 1.0 + VIOLATION_GUARD)
    assert not report.tau_violated.any()
    assert report.ppt_violated.all()
    unaided = report_stack(validate_stack(werner_stack(d, f), d, d))
    assert np.all(unaided.verdict == "entangled_certified")
