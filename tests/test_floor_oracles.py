"""Closed-form oracles for the eigenvalue floors a report prints, at d = 2 to 12.

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
from ccnr.states import DensityOperator, isotropic_stack, pure_from_schmidt, werner_stack

DIMS = range(2, 13)


def error_bound(d: int) -> float:
    """The error allowed on an eigenvalue floor of a ``d^2``-row operator of norm at most 1.

    A backward-stable Hermitian eigensolver misplaces an eigenvalue by
    ``c n eps ||A||_2`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Sec. 3 and 19); ``n = d^2`` rows and ``c = 1``.
    The errors measured on these families stay below ``0.2 n eps``.
    """
    return d * d * np.finfo(float).eps


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

