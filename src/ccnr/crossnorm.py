"""Closed-form greatest-cross-norm values and the robustness bound.

The greatest cross norm of a density operator equals 1 exactly on separable
states.  No general-purpose evaluator exists here: the norm is an infimum
over all finite tensor decompositions, and only symmetric families and
rank-one operators admit closed forms.  For arbitrary states the realignment
trace norm (:func:`ccnr.realign.ccnr_tau`) is a computable lower bound.  The
family closed forms map an array of parameters to one :class:`GammaValue`
whose ``value`` is an array.

Every state has ``gamma >= 1``.  The verdicts of ``report_stack``,
:func:`robustness_lower_bound` and :func:`is_separable_closed` read a closed
form by one rule: NaN, infinities and values below ``1 - GAMMA_EQUALITY_TOL``
are refused, and ``|gamma - 1| <= GAMMA_EQUALITY_TOL`` certifies separability.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import _numbers
from .states import _FIDELITY, _FLIP, PureState, _check_kind, _in_domain, _local_dim, _per_state
from .states import bell_spectrum, schmidt_decompose
from .tolerances import GAMMA_EQUALITY_TOL as SEPARABILITY_TOL

__all__ = [
    "GammaValue",
    "gamma_rank_one",
    "gamma_pure",
    "gamma_werner_closed",
    "gamma_isotropic_closed",
    "gamma_bell_diagonal_closed",
    "robustness_lower_bound",
    "robustness_pure_exact",
    "is_separable_closed",
]


class GammaValue(NamedTuple):
    """Greatest-cross-norm value tagged with the closed form that produced it."""

    value: float | np.ndarray
    family: str


def _sqrt_coefficient_sum(psi: PureState, caller: str) -> float:
    _check_kind(psi, PureState, caller)
    return float(np.sum(np.sqrt(schmidt_decompose(psi).coefficients)))


def gamma_rank_one(psi: PureState, omega: PureState) -> float:
    """Greatest cross norm of ``|psi><omega|``.

    Equals ``(sum_i sqrt(p_i)) (sum_j sqrt(q_j))`` for the Schmidt
    coefficients ``p`` of ``psi`` and ``q`` of ``omega``.
    """
    sums = [_sqrt_coefficient_sum(state, "gamma_rank_one") for state in (psi, omega)]
    if psi.dims != omega.dims:
        raise ValueError(f"state shapes differ: {psi.dims} vs {omega.dims}")
    return sums[0] * sums[1]


def gamma_pure(psi: PureState) -> GammaValue:
    """Greatest cross norm of a pure-state projector: ``(sum_i sqrt(p_i))^2``."""
    return GammaValue(_sqrt_coefficient_sum(psi, "gamma_pure") ** 2, "pure")


def gamma_werner_closed(d: int, f) -> GammaValue:
    """Werner-state cross norm: 1 on ``f >= 0``, else ``1 - f``."""
    d = _local_dim(d)
    f = _in_domain(f, *_FLIP)
    return GammaValue(_per_state(np.where(f >= 0.0, 1.0, 1.0 - f)), "werner")


def gamma_isotropic_closed(d: int, F) -> GammaValue:
    """Isotropic-state cross norm: 1 up to ``F = 1/d``, then ``dF``."""
    d = _local_dim(d)
    F = _in_domain(F, *_FIDELITY)
    return GammaValue(_per_state(np.where(F <= 1.0 / d, 1.0, d * F)), "isotropic")


def gamma_bell_diagonal_closed(lam) -> GammaValue:
    """Bell-diagonal cross norm: ``2 max(lam)`` beyond the 1/2 threshold, else 1."""
    peak = np.max(bell_spectrum(lam), axis=-1)
    return GammaValue(_per_state(np.where(peak > 0.5, 2.0 * peak, 1.0)), "bell_diagonal")


def _checked_gamma(gamma: GammaValue, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """``gamma.value`` as floats and where each is 1; NaN, inf and values below 1 are refused.

    So is a ``family`` that is not a ``str``, since a report prints it as the closed form's name.

    The one reader of a closed gamma, for ``caller``, which takes nothing but a ``GammaValue``.
    """
    _check_kind(gamma, GammaValue, caller)
    if not isinstance(gamma.family, str):
        raise TypeError(f"{caller} needs a str as GammaValue.family, got {type(gamma.family).__name__}")
    value = _numbers(gamma.value, float, "a cross norm")
    low = value < 1.0 - SEPARABILITY_TOL
    if low.any():
        raise ValueError(f"a cross norm must be at least 1, got {value[low][0]}")
    return value, np.abs(value - 1.0) <= SEPARABILITY_TOL


def robustness_lower_bound(gamma: GammaValue) -> float | np.ndarray:
    """Lower bound ``gamma - 1`` on the robustness of entanglement (elementwise)."""
    return _per_state(_checked_gamma(gamma, "robustness_lower_bound")[0] - 1.0)


def robustness_pure_exact(psi: PureState) -> float:
    """Exact robustness of entanglement of a pure state: ``(sum_i sqrt(p_i))^2 - 1``."""
    return robustness_lower_bound(gamma_pure(psi))


def is_separable_closed(gamma: GammaValue) -> bool | np.ndarray:
    """Separability verdict from a closed-form cross norm (ties count as separable, elementwise)."""
    return _per_state(_checked_gamma(gamma, "is_separable_closed")[1], bool)
