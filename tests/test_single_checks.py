"""Decisions made in one place: the array-valued gamma of ``report_stack``, the
rule that reads a closed-form gamma, the local-dimension check of the closed
forms and the shared Hermiticity check."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccnr.criteria import full_report, report_stack
from ccnr.crossnorm import (
    GammaValue,
    gamma_bell_diagonal_closed,
    gamma_isotropic_closed,
    gamma_werner_closed,
    is_separable_closed,
    robustness_lower_bound,
)
from ccnr.linalg import hermitian_eigensystem
from ccnr.realign import tau_isotropic_closed, tau_werner_closed
from ccnr.states import (
    InvariantViolation,
    bell_diagonal_stack,
    bell_diagonal_state,
    isotropic_stack,
    isotropic_state,
    validate_stack,
    werner_stack,
    werner_state,
)
from ccnr.tolerances import GAMMA_EQUALITY_TOL, HERMITICITY_TOL


def _bell_grid(t):
    rest = (1.0 - t) / 3.0
    return np.stack([t, rest, rest, rest], axis=-1)


# name -> (local dimension, grid domain, stack builder, scalar constructor, closed gamma)
FAMILIES = {
    "werner": (3, (-1.0, 1.0), lambda p: werner_stack(3, p), lambda p: werner_state(3, p),
               lambda p: gamma_werner_closed(3, p)),
    "isotropic": (3, (0.0, 1.0), lambda p: isotropic_stack(3, p),
                  lambda p: isotropic_state(3, p), lambda p: gamma_isotropic_closed(3, p)),
    "bell": (2, (0.0, 1.0), bell_diagonal_stack, bell_diagonal_state,
             gamma_bell_diagonal_closed),
}


@pytest.mark.parametrize("k", [1, 7, 33])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_array_gamma_report_equals_per_state_report(name, k):
    d, (lo, hi), build, scalar, gamma = FAMILIES[name]
    grid = np.linspace(lo, hi, k) if k > 1 else np.array([0.5 * (lo + hi)])
    params = _bell_grid(grid) if name == "bell" else grid
    report = report_stack(validate_stack(build(params), d, d), gamma(params))
    assert len(report) == k
    assert report.gamma_family == gamma(params).family
    for i in range(k):
        one = full_report(scalar(params[i]), gamma(params[i]))
        assert report[i] == one
        assert type(report[i].gamma_closed) is float


@pytest.mark.parametrize("shape", ["short", "column"])
def test_report_stack_refuses_a_gamma_of_the_wrong_shape(shape):
    grid = np.linspace(-1.0, 1.0, 5)
    rhos = validate_stack(werner_stack(3, grid), 3, 3)
    value = gamma_werner_closed(3, grid).value
    value = value[:-1] if shape == "short" else value[:, None]
    with pytest.raises(ValueError, match="one gamma per state"):
        report_stack(rhos, GammaValue(value, "werner"))


def test_report_stack_reads_a_scalar_gamma_as_one_value_and_refuses_a_column_of_one():
    rho = werner_state(3, -0.5)
    one = validate_stack(rho.matrix[None], 3, 3)
    value = gamma_werner_closed(3, -0.5).value
    expected = report_stack(rho, GammaValue(value, "werner"))
    assert report_stack(rho, GammaValue(np.reshape(value, 1), "werner"))[0] == expected[0]
    assert report_stack(one, GammaValue(value, "werner"))[0] == expected[0]
    with pytest.raises(ValueError, match=r"one gamma per state, shape \(1,\), got \(1, 1\)"):
        report_stack(rho, GammaValue(np.reshape(value, (1, 1)), "werner"))


def test_report_stack_without_gamma_has_no_family():
    report = report_stack(validate_stack(werner_stack(2, [0.5, -0.5]), 2, 2))
    assert report.gamma_family is None
    assert report.gamma_closed is None
    assert report[0].gamma_closed is None


def test_a_report_of_one_state_has_no_items():
    report = full_report(werner_state(2, 0.5))
    with pytest.raises(TypeError):
        len(report)
    with pytest.raises(TypeError):
        report[0]


def test_report_keys_keep_their_order():
    data = full_report(werner_state(3, -0.5), gamma_werner_closed(3, -0.5)).as_dict()
    assert list(data) == [
        "tau",
        "tau_violated",
        "ppt_floor",
        "ppt_violated",
        "reduction_floor",
        "reduction_violated",
        "gamma_closed",
        "gamma_family",
        "verdict",
    ]


@pytest.mark.parametrize("closed", [tau_werner_closed, tau_isotropic_closed, gamma_werner_closed,
                                    gamma_isotropic_closed])
def test_closed_forms_refuse_a_non_integral_dimension(closed):
    with pytest.raises(ValueError, match="local dimension must be an integer"):
        closed(3.5, 0.1)
    with pytest.raises(ValueError, match="local dimension must be at least 2"):
        closed(1, 0.1)


def _skewed(scale: float) -> np.ndarray:
    """``I/4`` with one off-diagonal entry at ``scale`` times the Hermiticity bound."""
    h = np.eye(4, dtype=complex) / 4
    h[0, 1] = scale * HERMITICITY_TOL * (1.0 + 0.25)
    return h


def test_both_hermiticity_checks_share_one_band():
    validate_stack(_skewed(0.99))
    hermitian_eigensystem(_skewed(0.99))
    with pytest.raises(InvariantViolation) as excinfo:
        validate_stack(_skewed(1.01))
    assert excinfo.value.invariant == "hermiticity"
    with pytest.raises(ValueError, match="matrix is not Hermitian") as excinfo:
        hermitian_eigensystem(_skewed(1.01))
    assert type(excinfo.value) is ValueError


# werner_state(3, 0.5) is separable and flagged by no criterion, so its verdict
# is decided by the closed gamma alone.
UNFLAGGED = werner_state(3, 0.5)
LOW, HIGH = 1.0 - GAMMA_EQUALITY_TOL, 1.0 + GAMMA_EQUALITY_TOL


def _each_reader(value, after=1.5):
    """The outcome of each reader of a closed gamma on ``value``, a result or an error
    text; ``report_stack`` reads it between 1 and ``after``."""
    readers = {
        "full_report": lambda: full_report(UNFLAGGED, GammaValue(value, "werner")).verdict,
        "report_stack": lambda: report_stack(
            validate_stack(werner_stack(3, [0.5, 0.5, 0.5]), 3, 3),
            GammaValue(np.array([1.0, value, after]), "werner")).verdict[1],
        "robustness_lower_bound": lambda: robustness_lower_bound(GammaValue(value, "werner")),
        "is_separable_closed": lambda: is_separable_closed(GammaValue(value, "werner")),
    }
    outcomes = {}
    for name, read in readers.items():
        try:
            outcomes[name] = read()
        except ValueError as exc:
            outcomes[name] = str(exc)
    return outcomes


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.5, 1.0 - 2 * GAMMA_EQUALITY_TOL,
                                   np.nextafter(LOW, 0.0)])
def test_every_reader_refuses_an_impossible_gamma_with_one_message(value):
    message = (f"a cross norm must be at least 1, got {np.float64(value)}" if np.isfinite(value)
               else "a cross norm must be finite")
    assert _each_reader(value, after=0.25) == dict.fromkeys(
        ["full_report", "report_stack", "robustness_lower_bound", "is_separable_closed"], message)


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(st.floats(LOW, 1.0 + 4 * GAMMA_EQUALITY_TOL),
                       st.floats(LOW, 1e300)))
@example(value=LOW)
@example(value=np.nextafter(LOW, 2.0))
@example(value=1.0)
@example(value=np.nextafter(HIGH, 0.0))
@example(value=HIGH)
@example(value=np.nextafter(HIGH, 2.0))
def test_the_verdict_certifies_separability_exactly_where_is_separable_closed_does(value):
    outcomes = _each_reader(value)
    separable = outcomes["is_separable_closed"]
    assert type(separable) is bool
    assert (outcomes["full_report"] == "separable_certified") is separable
    assert (outcomes["report_stack"] == "separable_certified") is separable
    assert outcomes["robustness_lower_bound"] == value - 1.0
