"""Tests for the PPT and reduction criteria and the aggregated report."""

import numpy as np
import pytest

from ccnr import criteria
from ccnr.cli import _parse_range
from ccnr.criteria import (
    full_report,
    partial_transpose_b,
    ppt_min_eigenvalue,
    reduction_min_eigenvalue,
)
from ccnr.crossnorm import gamma_werner_closed
from ccnr.states import (
    DensityOperator,
    bell_diagonal_stack,
    max_entangled,
    partial_trace_a,
    qubit_family_stack,
    qutrit_family,
    random_density,
    werner_stack,
    werner_state,
)


def _product_state(seed_x, seed_y, d=2):
    x = random_density(1, d, seed=seed_x).matrix
    y = random_density(1, d, seed=seed_y).matrix
    return DensityOperator(np.kron(x, y), d, d)


def test_partial_transpose_is_involution():
    rho = random_density(2, 3, seed=1)
    once = partial_transpose_b(rho.matrix, 2, 3)
    twice = partial_transpose_b(once, 2, 3)
    np.testing.assert_array_equal(twice, rho.matrix)


def test_partial_transpose_shape_check():
    with pytest.raises(ValueError):
        partial_transpose_b(np.eye(4), 2, 3)


def test_ppt_product_state():
    assert ppt_min_eigenvalue(_product_state(41, 42)) >= -1e-12


def test_ppt_max_entangled():
    assert ppt_min_eigenvalue(max_entangled(2).projector()) == pytest.approx(-0.5)


def test_ppt_bound_entangled_window():
    assert ppt_min_eigenvalue(qutrit_family(3.5)) >= -1e-10


def test_ppt_separable_mixtures():
    rng = np.random.default_rng(31)
    for _ in range(10):
        terms = int(rng.integers(1, 11))
        weights = rng.dirichlet(np.ones(terms))
        m = np.zeros((4, 4), dtype=complex)
        for w in weights:
            x = random_density(1, 2, seed=int(rng.integers(1 << 31))).matrix
            y = random_density(1, 2, seed=int(rng.integers(1 << 31))).matrix
            m += w * np.kron(x, y)
        assert ppt_min_eigenvalue(DensityOperator(m, 2, 2)) >= -1e-10


def test_reduction_product_state():
    assert reduction_min_eigenvalue(_product_state(43, 44)) >= -1e-12


def test_reduction_inseparable_werner_not_violated():
    assert reduction_min_eigenvalue(werner_state(3, -1.0)) >= -1e-10


def test_reduction_max_entangled():
    rho = max_entangled(2).projector()
    value = reduction_min_eigenvalue(rho)
    # brute-force the two reduction operators independently
    expected = min(
        np.linalg.eigvalsh(np.kron(np.eye(2) / 2, np.eye(2)) - rho.matrix)[0],
        np.linalg.eigvalsh(np.kron(np.eye(2), np.eye(2) / 2) - rho.matrix)[0],
    )
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(-0.5, abs=1e-12)


def _reduction_operators(rho):
    """``rho_A (x) I - rho`` and ``I (x) rho_B - rho``, built as the library builds them."""
    four = rho.matrix.reshape(rho.matrix.shape[:-2] + 2 * rho.dims)
    eye_a, eye_b = np.eye(rho.dim_a, dtype=complex), np.eye(rho.dim_b, dtype=complex)
    first = criteria.partial_trace_b(rho)[..., :, None, :, None] * eye_b[:, None, :] - four
    second = eye_a[:, None, :, None] * criteria.partial_trace_a(rho)[..., None, :, None, :] - four
    return first.reshape(rho.matrix.shape), second.reshape(rho.matrix.shape)


def _record_eigvalsh(monkeypatch):
    """Route ``np.linalg.eigvalsh`` through a double that keeps a copy of each argument."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrices):
        calls.append(np.array(matrices))
        return eigvalsh(matrices)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return calls


def _bits(values):
    """The bits of float or complex values, so that -0.0 and 0.0 differ."""
    return np.asarray(values).view(np.int64)


# name -> (the states, how many of them have bit-equal reduction operators).
_SKIP_CASES = {
    "werner-d3-grid": (lambda: DensityOperator(
        werner_stack(3, _parse_range("-1:1:0.001")), 3, 3), 1676),
    "qubit-grid": (lambda: DensityOperator(
        qubit_family_stack(_parse_range("0:1:0.0005")), 2, 2), 1),
    "bell-grid": (lambda: DensityOperator(bell_diagonal_stack(
        [(t, *3 * [(1 - t) / 3]) for t in np.linspace(0, 1, 101)]), 2, 2), 101),
    "random-k-6-6": (lambda: DensityOperator(
        np.stack([random_density(2, 3, seed=s).matrix for s in range(40)]), 2, 3), 0),
    "one-werner": (lambda: werner_state(3, -0.5), 1),
    "one-random": (lambda: random_density(2, 3, seed=7), 0),
    "stack-of-one-random": (lambda: DensityOperator(
        random_density(2, 3, seed=7).matrix[None], 2, 3), 0),
}


@pytest.mark.parametrize("case", _SKIP_CASES)
def test_reduction_floor_skips_only_bit_equal_twins(monkeypatch, case):
    build, equal = _SKIP_CASES[case]
    rho = build()
    first, second = _reduction_operators(rho)
    n = rho.matrix.shape[-1]
    pairs = zip(first.reshape(-1, n, n), second.reshape(-1, n, n))
    differ = np.array([a.tobytes() != b.tobytes() for a, b in pairs])
    assert np.count_nonzero(~differ) == equal
    expected = np.minimum(np.linalg.eigvalsh(first)[..., 0], np.linalg.eigvalsh(second)[..., 0])
    calls = _record_eigvalsh(monkeypatch)
    value = reduction_min_eigenvalue(rho)
    np.testing.assert_array_equal(_bits(value), _bits(expected))
    assert len(calls) == 1 + differ.any()
    np.testing.assert_array_equal(_bits(calls[0]), _bits(first))
    if differ.any():
        differing = second.reshape(-1, n, n)[differ]
        np.testing.assert_array_equal(_bits(calls[1].reshape(-1, n, n)), _bits(differing))


def test_reduction_operators_apart_by_a_signed_zero_are_both_decomposed(monkeypatch):
    rho = DensityOperator(np.eye(4) / 4, 2, 2)
    reduced = partial_trace_a(rho)
    reduced[0, 1] = -0.0  # equal to 0.0 in value, not in bits
    monkeypatch.setattr(criteria, "partial_trace_a", lambda _: reduced)
    first, second = _reduction_operators(rho)
    assert np.array_equal(first, second) and first.tobytes() != second.tobytes()
    calls = _record_eigvalsh(monkeypatch)
    assert reduction_min_eigenvalue(rho) == 0.25
    assert len(calls) == 2
    np.testing.assert_array_equal(_bits(calls[1]), _bits(second))


# ---------------------------------------------------------------------------
# report assembly


def test_report_werner_d3_fully_antisymmetric():
    report = full_report(werner_state(3, -1.0))
    assert report.tau == pytest.approx(5 / 3, abs=1e-9)
    assert report.tau_violated
    assert report.ppt_violated
    assert not report.reduction_violated
    assert report.verdict == "entangled_certified"


def test_report_bound_entangled_qutrit():
    report = full_report(qutrit_family(3.5))
    assert report.tau_violated
    assert not report.ppt_violated
    assert not report.reduction_violated
    assert report.verdict == "entangled_certified"


def test_report_werner_d3_missed_by_tau():
    gamma = gamma_werner_closed(3, -1 / 6)
    report = full_report(werner_state(3, -1 / 6), gamma=gamma)
    assert not report.tau_violated
    assert report.ppt_violated
    assert report.gamma_closed == pytest.approx(7 / 6)
    assert report.gamma_family == "werner"
    assert report.verdict == "entangled_certified"


def test_report_separable_certificate():
    gamma = gamma_werner_closed(2, 0.3)
    report = full_report(werner_state(2, 0.3), gamma=gamma)
    assert not (report.tau_violated or report.ppt_violated or report.reduction_violated)
    assert report.verdict == "separable_certified"


def test_report_undecided_without_certificate():
    report = full_report(DensityOperator(np.eye(4) / 4, 2, 2))
    assert report.tau == pytest.approx(0.5, abs=1e-12)
    assert report.gamma_closed is None
    assert report.verdict == "undecided"


def test_report_as_dict_round_trip():
    report = full_report(werner_state(2, -1.0), gamma=gamma_werner_closed(2, -1.0))
    data = report.as_dict()
    assert data["verdict"] == "entangled_certified"
    assert data["gamma_closed"] == pytest.approx(2.0)
    assert set(data) == {
        "tau",
        "tau_violated",
        "ppt_floor",
        "ppt_violated",
        "reduction_floor",
        "reduction_violated",
        "gamma_closed",
        "gamma_family",
        "verdict",
    }

