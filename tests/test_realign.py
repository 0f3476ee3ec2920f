"""Tests for the realignment map, operator Schmidt data and closed forms."""

import math

import numpy as np
import pytest

from ccnr.linalg import hs_norm, random_unitary, singular_values
from ccnr.realign import (
    ccnr_tau,
    operator_schmidt,
    realign,
    realign_matrix,
    realign_trace,
    tau_bell_diagonal_closed,
    tau_isotropic_closed,
    tau_qubit_family_closed,
    tau_qutrit_family_closed,
    tau_werner_closed,
)
from ccnr.states import (
    DensityOperator,
    PureState,
    isotropic_state,
    max_entangled,
    pure_from_schmidt,
    qubit_family,
    qutrit_family,
    random_density,
    random_pure,
    schmidt_decompose,
    validate_stack,
    werner_state,
)


def _product_density(seed_x=31, seed_y=32):
    x = random_density(1, 2, seed=seed_x).matrix
    y = random_density(1, 2, seed=seed_y).matrix
    return x, y, DensityOperator(np.kron(x, y), 2, 2)


# ---------------------------------------------------------------------------
# the map itself


def test_realign_product_is_rank_one():
    x, y, rho = _product_density()
    r = realign(rho)
    s = singular_values(r.matrix)
    assert s[0] == pytest.approx(hs_norm(x) * hs_norm(y), abs=1e-12)
    np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)


def test_realign_max_entangled_is_scaled_identity():
    r = realign(max_entangled(2).projector())
    np.testing.assert_allclose(r.matrix, np.eye(4) / 2, atol=1e-12)


def test_realign_maximally_mixed():
    rho = DensityOperator(np.eye(4) / 4, 2, 2)
    s = singular_values(realign(rho).matrix)
    assert s[0] == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(s[1:], 0.0, atol=1e-14)


def test_realign_matrix_shape_check():
    with pytest.raises(ValueError, match="bipartition"):
        realign_matrix(np.eye(4), 2, 3)


def test_realign_rectangular_bipartition():
    rho = random_density(2, 3, seed=3)
    r = realign(rho)
    assert r.matrix.shape == (4, 9)
    # realignment permutes entries, so the Frobenius norm is preserved
    assert hs_norm(r.matrix) == pytest.approx(hs_norm(rho.matrix), abs=1e-14)


# ---------------------------------------------------------------------------
# operator Schmidt decomposition


def test_operator_schmidt_product():
    x, y, rho = _product_density()
    form = operator_schmidt(rho)
    assert form.coefficients.size == 1
    assert form.coefficients[0] == pytest.approx(hs_norm(x) * hs_norm(y), abs=1e-12)


def test_operator_schmidt_max_entangled():
    form = operator_schmidt(max_entangled(2).projector())
    np.testing.assert_allclose(form.coefficients, [0.5] * 4, atol=1e-12)


def test_operator_schmidt_qubit_family_sum():
    total = float(np.sum(operator_schmidt(qubit_family(0.5)).coefficients))
    assert total == pytest.approx((1 + math.sqrt(2)) / 2, abs=1e-9)


def test_operator_schmidt_reconstruction_and_orthonormality():
    for seed in range(6):
        rho = random_density(2, 3, seed=seed)
        form = operator_schmidt(rho)
        rebuilt = np.zeros_like(rho.matrix)
        for c, e, f in zip(form.coefficients, form.left_ops, form.right_ops):
            rebuilt = rebuilt + c * np.kron(e, f)
        assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-9
        for ops in (form.left_ops, form.right_ops):
            k = ops.shape[0]
            gram = np.array(
                [[np.trace(a.conj().T @ b) for b in ops] for a in ops]
            )
            np.testing.assert_allclose(gram, np.eye(k), atol=1e-10)
        assert float(np.sum(form.coefficients)) == pytest.approx(
            ccnr_tau(rho), abs=1e-10
        )


# ---------------------------------------------------------------------------
# tau itself


def test_tau_pure_product():
    psi = PureState([1, 0, 0, 0], 2, 2)
    assert ccnr_tau(psi.projector()) == pytest.approx(1.0, abs=1e-12)


def test_tau_pure_balanced():
    assert ccnr_tau(max_entangled(2).projector()) == pytest.approx(2.0, abs=1e-12)


def test_tau_qutrit_at_four():
    expected = 19 / 21 + 2 * math.sqrt(7) / 21
    assert ccnr_tau(qutrit_family(4.0)) == pytest.approx(expected, abs=1e-9)


def test_tau_pure_state_schmidt_identity():
    for seed in range(20):
        psi = random_pure(2, 3, seed=seed)
        p = schmidt_decompose(psi).coefficients
        expected = float(np.sum(np.sqrt(p))) ** 2
        assert ccnr_tau(psi.projector()) == pytest.approx(expected, abs=1e-9)


def test_tau_rank_one_non_state_inputs():
    """tau of |psi><omega| factorizes into the two Schmidt sums."""
    for seed in range(5):
        psi = random_pure(2, 2, seed=seed)
        omega = random_pure(2, 2, seed=100 + seed)
        outer = np.outer(psi.amplitudes, omega.amplitudes.conj())
        tau = float(np.sum(singular_values(realign_matrix(outer, 2, 2))))
        p = schmidt_decompose(psi).coefficients
        q = schmidt_decompose(omega).coefficients
        expected = float(np.sum(np.sqrt(p))) * float(np.sum(np.sqrt(q)))
        assert tau == pytest.approx(expected, abs=1e-9)


def test_tau_separable_mixtures_bounded():
    rng = np.random.default_rng(9)
    for _ in range(20):
        terms = int(rng.integers(1, 11))
        weights = rng.dirichlet(np.ones(terms))
        m = np.zeros((9, 9), dtype=complex)
        for w in weights:
            x = random_density(1, 3, seed=int(rng.integers(1 << 31))).matrix
            y = random_density(1, 3, seed=int(rng.integers(1 << 31))).matrix
            m += w * np.kron(x, y)
        assert ccnr_tau(DensityOperator(m, 3, 3)) <= 1.0 + 1e-9


def test_tau_lower_bounds():
    for seed in range(10):
        rho = random_density(2, 2, seed=seed)
        tau = ccnr_tau(rho)
        assert tau >= hs_norm(realign(rho).matrix) - 1e-12
        assert hs_norm(realign(rho).matrix) == pytest.approx(
            hs_norm(rho.matrix), abs=1e-13
        )
        assert tau >= abs(realign_trace(rho)) - 1e-12


def test_tau_local_unitary_invariance():
    rho = qubit_family(0.3)
    reference = ccnr_tau(rho)
    for k in range(10):
        u = random_unitary(2, seed=300 + k)
        v = random_unitary(2, seed=400 + k)
        w = np.kron(u, v)
        rotated = DensityOperator(w @ rho.matrix @ w.conj().T, 2, 2)
        assert ccnr_tau(rotated) == pytest.approx(reference, abs=1e-9)


def test_tau_real_orthogonal_conjugation_independence():
    rho = qutrit_family(4.5)
    reference = ccnr_tau(rho)
    rng = np.random.default_rng(14)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = np.kron(q, q)
        rotated = DensityOperator(w @ rho.matrix @ w.conj().T, 3, 3)
        assert ccnr_tau(rotated) == pytest.approx(reference, abs=1e-9)


def test_diagonal_coefficient_pattern():
    """States assembled from matched canonical dyads realign to diag(a_ij)."""
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            e_ij = np.zeros((3, 3), dtype=complex)
            e_ij[i, j] = 1.0
            m += a[i, j] * np.kron(e_ij, e_ij)
    s = singular_values(realign_matrix(m, 3, 3))
    np.testing.assert_allclose(s, np.sort(np.abs(a).ravel())[::-1], atol=1e-12)
    assert float(np.sum(s)) == pytest.approx(float(np.sum(np.abs(a))), abs=1e-10)


# ---------------------------------------------------------------------------
# closed forms


def test_tau_werner_closed_examples():
    assert tau_werner_closed(2, -1.0) == pytest.approx(2.0)
    assert tau_werner_closed(2, 0.5) == pytest.approx(0.5)
    assert tau_werner_closed(3, -1 / 3) == pytest.approx(1.0)
    # the two displays agree
    for d in (2, 3, 4):
        for f in np.linspace(-1, 1, 11):
            assert tau_werner_closed(d, f) == pytest.approx(
                (abs(d * f - 1) + 1) / d, abs=1e-14
            )


def test_tau_werner_closed_rejects_out_of_range():
    with pytest.raises(ValueError):
        tau_werner_closed(2, -1.01)
    with pytest.raises(ValueError):
        tau_werner_closed(1, 0.0)


def test_tau_isotropic_closed_examples():
    assert tau_isotropic_closed(2, 1.0) == pytest.approx(2.0)
    for d in (2, 3, 4, 5):
        assert tau_isotropic_closed(d, 1 / d**2) == pytest.approx(1 / d, abs=1e-14)
    assert tau_isotropic_closed(3, 1 / 3) == pytest.approx(1.0)


def test_tau_isotropic_closed_rejects_out_of_range():
    with pytest.raises(ValueError):
        tau_isotropic_closed(3, 1.2)


def test_tau_bell_diagonal_closed_examples():
    assert tau_bell_diagonal_closed([1, 0, 0, 0]) == pytest.approx(2.0)
    assert tau_bell_diagonal_closed([0.25] * 4) == pytest.approx(0.5)
    assert tau_bell_diagonal_closed([0.6, 0.2, 0.1, 0.1]) == pytest.approx(1.2)


def test_tau_bell_diagonal_two_max_rule():
    rng = np.random.default_rng(16)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(4))
        if np.max(lam) >= 0.5:
            assert tau_bell_diagonal_closed(lam) == pytest.approx(
                2 * float(np.max(lam)), abs=1e-12
            )


def test_tau_qubit_family_closed_examples():
    assert tau_qubit_family_closed(1.0) == pytest.approx(1.0)
    assert tau_qubit_family_closed(0.0) == pytest.approx(2.0)
    assert tau_qubit_family_closed(0.5) == pytest.approx((1 + math.sqrt(2)) / 2)
    with pytest.raises(ValueError):
        tau_qubit_family_closed(1.01)


def test_tau_qutrit_family_closed_examples():
    assert tau_qutrit_family_closed(3.0) == pytest.approx(1.0, abs=1e-14)
    assert tau_qutrit_family_closed(2.0) == pytest.approx(1.0, abs=1e-14)
    assert tau_qutrit_family_closed(5.0) == pytest.approx((19 + 2 * math.sqrt(19)) / 21)
    with pytest.raises(ValueError):
        tau_qutrit_family_closed(5.5)


# ---------------------------------------------------------------------------
# realignment trace


def test_realign_trace_isotropic():
    assert realign_trace(isotropic_state(3, 0.7)) == pytest.approx(2.1, abs=1e-12)


def test_realign_trace_werner():
    assert realign_trace(werner_state(2, 1.0)) == pytest.approx(2 / 3, abs=1e-12)


def test_realign_trace_maximally_mixed():
    rho = DensityOperator(np.eye(4) / 4, 2, 2)
    assert realign_trace(rho) == pytest.approx(0.5, abs=1e-14)


def test_realign_trace_matches_fidelity():
    for seed in range(5):
        rho = random_density(3, 3, seed=seed)
        psi = max_entangled(3).amplitudes
        fidelity = np.real(psi.conj() @ rho.matrix @ psi)
        assert realign_trace(rho) == pytest.approx(3 * fidelity, abs=1e-12)


def test_realign_trace_rejects_rectangular():
    with pytest.raises(ValueError):
        realign_trace(random_density(2, 3, seed=0))


def test_pure_schmidt_tau_example():
    psi = pure_from_schmidt([0.5, 0.5], 2, 2)
    assert ccnr_tau(psi.projector()) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# tau through the real matrix that shares the realignment's singular values

SPLITS = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (2, 7), (7, 3), (4, 9), (6, 24), (12, 12)]


def _complex_tau(matrix, dim_a, dim_b):
    """``tau`` as the sum of the singular values of the complex realignment."""
    realigned = realign_matrix(matrix, dim_a, dim_b)
    return np.sum(np.linalg.svd(realigned, compute_uv=False), axis=-1)


@pytest.mark.parametrize("dim_a, dim_b", SPLITS)
def test_tau_matches_complex_realignment(dim_a, dim_b):
    n = dim_a * dim_b
    for rank in sorted({1, min(2, n), n}):
        rho = random_density(dim_a, dim_b, rank=rank, seed=100 * n + rank)
        tau = ccnr_tau(rho)
        assert type(tau) is float
        assert abs(tau - _complex_tau(rho.matrix, dim_a, dim_b)) <= 1e-12


@pytest.mark.parametrize("dim_a, dim_b", [(3, 3), (2, 5), (1, 4)])
def test_tau_of_mixed_stack_equals_tau_per_state(dim_a, dim_b):
    n = dim_a * dim_b
    members = [random_density(dim_a, dim_b, rank=r, seed=r).matrix for r in sorted({1, 2, n})]
    members.append(np.eye(n) / n)
    members.append(random_pure(dim_a, dim_b, seed=7).projector().matrix)
    if dim_a == dim_b:
        members += [werner_state(dim_a, -0.5).matrix, isotropic_state(dim_a, 0.8).matrix]
    stack = validate_stack(np.stack(members), dim_a, dim_b)
    taus = ccnr_tau(stack)
    assert taus.shape == (len(members),)
    for tau, member in zip(taus, members):
        assert tau == ccnr_tau(DensityOperator(member, dim_a, dim_b))
    np.testing.assert_allclose(taus, _complex_tau(stack.matrix, dim_a, dim_b), rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_tau_of_pure_product_is_one(dim_a, dim_b):
    u = random_pure(1, dim_a, seed=dim_a).amplitudes
    v = random_pure(1, dim_b, seed=10 + dim_b).amplitudes
    product = PureState(np.kron(u, v), dim_a, dim_b).projector()
    assert ccnr_tau(product) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_tau_of_max_entangled_is_d(d):
    assert ccnr_tau(max_entangled(d).projector()) == pytest.approx(d, abs=1e-12)


def test_tau_takes_a_real_svd(monkeypatch):
    """``ccnr_tau`` hands LAPACK a float64 matrix, never the complex realignment."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    ccnr_tau(random_density(2, 3, seed=0))
    ccnr_tau(validate_stack(np.stack([np.eye(6) / 6, random_density(2, 3, seed=1).matrix]), 2, 3))
    assert seen == [np.float64, np.float64]
