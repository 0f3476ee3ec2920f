"""Tests for the state families, Schmidt machinery and twirling."""

import numpy as np
import pytest

from ccnr.criteria import partial_transpose_b
from ccnr.linalg import random_unitary
from ccnr.realign import tau_bell_diagonal_closed
from ccnr.states import (
    DensityOperator,
    InvariantViolation,
    PureState,
    bell_basis,
    bell_diagonal_stack,
    bell_diagonal_state,
    bell_spectrum,
    fhat_operator,
    flip_operator,
    isotropic_state,
    max_entangled,
    partial_trace_a,
    partial_trace_b,
    pure_from_schmidt,
    qubit_family,
    qutrit_family,
    random_density,
    random_pure,
    schmidt_decompose,
    twirl_uu,
    twirl_uubar,
    validate_stack,
    werner_state,
)


# ---------------------------------------------------------------------------
# container validation


def test_density_operator_requires_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.3
    with pytest.raises(InvariantViolation) as excinfo:
        DensityOperator(m, 2, 2)
    assert excinfo.value.invariant == "hermiticity"


def test_density_operator_requires_unit_trace():
    with pytest.raises(InvariantViolation) as excinfo:
        DensityOperator(np.eye(4) / 2, 2, 2)
    assert excinfo.value.invariant == "unit_trace"
    assert excinfo.value.residual == pytest.approx(1.0)


def test_density_operator_requires_psd():
    m = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
    with pytest.raises(InvariantViolation) as excinfo:
        DensityOperator(m, 2, 2)
    assert excinfo.value.invariant == "positive_semidefinite"


def test_density_operator_symmetrizes_and_renormalizes():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-13
    rho = DensityOperator(m * (1 + 5e-11), 2, 2)
    np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T)
    assert np.real(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-15)


def test_density_operator_dim_inference():
    rho = DensityOperator(np.eye(9) / 9)
    assert rho.dims == (3, 3)
    rho = DensityOperator(np.eye(6) / 6, dim_a=2)
    assert rho.dims == (2, 3)
    with pytest.raises(ValueError, match="bipartition"):
        DensityOperator(np.eye(6) / 6)


def test_density_operator_is_frozen():
    rho = DensityOperator(np.eye(4) / 4, 2, 2)
    with pytest.raises(AttributeError):
        rho.dim_a = 3
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_pure_state_norm_check():
    with pytest.raises(InvariantViolation) as excinfo:
        PureState([1.0, 1.0], 1, 2)
    assert excinfo.value.invariant == "unit_norm"


def test_bell_spectrum_validation():
    with pytest.raises(ValueError, match="four"):
        bell_spectrum([0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        bell_spectrum([1.2, -0.2, 0.0, 0.0])
    with pytest.raises(ValueError, match="sum"):
        bell_spectrum([0.5, 0.5, 0.5, 0.5])



def test_bell_spectrum_names_a_wrong_shape():
    with pytest.raises(ValueError, match=r"\(4,\) or \(k, 4\), got \(1, 1, 4\)"):
        bell_spectrum([[[0.25, 0.25, 0.25, 0.25]]])
    with pytest.raises(ValueError, match=r"\(4,\) or \(k, 4\), got \(1, 1, 4\)"):
        tau_bell_diagonal_closed(np.full((1, 1, 4), 0.25))


def test_bell_diagonal_stack_names_a_single_spectrum():
    with pytest.raises(ValueError, match=r"\(k, 4\) array, got shape \(4,\)"):
        bell_diagonal_stack([0.25, 0.25, 0.25, 0.25])


@pytest.mark.parametrize("keyword", ["tol_herm", "tol_psd"])
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_validate_stack_refuses_a_bad_tolerance(keyword, tol):
    with pytest.raises(ValueError, match=f"{keyword} must be finite and nonnegative"):
        validate_stack(np.eye(4) / 4, **{keyword: tol})


# ---------------------------------------------------------------------------
# flip and friends


def test_flip_defining_action():
    f = flip_operator(2)
    e01 = np.zeros(4); e01[1] = 1  # |0 (x) 1>
    e10 = np.zeros(4); e10[2] = 1  # |1 (x) 0>
    np.testing.assert_array_equal(f @ e01, e10)


def test_flip_trace_and_involution():
    for d in range(2, 6):
        f = flip_operator(d)
        assert np.trace(f) == pytest.approx(d)
        np.testing.assert_array_equal(f @ f, np.eye(d * d))


def test_flip_rejects_small_dimension():
    with pytest.raises(ValueError):
        flip_operator(1)


def test_max_entangled_amplitudes_and_schmidt():
    psi = max_entangled(2)
    np.testing.assert_allclose(
        psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
    )
    np.testing.assert_allclose(
        schmidt_decompose(psi).coefficients, [0.5, 0.5], atol=1e-12
    )


def test_max_entangled_fhat_expectation():
    for d in (2, 3, 4):
        psi = max_entangled(d).amplitudes
        value = np.real(psi.conj() @ fhat_operator(d) @ psi)
        assert value == pytest.approx(d, abs=1e-12)


def test_fhat_entries_and_trace():
    m = fhat_operator(2)
    expected = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 1.0
    np.testing.assert_array_equal(m, expected)
    assert np.trace(fhat_operator(3)) == pytest.approx(3)


def test_fhat_is_partial_transpose_of_flip():
    for d in (2, 3):
        np.testing.assert_array_equal(
            fhat_operator(d), partial_transpose_b(flip_operator(d), d, d)
        )


# ---------------------------------------------------------------------------
# werner and isotropic families


def test_werner_flip_expectation_grid():
    for d in (2, 3, 4, 5):
        f_op = flip_operator(d)
        for f in np.linspace(-1, 1, 21):
            rho = werner_state(d, f)
            assert np.real(np.trace(rho.matrix @ f_op)) == pytest.approx(f, abs=1e-12)
            assert np.real(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-12)


def test_werner_singlet_limit():
    rho = werner_state(2, -1.0)
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = -1 / np.sqrt(2), 1 / np.sqrt(2)
    np.testing.assert_allclose(rho.matrix, np.outer(singlet, singlet.conj()), atol=1e-12)


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        werner_state(2, 1.5)
    with pytest.raises(ValueError):
        werner_state(1, 0.0)


def test_isotropic_fhat_expectation_grid():
    for d in (2, 3, 4, 5):
        fhat = fhat_operator(d)
        for F in np.linspace(0, 1, 21):
            rho = isotropic_state(d, F)
            assert np.real(np.trace(rho.matrix @ fhat)) == pytest.approx(
                d * F, abs=1e-12
            )


def test_isotropic_limits():
    psi = max_entangled(3).amplitudes
    np.testing.assert_allclose(
        isotropic_state(3, 1.0).matrix, np.outer(psi, psi.conj()), atol=1e-12
    )
    np.testing.assert_allclose(
        isotropic_state(3, 1 / 9).matrix, np.eye(9) / 9, atol=1e-12
    )


def test_isotropic_example_value():
    rho = isotropic_state(3, 0.5)
    assert np.real(np.trace(rho.matrix @ fhat_operator(3))) == pytest.approx(1.5)


def test_isotropic_rejects_out_of_range():
    with pytest.raises(ValueError):
        isotropic_state(3, -0.1)
    with pytest.raises(ValueError):
        isotropic_state(3, 1.1)


# ---------------------------------------------------------------------------
# Bell basis and Bell-diagonal states


def test_bell_basis_orthonormal():
    vectors = [psi.amplitudes for psi in bell_basis()]
    gram = np.array([[v.conj() @ w for w in vectors] for v in vectors])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_bell_basis_schmidt_coefficients():
    for psi in bell_basis():
        np.testing.assert_allclose(
            schmidt_decompose(psi).coefficients, [0.5, 0.5], atol=1e-12
        )


def test_bell_basis_completeness():
    total = sum(np.outer(p.amplitudes, p.amplitudes.conj()) for p in bell_basis())
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


def test_bell_diagonal_pure_and_mixed_limits():
    psi0 = bell_basis()[0].amplitudes
    np.testing.assert_allclose(
        bell_diagonal_state([1, 0, 0, 0]).matrix,
        np.outer(psi0, psi0.conj()),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        bell_diagonal_state([0.25] * 4).matrix, np.eye(4) / 4, atol=1e-12
    )


def test_bell_diagonal_eigenvalue_multiset():
    lam = [0.6, 0.2, 0.1, 0.1]
    eigs = np.linalg.eigvalsh(bell_diagonal_state(lam).matrix)
    np.testing.assert_allclose(np.sort(eigs), np.sort(lam), atol=1e-10)


# ---------------------------------------------------------------------------
# the two example families


def test_qubit_family_limits():
    e00 = np.zeros(4); e00[0] = 1
    np.testing.assert_allclose(
        qubit_family(1.0).matrix, np.outer(e00, e00), atol=1e-14
    )
    phi = np.array([0, 1, 1, 0]) / np.sqrt(2)
    np.testing.assert_allclose(
        qubit_family(0.0).matrix, np.outer(phi, phi), atol=1e-14
    )


def test_qubit_family_half_eigenvalues():
    eigs = np.linalg.eigvalsh(qubit_family(0.5).matrix)
    np.testing.assert_allclose(np.sort(eigs), [0, 0, 0.5, 0.5], atol=1e-12)


def test_qubit_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        qubit_family(-0.01)


def test_qutrit_family_is_valid_state():
    rho = qutrit_family(2.5)
    assert np.real(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12


def test_qutrit_family_rank_at_endpoint():
    eigs = np.linalg.eigvalsh(qutrit_family(5.0).matrix)
    assert int(np.sum(eigs > 1e-12)) == 4


def test_qutrit_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        qutrit_family(1.9)
    with pytest.raises(ValueError):
        qutrit_family(5.1)


# ---------------------------------------------------------------------------
# Schmidt machinery


def test_pure_from_schmidt_product():
    psi = pure_from_schmidt([1.0], 2, 2)
    np.testing.assert_allclose(psi.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_pure_from_schmidt_balanced():
    psi = pure_from_schmidt([0.5, 0.5], 2, 2)
    np.testing.assert_allclose(psi.amplitudes, max_entangled(2).amplitudes, atol=1e-15)


def test_pure_from_schmidt_round_trip():
    p = [0.7, 0.2, 0.1]
    form = schmidt_decompose(pure_from_schmidt(p, 3, 3))
    np.testing.assert_allclose(form.coefficients, p, atol=1e-10)


def test_pure_from_schmidt_rejects_bad_input():
    with pytest.raises(ValueError):
        pure_from_schmidt([0.5, 0.25, 0.25], 2, 2)
    with pytest.raises(ValueError):
        pure_from_schmidt([0.5, 0.4], 2, 2)


def test_schmidt_decompose_examples():
    np.testing.assert_allclose(
        schmidt_decompose(PureState([1, 0, 0, 0], 2, 2)).coefficients, [1.0]
    )
    amps = np.zeros(4); amps[0], amps[3] = np.sqrt(0.9), np.sqrt(0.1)
    np.testing.assert_allclose(
        schmidt_decompose(PureState(amps, 2, 2)).coefficients, [0.9, 0.1], atol=1e-12
    )


def test_schmidt_reconstruction_random():
    rng_seeds = range(10)
    for seed in rng_seeds:
        psi = random_pure(3, 4, seed=seed)
        form = schmidt_decompose(psi)
        assert np.sum(form.coefficients) == pytest.approx(1.0, abs=1e-10)
        rebuilt = np.zeros(12, dtype=complex)
        for p, a, b in zip(form.coefficients, form.left_basis.T, form.right_basis.T):
            rebuilt += np.sqrt(p) * np.kron(a, b)
        assert np.linalg.norm(rebuilt - psi.amplitudes) <= 1e-9
        for basis in (form.left_basis, form.right_basis):
            gram = basis.conj().T @ basis
            np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-10)


def test_schmidt_round_trip_multiset():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = np.sort(rng.dirichlet(np.ones(3)))[::-1]
        recovered = schmidt_decompose(pure_from_schmidt(p, 3, 3)).coefficients
        padded = np.zeros(3)
        padded[: recovered.size] = recovered
        np.testing.assert_allclose(np.sort(padded), np.sort(p), atol=1e-10)


# ---------------------------------------------------------------------------
# twirling


def test_twirl_uu_fixes_werner():
    for d, f in ((2, -0.7), (3, 0.4)):
        rho = werner_state(d, f)
        np.testing.assert_allclose(twirl_uu(rho).matrix, rho.matrix, atol=1e-12)


def test_twirl_uu_of_product_projector():
    e00 = np.zeros(4, dtype=complex); e00[0] = 1
    rho = DensityOperator(np.outer(e00, e00), 2, 2)
    np.testing.assert_allclose(
        twirl_uu(rho).matrix, werner_state(2, 1.0).matrix, atol=1e-12
    )


def test_twirl_uu_idempotent():
    for seed in range(5):
        sigma = random_density(3, 3, seed=seed)
        once = twirl_uu(sigma)
        twice = twirl_uu(once)
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-12)


def test_twirl_uu_group_invariance():
    rng_seed = 77
    sigma = random_density(2, 2, seed=rng_seed)
    base = twirl_uu(sigma)
    for k in range(5):
        u = random_unitary(2, seed=1000 + k)
        v = np.kron(u, u)
        rotated = DensityOperator(v @ sigma.matrix @ v.conj().T, 2, 2)
        np.testing.assert_allclose(twirl_uu(rotated).matrix, base.matrix, atol=1e-9)


def test_twirl_uubar_fixes_isotropic():
    rho = isotropic_state(3, 0.6)
    np.testing.assert_allclose(twirl_uubar(rho).matrix, rho.matrix, atol=1e-12)


def test_twirl_uubar_of_max_entangled():
    rho = max_entangled(2).projector()
    np.testing.assert_allclose(
        twirl_uubar(rho).matrix, isotropic_state(2, 1.0).matrix, atol=1e-12
    )


def test_twirl_uubar_product_overlap_rule():
    """A product projector twirls onto the isotropic state of fidelity |<a*|b>|^2/d."""
    d, F = 3, 0.2  # product inputs only reach F <= 1/d
    a = np.zeros(d, dtype=complex); a[0] = 1.0
    b = np.zeros(d, dtype=complex)
    b[0], b[1] = np.sqrt(d * F), np.sqrt(1 - d * F)
    b = b / np.linalg.norm(b)
    product = np.kron(a, b)
    rho = DensityOperator(np.outer(product, product.conj()), d, d)
    np.testing.assert_allclose(
        twirl_uubar(rho).matrix, isotropic_state(d, F).matrix, atol=1e-12
    )


def test_twirl_uubar_group_invariance():
    sigma = random_density(3, 3, seed=5)
    base = twirl_uubar(sigma)
    for k in range(5):
        u = random_unitary(3, seed=2000 + k)
        v = np.kron(u, u.conj())
        rotated = DensityOperator(v @ sigma.matrix @ v.conj().T, 3, 3)
        np.testing.assert_allclose(twirl_uubar(rotated).matrix, base.matrix, atol=1e-9)


def test_twirl_rejects_rectangular():
    sigma = random_density(2, 3, seed=1)
    with pytest.raises(ValueError):
        twirl_uu(sigma)
    with pytest.raises(ValueError):
        twirl_uubar(sigma)


# ---------------------------------------------------------------------------
# partial traces


def test_partial_trace_product():
    x = random_density(1, 2, seed=21).matrix  # any unit-trace 2x2 PSD works
    y = random_density(1, 3, seed=22).matrix
    rho = DensityOperator(np.kron(x, y), 2, 3)
    np.testing.assert_allclose(partial_trace_a(rho), y, atol=1e-12)
    np.testing.assert_allclose(partial_trace_b(rho), x, atol=1e-12)


def test_partial_trace_max_entangled():
    for d in (2, 3):
        rho = max_entangled(d).projector()
        np.testing.assert_allclose(partial_trace_b(rho), np.eye(d) / d, atol=1e-12)
        np.testing.assert_allclose(partial_trace_a(rho), np.eye(d) / d, atol=1e-12)


def test_partial_trace_qubit_family():
    marginal = partial_trace_b(qubit_family(0.5))
    np.testing.assert_allclose(marginal, np.diag([0.75, 0.25]), atol=1e-12)


# ---------------------------------------------------------------------------
# random generators


def test_random_pure_deterministic():
    a = random_pure(2, 3, seed=123)
    b = random_pure(2, 3, seed=123)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert np.sum(schmidt_decompose(a).coefficients) == pytest.approx(1.0, abs=1e-10)


def test_random_density_deterministic_and_valid():
    a = random_density(2, 2, rank=2, seed=5)
    b = random_density(2, 2, rank=2, seed=5)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert np.real(np.trace(a.matrix)) == pytest.approx(1.0, abs=1e-12)
    assert int(np.sum(np.linalg.eigvalsh(a.matrix) > 1e-10)) == 2


def test_random_density_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_density(2, 2, rank=5, seed=0)


def test_density_operator_rejects_nonpositive_dims_with_value_error():
    with pytest.raises(ValueError, match="positive"):
        DensityOperator(np.eye(4) / 4, dim_b=0)
    with pytest.raises(ValueError, match="positive"):
        DensityOperator(np.eye(4) / 4, dim_a=-2)


@pytest.mark.parametrize("build", [werner_state, isotropic_state])
def test_family_constructors_reject_non_integer_dimension(build):
    with pytest.raises(ValueError, match="integer"):
        build(3.5, 0.1)
    with pytest.raises(ValueError, match="at least 2"):
        build(1, 0.1)
