"""Tests for the state families, Schmidt machinery and twirling."""

import copy
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ccnr
from ccnr.criteria import partial_transpose_b
from ccnr.crossnorm import GammaValue, gamma_bell_diagonal_closed
from ccnr.linalg import _hermitian_part, random_unitary
from ccnr.realign import tau_bell_diagonal_closed
from ccnr.states import (
    MAX_MATRIX_SIDE,
    DensityOperator,
    InvariantViolation,
    PureState,
    bell_basis,
    bell_diagonal_stack,
    bell_diagonal_state,
    bell_spectrum,
    fhat_operator,
    flip_operator,
    isotropic_stack,
    isotropic_state,
    max_entangled,
    partial_trace_a,
    partial_trace_b,
    pure_from_schmidt,
    qubit_family,
    qubit_family_stack,
    qutrit_family,
    qutrit_family_stack,
    random_density,
    random_pure,
    schmidt_decompose,
    twirl_uu,
    twirl_uubar,
    validate_stack,
    werner_stack,
    werner_state,
)
from ccnr.states import _psd_shift, _rng
from ccnr.tolerances import HERMITICITY_TOL as HERM_TOL, PSD_TOL


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


@pytest.mark.parametrize("message", [None, "F: not a state"], ids=["default", "given"])
@pytest.mark.parametrize("duplicate", [lambda e: pickle.loads(pickle.dumps(e)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_an_invariant_violation_survives_a_copy(duplicate, message):
    error = InvariantViolation("hermiticity", 1.5e-3, message)
    again = duplicate(error)
    assert type(again) is InvariantViolation
    assert (again.invariant, again.residual, str(again)) == (
        error.invariant, error.residual, str(error))


@pytest.mark.parametrize("residual, shape", [([1, 2], "(2,)"), (np.array([1e-3]), "(1,)"),
                                             ([[]], "(1, 0)")], ids=["list", "array", "empty"])
def test_an_invariant_residual_that_is_not_one_number_is_refused(residual, shape):
    # numpy refused each with a TypeError, "only 0-dimensional arrays can be converted".
    refusal = f"^residual must be a single number, got shape {re.escape(shape)}$"
    with pytest.raises(ValueError, match=refusal):
        InvariantViolation("x", residual)


def test_an_invariant_residual_may_be_infinite():
    # A Hermiticity residual of entries near the float limit overflows to inf.
    error = InvariantViolation("hermiticity", np.inf)
    assert error.residual == np.inf
    assert str(error) == "invariant 'hermiticity' violated: residual inf"


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The stacks passed to ``np.linalg.eigvalsh`` while a test runs."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def _rank_one_stack(n, k, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return np.einsum("ki,kj->kij", psi, psi.conj())


@pytest.mark.parametrize("build", [
    lambda: random_density(12, 12, seed=0),
    lambda: random_density(12, 12, rank=1, seed=1),
    lambda: random_pure(12, 12, seed=2).projector(),
    lambda: DensityOperator(_rank_one_stack(144, 3, seed=3), 12, 12),
    lambda: DensityOperator(_rank_one_stack(144, 2, seed=4), 6, 24),
    lambda: werner_state(3, 1.0),
    lambda: werner_state(3, -1.0),
    lambda: werner_state(12, -1.0),
    lambda: isotropic_state(4, 1.0),
    lambda: isotropic_state(12, 1.0),
    lambda: DensityOperator(werner_stack(3, np.linspace(-1.0, 1.0, 21)), 3, 3),
    lambda: DensityOperator(isotropic_stack(4, np.linspace(0.0, 1.0, 11)), 4, 4),
    lambda: DensityOperator(bell_diagonal_stack(np.eye(4)), 2, 2),
    lambda: DensityOperator(qubit_family_stack([0.0, 1.0]), 2, 2),
    lambda: DensityOperator(qutrit_family_stack([2.0, 5.0]), 3, 3),
], ids=["random-n144", "rank1-n144", "pure-n144", "rank1-stack-n144", "rank1-stack-6x24",
        "werner-3-plus1", "werner-3-minus1", "werner-12-minus1", "isotropic-4-F1",
        "isotropic-12-F1", "werner-stack", "isotropic-stack", "bell-pure-stack",
        "qubit-stack", "qutrit-stack"])
def test_accepting_a_state_runs_no_eigendecomposition(build, eigvalsh_calls):
    # The Cholesky certificate accepts rank-deficient states too: its shift
    # just under PSD_TOL makes them positive definite.
    build()
    assert eigvalsh_calls == []


def test_refusing_a_state_runs_one_eigendecomposition(eigvalsh_calls):
    with pytest.raises(InvariantViolation, match="positive_semidefinite"):
        DensityOperator(np.diag([0.75, 0.75, -0.25, -0.25]), 2, 2)
    assert eigvalsh_calls == [(4, 4)]
    stack = werner_stack(3, [0.5, -1.0, 1.0])
    stack[1] = np.diag([1.5, -0.5] + [0.0] * 7)
    with pytest.raises(InvariantViolation) as excinfo:
        DensityOperator(stack, 3, 3)
    assert excinfo.value.residual == -0.5
    assert eigvalsh_calls == [(4, 4), (3, 9, 9)]


def _state_at_the_psd_tolerance(n, offset, turned):
    """A real ``n x n`` matrix with ``lambda_min = -PSD_TOL (1 + offset)``.

    It is diagonal unless ``turned``: then its spectrum is rotated by a
    seeded orthogonal matrix, so the Cholesky factor has entries off the
    diagonal, and the result is symmetrised exactly.
    """
    weights = np.full(n, (1.0 + PSD_TOL * (1.0 + offset)) / (n - 1))
    weights[0] = -PSD_TOL * (1.0 + offset)
    if not turned:
        return np.diag(weights).astype(complex)
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    m = (q * weights) @ q.T
    return ((m + m.T) / 2.0).astype(complex)


@pytest.mark.parametrize("n, turned", [(4, False), (144, False), (4, True), (9, True), (144, True)],
                         ids=["4", "144", "turned-4", "turned-9", "turned-144"])
@pytest.mark.parametrize("offset", [-1e-3, 1e-3], ids=["inside", "outside"])
def test_states_at_the_psd_tolerance_keep_their_outcome(n, turned, offset, eigvalsh_calls):
    # lambda_min = -PSD_TOL (1 + offset): accepted just inside, refused just
    # outside, as by the smallest eigenvalue alone.  Every matrix here is
    # real-valued, so a real Cholesky certifies it.
    matrix = _state_at_the_psd_tolerance(n, offset, turned)
    normalized = matrix / np.real(np.trace(matrix))
    smallest = np.linalg.eigvalsh(normalized)[0]
    del eigvalsh_calls[:]
    if smallest >= -PSD_TOL:
        assert offset < 0
        np.testing.assert_array_equal(DensityOperator(matrix).matrix, normalized)
        assert eigvalsh_calls == []
    else:
        assert offset > 0
        with pytest.raises(InvariantViolation) as excinfo:
            DensityOperator(matrix)
        assert excinfo.value.invariant == "positive_semidefinite"
        assert excinfo.value.residual == smallest
        assert eigvalsh_calls == [(n, n)]


def test_a_state_the_certificate_cannot_prove_is_accepted_by_the_eigenvalues(eigvalsh_calls):
    # lambda_min = -PSD_TOL (1 - 1e-5) lies within the certificate's margin of -PSD_TOL, so
    # the Cholesky fails and eigvalsh decides, once.
    matrix = _state_at_the_psd_tolerance(144, -1e-5, turned=False)
    np.testing.assert_array_equal(DensityOperator(matrix).matrix,
                                  matrix / np.real(np.trace(matrix)))
    assert eigvalsh_calls == [(144, 144)]


def test_the_certificate_shift_is_positive_for_every_matrix_side():
    # Every side certifies a rank-deficient state (see the test above it), and no branch
    # handles a shift that is not positive.
    shifts = _psd_shift(np.arange(1, MAX_MATRIX_SIDE + 1))
    assert shifts.min() == shifts[-1] == _psd_shift(MAX_MATRIX_SIDE) > 0.995 * PSD_TOL


@pytest.mark.parametrize("build, dtype", [
    (lambda: werner_stack(3, np.linspace(-1.0, 1.0, 5)), np.float64),
    (lambda: isotropic_stack(12, [0.5]), np.float64),
    (lambda: qutrit_family_stack([3.0]), np.float64),
    (lambda: bell_diagonal_stack([[0.1, 0.2, 0.3, 0.4]]), np.float64),
    (lambda: random_density(3, 3, seed=1).matrix, np.complex128),
    (lambda: random_pure(3, 3, seed=2).projector().matrix, np.complex128),
], ids=["werner", "isotropic", "qutrit", "bell", "random", "pure"])
def test_the_psd_certificate_factors_real_states_in_real_arithmetic(build, dtype, monkeypatch):
    # The factors i of two Bell vectors cancel in their projectors, so
    # every family state is real-valued; random states are not.
    matrix = build()
    factored = []
    cholesky = np.linalg.cholesky

    def recording(a):
        factored.append(a.dtype)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    DensityOperator(matrix)
    assert factored == [dtype]


def test_one_matrix_off_hermitian_sends_the_stack_through_the_full_scan():
    # Exactly Hermitian stacks skip the residual scan; one inexact matrix
    # brings back the measured residual of every matrix, and the refusal.
    stack = werner_stack(3, [0.5, -1.0, 1.0])
    _, measured, bound = _hermitian_part(stack, HERM_TOL)
    assert measured.tolist() == bound.tolist() == [0.0, 0.0, 0.0]
    stack[1, 0, 4] += 1e-3
    residual = np.max(np.abs(stack[1] - stack[1].conj().T))
    _, measured, bound = _hermitian_part(stack, HERM_TOL)
    assert measured.tolist() == [0.0, residual, 0.0] and bound.all()
    with pytest.raises(InvariantViolation) as excinfo:
        DensityOperator(stack, 3, 3)
    assert excinfo.value.invariant == "hermiticity"
    assert excinfo.value.residual == residual
    assert str(excinfo.value) == f"invariant 'hermiticity' violated: residual {residual:.6e}"


def test_a_stack_within_the_hermiticity_tolerance_is_symmetrised_as_before():
    stack = werner_stack(3, [0.5, -1.0, 1.0])
    stack[2, 0, 4] += 1e-12j
    adjoint = np.swapaxes(stack.conj(), -2, -1)
    expected = (stack + adjoint) / 2.0
    expected /= np.real(np.trace(expected, axis1=-2, axis2=-1))[:, None, None]
    assert DensityOperator(stack, 3, 3).matrix.tobytes() == expected.tobytes()


def test_signed_zero_imaginary_parts_keep_their_bits():
    # h == h^dag holds with -0.0 against 0.0, and the symmetrisation still
    # turns each -0.0 imaginary part into 0.0, as the full scan did.
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 3] = m[3, 0] = 0.05
    m.imag[...] = -0.0
    rho = DensityOperator(m, 2, 2)
    expected = (m + m.conj().T) / 2.0
    expected /= np.real(np.trace(expected))
    assert rho.matrix.tobytes() == expected.tobytes()
    assert not np.signbit(rho.matrix.imag).any()


@pytest.mark.parametrize("build, ratio", [
    (lambda: werner_stack(8, np.linspace(-1.0, 1.0, 100)), 2.2),
    (lambda: random_density(12, 12, seed=6).matrix.copy(), 3.05),
], ids=["werner-stack-real", "random-n144-complex"])
def test_validation_peaks_within_a_small_multiple_of_its_input(build, ratio):
    matrix = build()
    DensityOperator(matrix)  # warm: the first call imports and caches
    tracemalloc.start()
    try:
        DensityOperator(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ratio * matrix.nbytes


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
    # NaN fails every comparison, so only a finiteness check refuses it.
    stack = np.full((3, 4), 0.25)
    stack[1] = [np.nan, 0.5, 0.25, 0.25]
    for lam in (stack[1], stack):
        for refuse in (bell_spectrum, gamma_bell_diagonal_closed, tau_bell_diagonal_closed):
            with pytest.raises(ValueError, match="^weights must be finite$"):
                refuse(lam)



def test_bell_spectrum_names_a_wrong_shape():
    with pytest.raises(ValueError, match=r"\(4,\) or \(k, 4\), got \(1, 1, 4\)"):
        bell_spectrum([[[0.25, 0.25, 0.25, 0.25]]])
    with pytest.raises(ValueError, match=r"\(4,\) or \(k, 4\), got \(1, 1, 4\)"):
        tau_bell_diagonal_closed(np.full((1, 1, 4), 0.25))


def test_bell_diagonal_stack_names_a_single_spectrum():
    with pytest.raises(ValueError, match=r"\(k, 4\) array, got shape \(4,\)"):
        bell_diagonal_stack([0.25, 0.25, 0.25, 0.25])


def test_bell_diagonal_state_names_the_shape_passed():
    with pytest.raises(ValueError, match=r"got \(3,\)"):
        bell_diagonal_state([0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match=r"one spectrum needs shape \(4,\), got \(2, 4\)"):
        bell_diagonal_state([[0.25] * 4] * 2)
    with pytest.raises(ValueError, match=r"one spectrum needs shape \(4,\), got \(1, 4\)"):
        bell_diagonal_state([[0.4, 0.3, 0.2, 0.1]])


# The validation tolerances are constants: no call can pass one, whatever its value, and the
# refusal is Python's, naming the keyword.
def _refuses_the_tolerance(name: str, call) -> None:
    with pytest.raises(TypeError, match=f"got an unexpected keyword argument '{name}'$"):
        call()


@pytest.mark.parametrize("keyword", ["tol_herm", "tol_psd"])
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_validate_stack_refuses_a_bad_tolerance(keyword, tol):
    _refuses_the_tolerance(keyword, lambda: validate_stack(np.eye(4) / 4, **{keyword: tol}))


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
    with pytest.raises(ValueError, match="^coefficients must be nonnegative$"):
        pure_from_schmidt([1.5, -0.5], 2, 2)
    with pytest.raises(ValueError, match=r"^coefficients must sum to 1, got 0\.0$"):
        pure_from_schmidt([], 2, 2)
    # Refused by name before the count, sign and sum rules, which NaN passes.
    for p in ([np.nan, 0.5], [np.inf, 0.5], [-np.inf, 1.0], [0.5, 0.5, np.nan]):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            pure_from_schmidt(p, 2, 2)


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
    with pytest.raises(ValueError, match="rank must be an integer"):
        random_density(2, 2, rank=2.5, seed=0)


def test_density_operator_rejects_nonpositive_dims_with_value_error():
    with pytest.raises(ValueError, match="positive"):
        DensityOperator(np.eye(4) / 4, dim_b=0)
    with pytest.raises(ValueError, match="positive"):
        DensityOperator(np.eye(4) / 4, dim_a=-2)


# Each constructor and builder that takes dims, called as ``state(data, dim_a, dim_b)``.
@pytest.mark.parametrize("state, data", [
    (DensityOperator, np.eye(4) / 4),
    (PureState, np.ones(4) / 2),
    (lambda _, dim_a, dim_b: random_density(dim_a, dim_b, seed=0), None),
    (lambda _, dim_a, dim_b: random_pure(dim_a, dim_b, seed=0), None),
    (pure_from_schmidt, [1.0]),
], ids=["density", "pure", "random_density", "random_pure", "pure_from_schmidt"])
@pytest.mark.parametrize("dims", [(2.5, 2), (None, 2.0), (2.9, None), (2, np.float64(2.0))],
                         ids=["2.5", "2.0", "2.9", "float64"])
def test_fractional_dims_are_refused_not_truncated(state, data, dims):
    with pytest.raises(ValueError, match="dims must be integers"):
        state(data, *dims)
    assert state(data, np.int64(2), np.int64(2)).dims == (2, 2)  # numpy integers still pass


# operator.index takes True and False as 1 and 0; the dims rule and the rank check do not.
@pytest.mark.parametrize("call, text", [
    (lambda: DensityOperator(np.eye(4) / 4, True, 4), "dims must be integers, got (True, 4)"),
    (lambda: DensityOperator(np.eye(4) / 4, None, False), "dims must be integers, got (False,)"),
    (lambda: PureState([1, 0, 0, 0], True, 4), "dims must be integers, got (True, 4)"),
    (lambda: random_density(True, 2), "dims must be integers, got (True, 2)"),
    (lambda: random_pure(2, False), "dims must be integers, got (2, False)"),
    (lambda: pure_from_schmidt([1.0], True, 2), "dims must be integers, got (True, 2)"),
    (lambda: random_unitary(True), "dims must be integers, got (True,)"),
    (lambda: random_density(2, 2, rank=True), "rank must be an integer, got True"),
    (lambda: random_density(2, 2, rank=False), "rank must be an integer, got False"),
    (lambda: werner_state(True, 0.5), "local dimension must be an integer, got True"),
], ids=["density", "density-inferred", "pure", "random_density", "random_pure",
        "pure_from_schmidt", "random_unitary", "rank-true", "rank-false", "werner"])
def test_booleans_are_refused_as_dims_and_ranks(call, text):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == text


_LIBRARY_REFUSALS = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from ccnr.linalg import random_unitary
from ccnr.states import *
for call in sys.argv[1:]:
    tracemalloc.start()
    try:
        eval(call)
    except ValueError as exc:
        print(exc)
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def _refusals_in_a_child(calls):
    """The ``ValueError`` message and the ``tracemalloc`` peak of each call.

    A 1 GiB address-space limit in a child process: a builder that tried
    the allocation would end there in a MemoryError, not here.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ccnr

    env = {**os.environ, "PYTHONPATH": str(Path(ccnr.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _LIBRARY_REFUSALS, *calls],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 * len(calls), done.stdout
    return [(message, int(peak)) for message, peak in zip(lines[::2], lines[1::2])]


def test_library_builders_refuse_oversized_dims_without_allocating():
    refusals = _refusals_in_a_child([
        "random_pure(10**6, 10**6)", "flip_operator(10**4)", "werner_state(10**3, 0.5)",
        "random_density(10**4, 10**4)",
    ])
    for message, peak in refusals:
        assert "more than 1024 rows" in message
        assert peak < 2**20


def test_stack_builders_refuse_an_oversized_result_without_allocating():
    # One past the cap each; the parameters are broadcast views, so the
    # caller's input takes no memory either.
    from ccnr.states import MAX_MATRIX_SIDE, MAX_STACK_BYTES, _stack_fits

    calls = {
        "werner_stack(32, [0.5] * 17)": (17, 1024),
        "isotropic_stack(32, [0.5] * 17)": (17, 1024),
        "bell_diagonal_stack(np.broadcast_to([1.0, 0, 0, 0], (2**20 + 1, 4)))": (2**20 + 1, 4),
        "qubit_family_stack(np.broadcast_to(0.5, 2**20 + 1))": (2**20 + 1, 4),
        "qutrit_family_stack(np.broadcast_to(3.0, 2**28 // 1296 + 1))": (2**28 // 1296 + 1, 9),
    }
    for (message, peak), (count, side) in zip(_refusals_in_a_child(list(calls)), calls.values()):
        assert message == (f"{count} matrices of side {side} take {16 * count * side**2} "
                           f"bytes, more than {MAX_STACK_BYTES}")
        assert peak < 2**20
    # One state of the largest side fits, and so does the largest stack tier-1 builds.
    _stack_fits(1, MAX_MATRIX_SIDE)
    _stack_fits(202, 36)


def test_random_unitary_meets_the_dims_rule_without_allocating():
    (fractional, peak_a), (text, peak_b), (huge, peak_c) = _refusals_in_a_child(
        ["random_unitary(2.5)", "random_unitary('3')", "random_unitary(10**5)"])
    assert fractional == "dims must be integers, got (2.5,)"
    assert text == "dims must be integers, got ('3',)"
    assert huge == "dims (100000,) give more than 1024 rows"
    assert max(peak_a, peak_b, peak_c) < 2**20
    with pytest.raises(ValueError, match="must be positive"):
        random_unitary(0)


@pytest.mark.parametrize("build", [werner_state, isotropic_state])
def test_family_constructors_reject_non_integer_dimension(build):
    with pytest.raises(ValueError, match="integer"):
        build(3.5, 0.1)
    with pytest.raises(ValueError, match="at least 2"):
        build(1, 0.1)


def _poisoned(value, *stack):
    """The maximally mixed two-qubit matrix, or a stack of it, with ``value`` as its last entry."""
    m = np.tile(np.eye(4, dtype=complex) / 4, stack + (1, 1))
    m[(..., 3, 3)] = value
    return m


# Malformed input is an input error named by its message, not an invariant violation.
@pytest.mark.parametrize("make, message", [
    (lambda: DensityOperator(np.eye(6) / 6, 2, 2),
     "dims (2, 2) do not factor total dimension 6"),
    (lambda: DensityOperator(np.ones((2, 3))), "density matrix must be square, got shape (2, 3)"),
    (lambda: werner_stack(2, [[0.1]]),
     "flip expectation values must form a 1-d sequence, got shape (1, 1)"),
    (lambda: PureState([np.nan, 0, 0, 0]), "amplitudes must be finite"),
    (lambda: DensityOperator(_poisoned(np.nan)), "density matrix entries must be finite"),
    (lambda: DensityOperator(_poisoned(np.inf)), "density matrix entries must be finite"),
    (lambda: DensityOperator(_poisoned(np.nan, 3), 2, 2), "density matrix entries must be finite"),
    (lambda: DensityOperator(_poisoned(-np.inf, 2, 3)), "density matrix entries must be finite"),
    (lambda: werner_stack(3, [0.5, np.nan]), "flip expectation must be finite"),
    (lambda: qutrit_family(-np.inf), "parameter must be finite"),
], ids=["dims-do-not-factor", "not-square", "stack-of-rows", "nan-amplitude",
        "nan-entry", "inf-entry", "nan-entry-in-a-stack", "inf-entry-in-a-stack",
        "nan-parameter-in-a-stack", "inf-parameter"])
def test_constructors_refuse_malformed_input_by_name(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
        make()
    assert not isinstance(excinfo.value, InvariantViolation)


def test_a_state_repr_names_its_type_and_dims():
    assert repr(werner_state(2, 0.1)) == "DensityOperator(dim_a=2, dim_b=2)"


# A twirl reads its expectation by the family's own domain; the guard only clips.  At d = 16 a
# family matrix whose parameter lies up to ~2e-8 past the domain end has its negative
# eigenvalue above -PSD_TOL, so it is a state, and the twirl reads the parameter back.
def _past_the_domain(family: str, value: float) -> DensityOperator:
    """The d = 16 Werner (flip expectation) or isotropic (fidelity) state at ``value``, built
    by the family's formula without the builder's domain test."""
    d = 16
    if family == "werner":
        m = ((d - value) * np.eye(d * d) + (d * value - 1.0) * flip_operator(d)) / (d**3 - d)
    else:
        psi = max_entangled(d).amplitudes
        proj = np.outer(psi, psi.conj())
        m = (1.0 - value) / (d * d - 1.0) * (np.eye(d * d) - proj) + value * proj
    return DensityOperator(m, d, d)


@pytest.mark.parametrize("twirl, family, value, message", [
    (twirl_uu, "werner", 1 + 2e-8, "flip expectation must lie in [-1, 1], got 1.0000000199999972"),
    (twirl_uu, "werner", -(1 + 2e-8),
     "flip expectation must lie in [-1, 1], got -1.0000000199999977"),
    (twirl_uubar, "isotropic", 1 + 2e-8, "fidelity must lie in [0, 1], got 1.00000002"),
], ids=["flip-above", "flip-below", "fidelity-above"])
def test_a_twirl_refuses_an_expectation_outside_the_family_domain_by_name(twirl, family, value,
                                                                          message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        twirl(_past_the_domain(family, value))


def test_a_twirl_clips_an_expectation_within_the_guard_onto_the_domain():
    # A flip expectation and a fidelity of 1 + 5e-9, within CLIP_GUARD of 1, twirl as 1.
    assert twirl_uu(_past_the_domain("werner", 1 + 5e-9)).matrix.tobytes() \
        == werner_state(16, 1.0).matrix.tobytes()
    assert twirl_uubar(_past_the_domain("isotropic", 1 + 5e-9)).matrix.tobytes() \
        == isotropic_state(16, 1.0).matrix.tobytes()


@pytest.mark.parametrize("name", ["twirl_uu", "twirl_uubar", "realign_trace"])
def test_a_square_bipartition_function_refuses_unequal_dims_naming_itself_and_them(name):
    import ccnr

    message = rf"^{name} needs equal local dimensions, got dims \(2, 3\)$"
    with pytest.raises(ValueError, match=message):
        getattr(ccnr, name)(random_density(2, 3, seed=0))


# Every function that reads a validated state, by the name its refusal gives.
_STATE_READERS = [
    "report_stack", "full_report", "ccnr_tau", "ppt_min_eigenvalue", "reduction_min_eigenvalue",
    "partial_trace_a", "partial_trace_b", "realign", "operator_schmidt", "realign_trace",
    "twirl_uu", "twirl_uubar",
]


@pytest.mark.parametrize("name", _STATE_READERS)
def test_a_state_reader_refuses_a_raw_array_naming_itself_and_the_type(name):
    # A raw matrix is refused, not validated on the caller's behalf.
    import ccnr

    with pytest.raises(TypeError, match=rf"^{name} needs a DensityOperator, got ndarray$"):
        getattr(ccnr, name)(np.eye(4) / 4)


# Every function that reads a pure state or a closed gamma, on the wrong type.  The pure-state
# robustness is gamma_pure's, and full_report's gamma is report_stack's, so those refusals name them.
_RAW = np.ones(4) / 2
_PURE_AND_GAMMA_READERS = {
    "schmidt_decompose": (lambda: ccnr.schmidt_decompose(_RAW), "schmidt_decompose", "PureState"),
    "gamma_pure": (lambda: ccnr.gamma_pure(_RAW), "gamma_pure", "PureState"),
    "robustness_pure_exact": (lambda: ccnr.robustness_pure_exact(_RAW), "gamma_pure", "PureState"),
    "gamma_rank_one-psi": (lambda: ccnr.gamma_rank_one(_RAW, max_entangled(2)), "gamma_rank_one",
                           "PureState"),
    "gamma_rank_one-omega": (lambda: ccnr.gamma_rank_one(max_entangled(2), _RAW), "gamma_rank_one",
                             "PureState"),
    "robustness_lower_bound": (lambda: ccnr.robustness_lower_bound(1.5), "robustness_lower_bound",
                               "GammaValue"),
    "is_separable_closed": (lambda: ccnr.is_separable_closed(1.0), "is_separable_closed",
                            "GammaValue"),
    "report_stack": (lambda: ccnr.report_stack(werner_state(2, 0.1), gamma=1.0), "report_stack",
                     "GammaValue"),
    "full_report": (lambda: ccnr.full_report(werner_state(2, 0.1), gamma=1.0), "report_stack",
                    "GammaValue"),
}


@pytest.mark.parametrize("call, name, kind", _PURE_AND_GAMMA_READERS.values(),
                         ids=_PURE_AND_GAMMA_READERS.keys())
def test_a_pure_state_or_gamma_reader_refuses_another_type_by_the_one_check(call, name, kind):
    # Refused before any attribute is read, so never an AttributeError.
    got = "float" if kind == "GammaValue" else "ndarray"
    with pytest.raises(TypeError, match=rf"^{name} needs a {kind}, got {got}$"):
        call()


# A Python int past the float range is refused where numbers are converted, not by OverflowError,
# and named as the function names the numbers; an invariant's residual has no name.
@pytest.mark.parametrize("call, name", [
    (lambda: werner_state(3, 10**400), "flip expectation"),
    (lambda: ccnr.tau_werner_closed(3, 10**400), "flip expectation"),
    (lambda: ccnr.realign_matrix([[10**400, 0]], 1, 2), "matrix entries"),
    (lambda: InvariantViolation("x", 10**400), "numbers"),
    (lambda: ccnr.report_stack(werner_state(2, 0.1), GammaValue(10**400, "werner")),
     "a cross norm"),
    (lambda: DensityOperator([[10**400, 0], [0, 0]]), "density matrix entries"),
    (lambda: PureState([-10**400, 0, 0, 0]), "amplitudes"),
    (lambda: ccnr.ferrers_determinant([1, 10**400]), "coefficients"),
], ids=["werner_state", "tau_werner_closed", "realign_matrix", "InvariantViolation",
        "report_stack-gamma", "DensityOperator", "PureState", "ferrers_determinant"])
def test_an_integer_past_the_float_range_is_refused_as_a_value_error(call, name):
    with pytest.raises(ValueError, match=f"^{name} must lie within the float range$"):
        call()


@pytest.mark.parametrize("name", ["tol_herm", "tol_psd"])
def test_a_tolerance_past_the_float_range_is_refused_by_name(name):
    _refuses_the_tolerance(name, lambda: DensityOperator(np.eye(4) / 4, 2, 2, **{name: 10**400}))


# Text and booleans, which numpy parses or reads as 0 and 1, are not numbers: each of these
# returned a result before ``linalg._numbers`` refused them.
_IDENTITY_TEXT = [["0.25" if i == j else "0" for j in range(4)] for i in range(4)]
_COERCIONS = {
    "werner_state-text": lambda: werner_state(3, "0.5"),
    "werner_state-bool": lambda: werner_state(3, True),
    "werner_stack-bool": lambda: werner_stack(3, [True, 0.5]),
    "werner_stack-object-text": lambda: werner_stack(3, np.array(["0.5"], dtype=object)),
    "werner_state-bytes": lambda: werner_state(3, b"0.5"),
    "tau_werner_closed-text": lambda: ccnr.tau_werner_closed(3, "0.5"),
    "PureState-bool": lambda: PureState([True, False, False, False]),
    "is_separable_closed-text": lambda: ccnr.is_separable_closed(GammaValue("1.0", "x")),
    "trace_norm-bool": lambda: ccnr.trace_norm([[True]]),
    "gamma_isotropic_closed-text": lambda: ccnr.gamma_isotropic_closed(3, "0.1"),
    "bell_spectrum-text": lambda: bell_spectrum(["0.25"] * 4),
    "bell_diagonal_state-bool": lambda: bell_diagonal_state([True, False, False, False]),
    "pure_from_schmidt-bool": lambda: pure_from_schmidt([True], 2, 2),
    "qutrit_family-text": lambda: qutrit_family("3"),
    "ferrers_determinant-text": lambda: ccnr.ferrers_determinant(["2", "3"]),
    "DensityOperator-bool-array": lambda: DensityOperator(np.diag([True, False, False, False])),
    "DensityOperator-text": lambda: DensityOperator(_IDENTITY_TEXT),
    "kron-bool-array": lambda: ccnr.kron(np.eye(2, dtype=bool), [[1]]),
    "InvariantViolation-text": lambda: InvariantViolation("x", "0.5"),
    "werner_state-0-d-text": lambda: werner_state(3, np.array("0.5")),
    "werner_state-0-d-bool": lambda: werner_state(3, np.array(True)),
}


@pytest.mark.parametrize("call", _COERCIONS.values(), ids=_COERCIONS.keys())
def test_text_and_booleans_are_refused_where_numbers_are_converted(call):
    with pytest.raises(ValueError, match=r"\S"):
        call()


@pytest.mark.parametrize("name", ["tol_herm", "tol_psd"])
@pytest.mark.parametrize("tol", [True, np.False_, "1e-9"], ids=["True", "np.False_", "text"])
def test_a_tolerance_that_is_text_or_a_boolean_is_refused_by_name(name, tol):
    _refuses_the_tolerance(name, lambda: DensityOperator(np.eye(4) / 4, 2, 2, **{name: tol}))


# A complex number where real ones are asked for: numpy would cast it to its real part with
# only a warning (a NumPy scalar or array) or refuse it with a bare TypeError (a Python complex).
_COMPLEX = {
    "werner_state-np.complex128": (lambda: werner_state(3, np.complex128(0.5 + 1j)),
                                   "flip expectation"),
    "tau_werner_closed-array": (lambda: ccnr.tau_werner_closed(3, np.array([0.5 + 1j])),
                                "flip expectation"),
    "werner_stack-list": (lambda: werner_stack(3, [0.5, 0.5j]), "flip expectation"),
    "gamma_isotropic_closed-np.complex64": (
        lambda: ccnr.gamma_isotropic_closed(3, np.complex64(0.1)), "fidelity"),
    "qutrit_family-complex": (lambda: qutrit_family(3 + 0j), "parameter"),
    "bell_spectrum-array": (lambda: bell_spectrum(np.full(4, 0.25, dtype=complex)), "weights"),
    "pure_from_schmidt-list": (lambda: pure_from_schmidt([0.5 + 0j, 0.5], 2, 2), "coefficients"),
    "is_separable_closed-complex": (lambda: ccnr.is_separable_closed(GammaValue(1 + 0j, "x")),
                                    "a cross norm"),
    "InvariantViolation-np.complex128": (lambda: InvariantViolation("x", np.complex128(1j)),
                                         "numbers"),
}


@pytest.mark.parametrize("call, name", _COMPLEX.values(), ids=_COMPLEX.keys())
def test_a_complex_number_is_refused_where_real_ones_are_converted(call, name):
    with pytest.raises(ValueError, match=f"^{name} must not be complex$"):
        call()


@pytest.mark.parametrize("name", ["tol_herm", "tol_psd"])
@pytest.mark.parametrize("tol", [1e-9 + 0j, np.complex128(1e-9)], ids=["complex", "np.complex128"])
def test_a_complex_tolerance_is_refused_by_name(name, tol):
    _refuses_the_tolerance(name, lambda: DensityOperator(np.eye(4) / 4, 2, 2, **{name: tol}))


@pytest.mark.parametrize("name", ["tol_herm", "tol_psd"])
@pytest.mark.parametrize("tol", [[1e-9], np.array([1e-9, 1e-9]), np.array([1e-9]), [[]]],
                         ids=["list", "array", "array-of-one", "empty"])
def test_a_tolerance_that_is_not_a_single_number_is_refused_by_name(name, tol):
    _refuses_the_tolerance(name, lambda: DensityOperator(np.eye(4) / 4, 2, 2, **{name: tol}))


# Anything that is not a number is refused as such, by the name of the numbers: numpy read
# None as NaN ("... got nan") and ended others in a bare TypeError.
_NOT_NUMBERS = {
    "werner_state-None": (lambda: werner_state(3, None), "flip expectation", "NoneType"),
    "werner_stack-object": (lambda: werner_stack(3, [0.5, object()]), "flip expectation", "object"),
    "tau_qubit_family_closed-dict": (lambda: ccnr.tau_qubit_family_closed({}), "mixing weight",
                                     "dict"),
    "bell_spectrum-None": (lambda: bell_spectrum([0.25, 0.25, 0.25, None]), "weights", "NoneType"),
    "PureState-None": (lambda: PureState([None, 1, 0, 0]), "amplitudes", "NoneType"),
    "InvariantViolation-None": (lambda: InvariantViolation("x", None), "numbers", "NoneType"),
    "tau_werner_closed-ragged": (lambda: ccnr.tau_werner_closed(3, [[0.5], 0.5]),
                                 "flip expectation", "list"),
    # A ragged list is read by kind before a builder sizes its stack from it, or numpy
    # reads its dtype: numpy refused each of these with "setting an array element with a
    # sequence".
    "werner_state-ragged": (lambda: werner_state(3, [[0.5], 0.5]), "flip expectation", "list"),
    "werner_stack-ragged": (lambda: werner_stack(3, [[0.5], 0.5]), "flip expectation", "list"),
    "isotropic_state-ragged": (lambda: isotropic_state(3, [[0.5], 0.5]), "fidelity", "list"),
    "isotropic_stack-ragged": (lambda: isotropic_stack(3, [[0.5], 0.5]), "fidelity", "list"),
    "qubit_family-ragged": (lambda: qubit_family([[0.5], 0.5]), "mixing weight", "list"),
    "qubit_family_stack-ragged": (lambda: qubit_family_stack([[0.5], 0.5]), "mixing weight",
                                  "list"),
    "qutrit_family-ragged": (lambda: qutrit_family([[3.0], 3.0]), "parameter", "list"),
    "qutrit_family_stack-ragged": (lambda: qutrit_family_stack([[3.0], 3.0]), "parameter",
                                   "list"),
    "bell_diagonal_stack-ragged": (lambda: bell_diagonal_stack([[0.5, 0.5, 0, 0], 0.5]),
                                   "weights", "list"),
    "singular_values-ragged": (lambda: ccnr.singular_values([[0.5], 0.5]), "matrix entries",
                               "list"),
    "trace_norm-ragged": (lambda: ccnr.trace_norm([[0.5], 0.5]), "matrix entries", "list"),
}


@pytest.mark.parametrize("call, name, kind", _NOT_NUMBERS.values(), ids=_NOT_NUMBERS.keys())
def test_a_value_that_is_not_a_number_is_refused_by_the_name_of_the_numbers(call, name, kind):
    with pytest.raises(ValueError, match=f"^{name} must be of a numeric kind, got {kind}$"):
        call()


_TOLERANCE_TAKERS = {
    "DensityOperator": lambda **tol: DensityOperator(np.eye(4) / 4, 2, 2, **tol),
    "projector": lambda **tol: max_entangled(2).projector(**tol),
}


@pytest.mark.parametrize("take", _TOLERANCE_TAKERS.values(), ids=_TOLERANCE_TAKERS.keys())
@pytest.mark.parametrize("name", ["tol_herm", "tol_psd"])
@pytest.mark.parametrize("tol, kind", [(None, "NoneType"), (object(), "object"), ({}, "dict")],
                         ids=["None", "object", "dict"])
def test_a_tolerance_that_is_not_a_number_is_refused_by_name(take, name, tol, kind):
    _refuses_the_tolerance(name, lambda: take(**{name: tol}))


# A seed is an integer, by the rule of dims and ranks; numpy would take True as 1, and a
# list as entropy.
_SEEDED = {
    "random_density": lambda seed: random_density(2, 2, seed=seed).matrix,
    "random_pure": lambda seed: random_pure(2, 2, seed=seed).amplitudes,
    "random_unitary": lambda seed: random_unitary(2, seed=seed),
}


@pytest.mark.parametrize("draw", _SEEDED.values(), ids=_SEEDED.keys())
@pytest.mark.parametrize("seed", [True, np.True_, 1.5, "3", [1, 2]],
                         ids=["True", "np.True_", "float", "text", "list"])
def test_a_seed_that_is_not_an_integer_is_refused_by_name(draw, seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        draw(seed)


@pytest.mark.parametrize("draw", _SEEDED.values(), ids=_SEEDED.keys())
@pytest.mark.parametrize("seed", [-1, np.int64(-1), np.array(-1)], ids=["int", "np.int64", "0-d"])
def test_a_negative_seed_is_refused_by_name(draw, seed):
    # numpy refused it in its own words, "expected non-negative integer".
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        draw(seed)


@pytest.mark.parametrize("seed", [0, 7, 2**70])
def test_a_nonnegative_seed_seeds_the_generator_numpy_seeds(seed):
    assert _rng(seed).bit_generator.state == np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("draw", _SEEDED.values(), ids=_SEEDED.keys())
def test_an_integer_seed_of_any_kind_draws_the_same_bits(draw):
    for seed in (np.int64(7), np.uint8(7), np.array(7)):
        assert draw(seed).tobytes() == draw(7).tobytes()
    assert draw(None).shape == draw(7).shape


# What stays a number, each with the bits the same value gives as a Python float.
_SAME_NUMBERS = {
    "np.float64": (lambda: werner_state(3, np.float64(-0.3)).matrix,
                   lambda: werner_state(3, -0.3).matrix),
    "np.int64-array": (lambda: werner_stack(3, np.array([-1, 0, 1])),
                       lambda: werner_stack(3, [-1.0, 0.0, 1.0])),
    "np.float32-array": (lambda: isotropic_stack(3, np.array([0.25, 0.5], dtype=np.float32)),
                         lambda: isotropic_stack(3, [0.25, 0.5])),
    "int": (lambda: ccnr.tau_werner_closed(3, -1), lambda: ccnr.tau_werner_closed(3, -1.0)),
    "int-matrix": (lambda: DensityOperator(np.diag([1, 0, 0, 0])).matrix,
                   lambda: DensityOperator(np.diag([1.0, 0.0, 0.0, 0.0])).matrix),
    "int-amplitudes": (lambda: PureState([0, 1, 0, 0]).amplitudes,
                       lambda: PureState([0.0, 1.0, 0.0, 0.0]).amplitudes),
    "0-d-array": (lambda: werner_state(3, np.array(0.5)).matrix,
                  lambda: werner_state(3, 0.5).matrix),
    "Fraction": (lambda: werner_state(3, Fraction(1, 2)).matrix,
                 lambda: werner_state(3, 0.5).matrix),
    "Fraction-gamma": (lambda: ccnr.robustness_lower_bound(GammaValue(Fraction(3, 2), "x")),
                       lambda: ccnr.robustness_lower_bound(GammaValue(1.5, "x"))),
}


@pytest.mark.parametrize("call, same", _SAME_NUMBERS.values(), ids=_SAME_NUMBERS.keys())
def test_numbers_of_every_numeric_kind_are_admitted_with_the_same_bits(call, same):
    got, expected = np.asarray(call()), np.asarray(same())
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", [5, None, b"werner"], ids=["int", "None", "bytes"])
def test_a_gamma_whose_family_is_not_a_str_is_refused(family):
    with pytest.raises(TypeError, match=r"^report_stack needs a str as GammaValue\.family, got "):
        ccnr.full_report(werner_state(2, 0.5), GammaValue(1.0, family))
    with pytest.raises(TypeError, match=r"^is_separable_closed needs a str as GammaValue\.family"):
        ccnr.is_separable_closed(GammaValue(1.0, family))
