"""Tests for the dense complex linear algebra kernel."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnr.linalg import (
    determinant,
    ferrers_determinant,
    hermitian_eigensystem,
    hs_norm,
    kron,
    random_unitary,
    singular_values,
    trace_norm,
)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# ---------------------------------------------------------------------------
# kron


def test_kron_identity():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_scalar_factor():
    b = np.array([[1, 2j], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(kron([[2.5]], b), 2.5 * b)


def test_kron_matrix_units():
    e01 = np.zeros((2, 2)); e01[0, 1] = 1
    e10 = np.zeros((2, 2)); e10[1, 0] = 1
    out = kron(e01, e10)
    expected = np.zeros((4, 4))
    expected[1, 2] = 1
    np.testing.assert_array_equal(out, expected)


def test_kron_rejects_non_matrix():
    with pytest.raises(ValueError):
        kron(np.zeros(3), np.eye(2))


# ---------------------------------------------------------------------------
# hermitian_eigensystem


def test_eigensystem_diagonal():
    w, v = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
    # columns must permute the canonical basis
    np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)


def test_eigensystem_pauli_x():
    w, _ = hermitian_eigensystem(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)


def test_eigensystem_reconstruction_batch():
    """Reconstruction and orthonormality over 200 random Hermitian matrices."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        g = _random_complex(rng, n, n)
        h = (g + g.conj().T) / 2
        w, v = hermitian_eigensystem(h)
        assert np.all(np.diff(w) >= 0)
        recon = (v * w) @ v.conj().T
        scale = 1.0 + np.max(np.abs(h))
        assert np.max(np.abs(h - recon)) <= 1e-9 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10


def test_eigensystem_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        hermitian_eigensystem(np.ones((2, 3)))


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensystem_refuses_entries_near_the_float_limit_without_a_warning():
    h = np.array([[1e308, 1e308], [-1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigensystem(h)


def test_eigensystem_symmetrizes_within_tolerance():
    h = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]], dtype=complex)
    w, _ = hermitian_eigensystem(h)
    assert np.all(np.isreal(w))


# ---------------------------------------------------------------------------
# singular values and norms


def test_singular_values_diagonal():
    np.testing.assert_allclose(singular_values(np.diag([2.0, -3.0])), [3.0, 2.0])


def test_singular_values_rank_one():
    rng = np.random.default_rng(0)
    u = _random_complex(rng, 5, 1).ravel()
    v = _random_complex(rng, 4, 1).ravel()
    s = singular_values(np.outer(u, v.conj()))
    np.testing.assert_allclose(s[0], np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-12)
    np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)


def test_singular_values_dual_gram_oracle():
    """SVD agrees with the square roots of the eigenvalues of both Gram matrices."""
    rng = np.random.default_rng(3)
    a = _random_complex(rng, 4, 3)
    s = singular_values(a)
    right = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ a), 0, None))[::-1]
    left = np.sqrt(np.clip(np.linalg.eigvalsh(a @ a.conj().T), 0, None))[::-1][:3]
    np.testing.assert_allclose(s, right, atol=1e-10)
    np.testing.assert_allclose(s, left, atol=1e-10)


def test_singular_values_keeps_float64_real(monkeypatch):
    """Real float64 input reaches LAPACK real; anything else goes complex."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = np.random.default_rng(5)
    real = rng.standard_normal((2, 4, 3))
    np.testing.assert_allclose(singular_values(real), singular_values(real + 0j), atol=1e-12)
    singular_values([[1, 2], [3, 4]])
    singular_values(real.astype(np.float32))
    assert seen == [np.float64, np.complex128, np.complex128, np.complex128]


def test_singular_values_adjoint_invariant():
    rng = np.random.default_rng(4)
    a = _random_complex(rng, 5, 3)
    np.testing.assert_allclose(
        singular_values(a), singular_values(a.conj().T), atol=1e-10
    )


def test_trace_norm_identity():
    for d in range(2, 6):
        assert trace_norm(np.eye(d)) == pytest.approx(d, abs=1e-12)


def test_trace_norm_diag():
    assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_scaled_identity():
    # the realigned maximally entangled projector for d=2 is I/2
    assert trace_norm(np.eye(4) / 2) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_equals_hs_norm_iff_rank_one():
    rng = np.random.default_rng(5)
    u = _random_complex(rng, 4, 1).ravel()
    v = _random_complex(rng, 4, 1).ravel()
    rank_one = np.outer(u, v.conj())
    assert trace_norm(rank_one) == pytest.approx(hs_norm(rank_one), abs=1e-10)
    w = _random_complex(rng, 4, 1).ravel()
    x = _random_complex(rng, 4, 1).ravel()
    rank_two = rank_one + np.outer(w, x.conj())
    assert trace_norm(rank_two) > hs_norm(rank_two) + 1e-6


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(6)
    a = _random_complex(rng, 5, 5)
    reference = trace_norm(a)
    for k in range(10):
        u = random_unitary(5, seed=100 + k)
        v = random_unitary(5, seed=200 + k)
        assert trace_norm(u @ a @ v) == pytest.approx(reference, abs=1e-9)


def test_hs_norm_examples():
    assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert hs_norm(np.zeros((3, 3))) == 0.0


def test_hs_norm_matches_gram_trace():
    rng = np.random.default_rng(7)
    a = _random_complex(rng, 4, 6)
    assert hs_norm(a) == pytest.approx(
        np.sqrt(np.real(np.trace(a.conj().T @ a))), abs=1e-12
    )


# ---------------------------------------------------------------------------
# determinants


def test_determinant_examples():
    assert determinant(np.eye(3)) == pytest.approx(1.0)
    assert determinant(np.diag([2.0, 3.0])) == pytest.approx(6.0)
    assert determinant(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        determinant(np.ones((2, 3)))


def test_ferrers_examples():
    assert ferrers_determinant([5.0]) == pytest.approx(6.0)
    assert ferrers_determinant([1.0, 1.0]) == pytest.approx(
        determinant(np.array([[2.0, 1.0], [1.0, 2.0]]))
    )
    assert ferrers_determinant([1.0, 2.0, 3.0]) == pytest.approx(17.0)
    explicit = np.ones((3, 3)) + np.diag([1.0, 2.0, 3.0])
    assert ferrers_determinant([1.0, 2.0, 3.0]) == pytest.approx(determinant(explicit))


def test_ferrers_rejects_zero():
    with pytest.raises(ValueError, match="nonzero"):
        ferrers_determinant([1.0, 0.0])
    with pytest.raises(ValueError):
        ferrers_determinant([])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    coeffs=st.lists(
        st.tuples(
            st.floats(min_value=0.3, max_value=3.0),
            st.floats(min_value=0.0, max_value=2 * np.pi),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_ferrers_matches_elimination(coeffs):
    """Closed form equals the pivoted-elimination determinant for nonzero inputs."""
    a = np.array([r * np.exp(1j * phi) for r, phi in coeffs])
    explicit = np.ones((a.size, a.size), dtype=complex) + np.diag(a)
    closed = ferrers_determinant(a)
    reference = determinant(explicit)
    assert abs(closed - reference) <= 1e-10 * max(abs(reference), 1.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_trace_norm_dominates_hs_norm(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    a = _random_complex(rng, rows, cols)
    assert trace_norm(a) >= hs_norm(a) - 1e-12
    assert hs_norm(a) >= 0.0
    if rows == cols:
        assert trace_norm(a) >= abs(np.trace(a)) - 1e-12


def test_random_unitary_is_unitary_and_deterministic():
    u1 = random_unitary(4, seed=9)
    u2 = random_unitary(4, seed=9)
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-12)
