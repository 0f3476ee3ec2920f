"""Exact facts on general states, at d = 2 to 12 and 24, within the bound of the closed-form oracles.

A product pure state ``|a><a| (x) |b><b|`` has ``tau = 1`` exactly: its
realignment is the rank-one ``vec(|a><a|) vec(|b><b|)^T`` of trace norm
``|| |a><a| ||_2 || |b><b| ||_2 = 1``.  Both its floors are exactly 0: the
partial transpose is the projector ``|a><a| (x) |b*><b*|``, and the reduction
operators are ``|a><a| (x) (I - |b><b|)`` and ``(I - |a><a|) (x) |b><b|``, all
positive semidefinite and singular.  The check is two-sided, since a shift
that lowers ``tau`` or raises a floor hides on the separable side of every
one-sided test.

Local unitaries ``U (x) V`` move none of the three numbers: the realignment of
``(U (x) V) rho (U (x) V)^dag`` is ``(U (x) conj(U)) R(rho) (V (x) conj(V))^T``,
its partial transpose is a conjugation by ``U (x) conj(V)``, and its marginals
are conjugations by ``U`` and ``V``.

Every separable state has cross norm 1, so ``tau <= 1`` and both floors are
at least 0: a mixture of product pure states reads ``undecided``.

A twirl is a mixture of local unitary conjugations, ``U (x) U`` for the Werner
family and ``U (x) conj(U)`` for the isotropic one.  The realignment is
linear and the trace norm is convex and invariant under them, so ``tau`` of a
state is at least ``tau`` of its twirl: ``tau_werner_closed(d, tr(rho F))``
and ``tau_isotropic_closed(d, <Phi+|rho|Phi+>)``.

The bound is :func:`test_floor_oracles.error_bound`, relative to
``max(1, tau)`` for ``tau`` as that module scales it.  Each fact is an
``assert_*`` function of the states and ``d``, which reads the numbers through
:func:`~ccnr.criteria.report_stack`, so ``tests/test_mutations.py`` can run it
on a measure replaced on ``ccnr.criteria``.
"""

import numpy as np
import pytest

from ccnr.criteria import report_stack
from ccnr.linalg import random_unitary
from ccnr.realign import tau_isotropic_closed, tau_werner_closed
from ccnr.states import DensityOperator, fhat_operator, flip_operator, random_density
from test_floor_oracles import _tau_error_bound, error_bound

DIMS = range(2, 13)
STATES = 4  # per local dimension


def _haar_vectors(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` Haar-random unit vectors of ``C^d``, one per row."""
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def product_pure_states(d: int, count: int = STATES) -> DensityOperator:
    """``count`` seeded product pure states ``|a><a| (x) |b><b|`` on ``C^d (x) C^d``."""
    rng = np.random.default_rng(3000 + d)
    a, b = _haar_vectors(rng, count, d), _haar_vectors(rng, count, d)
    psi = (a[:, :, None] * b[:, None, :]).reshape(count, d * d)
    return DensityOperator(psi[:, :, None] * psi[:, None, :].conj(), d, d)


def assert_product_facts(rhos: DensityOperator, d: int) -> None:
    """Product pure states have ``tau`` 1 and both floors 0, within the bound, two-sided."""
    report = report_stack(rhos)
    assert np.max(np.abs(report.tau - 1.0)) <= error_bound(d)
    assert np.max(np.abs(report.ppt_floor)) <= error_bound(d)
    assert np.max(np.abs(report.reduction_floor)) <= error_bound(d)


@pytest.mark.parametrize("d", DIMS)
def test_a_product_pure_state_has_tau_one_and_both_floors_zero(d):
    assert_product_facts(product_pure_states(d), d)


def assert_unmoved_by_local_unitaries(rhos: DensityOperator, turns, d: int) -> None:
    """Turning state ``k`` by the local unitary ``turns[k]`` moves none of its three numbers."""
    before = report_stack(rhos)
    after = report_stack(DensityOperator(turns @ rhos.matrix @ np.conj(turns).swapaxes(-2, -1),
                                         d, d))
    assert np.all(np.abs(after.tau - before.tau) <= _tau_error_bound(d, before.tau))
    assert np.max(np.abs(after.ppt_floor - before.ppt_floor)) <= error_bound(d)
    assert np.max(np.abs(after.reduction_floor - before.reduction_floor)) <= error_bound(d)


def turned_states(d: int) -> tuple[DensityOperator, np.ndarray]:
    """``STATES`` seeded random states and a seeded local unitary ``U (x) V`` for each."""
    rhos = [random_density(d, d, seed=3100 + STATES * d + k).matrix for k in range(STATES)]
    turns = [np.kron(random_unitary(d, seed=3200 + 2 * k), random_unitary(d, seed=3201 + 2 * k))
             for k in range(STATES)]
    return DensityOperator(np.stack(rhos), d, d), np.stack(turns)


@pytest.mark.parametrize("d", DIMS)
def test_local_unitaries_move_neither_tau_nor_a_floor(d):
    assert_unmoved_by_local_unitaries(*turned_states(d), d)


MIXTURE_DIMS = (2, 3, 4, 6, 8, 12)
MIXTURES = 8  # per local dimension


def _product_vectors(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` Haar product vectors ``a (x) b`` of ``C^d (x) C^d``, one per row."""
    a, b = _haar_vectors(rng, count, d), _haar_vectors(rng, count, d)
    return (a[:, :, None] * b[:, None, :]).reshape(count, d * d)


def _separable_mixtures(d: int) -> DensityOperator:
    """Seeded mixtures of 1, 2, n, 2n and four random counts in ``[1, 2n]`` of product vectors."""
    rng = np.random.default_rng(3300 + d)
    n = d * d
    counts = [1, 2, n, 2 * n, *rng.integers(1, 2 * n + 1, size=MIXTURES - 4)]
    mixtures = []
    for count in counts:
        psi = _product_vectors(rng, count, d)
        mixtures.append((psi.T * rng.dirichlet(np.ones(count))) @ psi.conj())
    return DensityOperator(np.stack(mixtures), d, d)


def _twirl_taus(rhos: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """``tau`` of each state's Werner twirl and of its isotropic twirl, from the closed forms."""
    d = rhos.dim_a
    # tr(rho A) = sum_ij rho_ij A_ji; rounding may pass a domain end by an ulp.
    flip = np.einsum("...ij,ji->...", rhos.matrix, flip_operator(d)).real
    fidelity = np.einsum("...ij,ji->...", rhos.matrix, fhat_operator(d)).real / d
    return (tau_werner_closed(d, np.clip(flip, -1.0, 1.0)),
            tau_isotropic_closed(d, np.clip(fidelity, 0.0, 1.0)))


def assert_separable_facts(rhos: DensityOperator, d: int) -> None:
    """Separable states read ``undecided``, with ``tau`` at most 1 and both floors at least 0,
    within the bound."""
    report = report_stack(rhos)
    assert np.all(report.verdict == "undecided")
    assert np.max(report.tau) <= 1.0 + error_bound(d)
    assert np.min(report.ppt_floor) >= -error_bound(d)
    assert np.min(report.reduction_floor) >= -error_bound(d)


@pytest.mark.parametrize("d", MIXTURE_DIMS)
def test_a_separable_mixture_is_undecided_below_the_bound_and_above_both_floors(d):
    assert_separable_facts(_separable_mixtures(d), d)


def _random_states(d: int) -> DensityOperator:
    """Seeded ``random_density`` states of rank 1, 2 and ``n``."""
    ranks = (1, 2, d * d)
    return DensityOperator(np.stack([random_density(d, d, rank, seed=3400 + 4 * d + k).matrix
                                     for k, rank in enumerate(ranks)]), d, d)


def assert_above_both_twirls(rhos: DensityOperator, d: int) -> None:
    """``tau`` of each state is at least ``tau`` of its Werner and of its isotropic twirl."""
    tau = report_stack(rhos).tau
    for twirled in _twirl_taus(rhos):
        assert np.all(tau >= twirled - _tau_error_bound(d, twirled))


@pytest.mark.parametrize("states", [_separable_mixtures, _random_states],
                         ids=["separable", "random"])
@pytest.mark.parametrize("d", MIXTURE_DIMS)
def test_tau_is_at_least_tau_of_either_twirl(d, states):
    assert_above_both_twirls(states(d), d)


def test_at_d_24_a_product_state_and_a_rotated_random_state_keep_the_exact_facts():
    d = 24
    rng = np.random.default_rng(3524)
    psi = _product_vectors(rng, 1, d)[0]
    rho = random_density(d, d, seed=3525)
    turn = np.kron(random_unitary(d, seed=3526), random_unitary(d, seed=3527))
    assert_product_facts(DensityOperator(np.outer(psi, psi.conj()), d, d), d)
    assert_unmoved_by_local_unitaries(rho, turn, d)
