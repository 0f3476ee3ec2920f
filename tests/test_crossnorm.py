"""Tests for the closed-form cross norms and the robustness bound."""

import math

import numpy as np
import pytest

from ccnr.crossnorm import (
    GammaValue,
    gamma_bell_diagonal_closed,
    gamma_isotropic_closed,
    gamma_pure,
    gamma_rank_one,
    gamma_werner_closed,
    is_separable_closed,
    robustness_lower_bound,
    robustness_pure_exact,
)
from ccnr.realign import (
    ccnr_tau,
    tau_bell_diagonal_closed,
    tau_isotropic_closed,
    tau_werner_closed,
)
from ccnr.states import PureState, max_entangled, pure_from_schmidt, random_pure


def test_gamma_rank_one_products():
    product = PureState([1, 0, 0, 0], 2, 2)
    assert gamma_rank_one(product, product) == pytest.approx(1.0, abs=1e-12)


def test_gamma_rank_one_balanced():
    psi = max_entangled(2)
    assert gamma_rank_one(psi, psi) == pytest.approx(2.0, abs=1e-12)


def test_gamma_rank_one_mixed_pair():
    product = PureState([1, 0, 0, 0], 2, 2)
    psi = max_entangled(2)
    assert gamma_rank_one(product, psi) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_gamma_rank_one_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        gamma_rank_one(max_entangled(2), max_entangled(3))


def test_gamma_pure_examples():
    assert gamma_pure(PureState([1, 0, 0, 0], 2, 2)).value == pytest.approx(1.0)
    for d in (2, 3, 4):
        assert gamma_pure(max_entangled(d)).value == pytest.approx(d, abs=1e-12)
    skewed = pure_from_schmidt([0.9, 0.1], 2, 2)
    assert gamma_pure(skewed).value == pytest.approx(1.6, abs=1e-12)
    assert gamma_pure(skewed).family == "pure"


def test_gamma_werner_closed():
    assert gamma_werner_closed(3, 0.5).value == pytest.approx(1.0)
    assert gamma_werner_closed(2, -1.0).value == pytest.approx(2.0)
    assert gamma_werner_closed(4, -0.25).value == pytest.approx(1.25)
    with pytest.raises(ValueError):
        gamma_werner_closed(2, 2.0)


def test_gamma_isotropic_closed():
    assert gamma_isotropic_closed(3, 0.25).value == pytest.approx(1.0)
    assert gamma_isotropic_closed(3, 1.0).value == pytest.approx(3.0)
    assert gamma_isotropic_closed(2, 0.75).value == pytest.approx(1.5)
    with pytest.raises(ValueError):
        gamma_isotropic_closed(2, -0.5)


def test_gamma_bell_diagonal_closed():
    assert gamma_bell_diagonal_closed([1, 0, 0, 0]).value == pytest.approx(2.0)
    assert gamma_bell_diagonal_closed([0.25] * 4).value == pytest.approx(1.0)
    assert gamma_bell_diagonal_closed([0.6, 0.2, 0.1, 0.1]).value == pytest.approx(1.2)


def test_robustness_lower_bound():
    assert robustness_lower_bound(GammaValue(1.0, "werner")) == 0.0
    assert robustness_lower_bound(gamma_werner_closed(2, -1.0)) == pytest.approx(1.0)
    assert robustness_lower_bound(gamma_isotropic_closed(3, 1.0)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        robustness_lower_bound(GammaValue(0.5, "pure"))


def test_robustness_lower_bound_elementwise():
    f = np.array([0.5, 0.0, -0.5, -1.0])
    bounds = robustness_lower_bound(gamma_werner_closed(3, f))
    assert isinstance(bounds, np.ndarray)
    for bound, one in zip(bounds, f):
        scalar = robustness_lower_bound(gamma_werner_closed(3, float(one)))
        assert type(scalar) is float
        assert scalar == bound == gamma_werner_closed(3, float(one)).value - 1.0
    with pytest.raises(ValueError, match="got 0.5$"):
        robustness_lower_bound(GammaValue(np.array([1.0, 0.5, 0.25]), "werner"))


def test_robustness_pure_exact():
    assert robustness_pure_exact(PureState([1, 0, 0, 0], 2, 2)) == pytest.approx(0.0, abs=1e-12)
    assert robustness_pure_exact(max_entangled(2)) == pytest.approx(1.0, abs=1e-12)
    assert robustness_pure_exact(pure_from_schmidt([0.9, 0.1], 2, 2)) == pytest.approx(
        0.6, abs=1e-12
    )


def test_robustness_pure_exact_is_the_bound_of_the_pure_gamma(monkeypatch):
    from ccnr import crossnorm

    for seed in range(5):
        psi = random_pure(3, 4, seed=seed)
        assert robustness_pure_exact(psi) == robustness_lower_bound(gamma_pure(psi))
    # The pure gamma reaches the robustness through the bound's rule, which refuses it below 1.
    monkeypatch.setattr(crossnorm, "gamma_pure", lambda psi: GammaValue(0.5, "pure"))
    with pytest.raises(ValueError, match="got 0.5$"):
        robustness_pure_exact(psi)


def test_is_separable_closed():
    assert is_separable_closed(gamma_werner_closed(5, 0.3))
    assert not is_separable_closed(gamma_isotropic_closed(2, 0.9))
    assert is_separable_closed(gamma_bell_diagonal_closed([0.5, 0.5, 0, 0]))


def test_is_separable_closed_elementwise():
    F = np.array([0.0, 0.5, 0.9, 1.0])
    verdicts = is_separable_closed(gamma_isotropic_closed(2, F))
    assert verdicts.dtype == bool
    np.testing.assert_array_equal(verdicts, [True, True, False, False])
    for verdict, one in zip(verdicts, F):
        scalar = is_separable_closed(gamma_isotropic_closed(2, float(one)))
        assert type(scalar) is bool and scalar == verdict


# ---------------------------------------------------------------------------
# relations between the closed forms and tau


def test_gamma_majorizes_tau_werner_isotropic():
    for d in (2, 3, 4, 5):
        for f in np.linspace(-1, 1, 21):
            assert gamma_werner_closed(d, f).value >= tau_werner_closed(d, f) - 1e-12
        for F in np.linspace(0, 1, 21):
            assert (
                gamma_isotropic_closed(d, F).value >= tau_isotropic_closed(d, F) - 1e-12
            )


def test_werner_criterion_exact_only_for_qubits():
    for f in np.linspace(-1, 1, 41):
        gamma_entangled = gamma_werner_closed(2, f).value > 1 + 1e-12
        tau_entangled = tau_werner_closed(2, f) > 1 + 1e-12
        assert gamma_entangled == tau_entangled
    # a qutrit witness that the criterion misses
    assert gamma_werner_closed(3, -1 / 6).value == pytest.approx(7 / 6)
    assert tau_werner_closed(3, -1 / 6) <= 1.0


def test_isotropic_criterion_complete():
    for d in (2, 3, 4, 5):
        for F in np.linspace(0, 1, 21):
            gamma_entangled = gamma_isotropic_closed(d, F).value > 1 + 1e-12
            tau_entangled = tau_isotropic_closed(d, F) > 1 + 1e-12
            assert gamma_entangled == tau_entangled


def test_bell_diagonal_gamma_vs_tau():
    rng = np.random.default_rng(23)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(4))
        gamma = gamma_bell_diagonal_closed(lam).value
        tau = tau_bell_diagonal_closed(lam)
        assert gamma >= tau - 1e-12
        if np.max(lam) >= 0.5:
            assert gamma == pytest.approx(tau, abs=1e-12)


def test_gamma_pure_matches_tau():
    for seed in range(20):
        psi = random_pure(2, 2, seed=seed)
        assert gamma_pure(psi).value == pytest.approx(
            ccnr_tau(psi.projector()), abs=1e-9
        )
