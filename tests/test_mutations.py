"""Standing mutations: each defect a measure could carry fails the oracles, each harmless
rearrangement passes them.

A mutation replaces one function on the module whose name the pipeline reads
when it runs: ``ccnr_tau``, ``ppt_min_eigenvalue`` and
``reduction_min_eigenvalue`` on ``ccnr.criteria``, which
:func:`~ccnr.criteria.report_stack` reads for every report, the partial
transpose ``_transposed_b`` there, and the realignment ``_realigned`` on the
``ccnr.realign`` module (``ccnr.realign`` itself is the function of that name).

The defects are a measure moved by ``1e-12 n`` either way on states of ``n``
rows, far inside the verdict guard yet ~4500 times the oracles' error bound
``n eps``, and a realignment that pairs the wrong indices.  The rearrangements that are
no defect are the realignment with both index pairs reversed, whose singular
values are the same, and the partial transpose on A, the transpose of the one on
B.  Each oracle runs on the seeded states of its own module at ``d = 2`` and
``3``.  A row names the oracles that must catch its defect, so an oracle that
loses its teeth to a later change of a bound or a drawn state fails here.
"""

import sys

import numpy as np
import pytest

import ccnr.criteria as criteria
from ccnr.states import _matrix
from test_floor_oracles import (assert_isotropic_reduction_floor, assert_isotropic_tau,
                                assert_pure_ppt_floor, assert_pure_tau, assert_werner_ppt_floor,
                                assert_werner_tau, _isotropic_grid, _werner_grid)
from test_general_state_oracles import (assert_above_both_twirls, assert_product_facts,
                                        assert_separable_facts, assert_unmoved_by_local_unitaries,
                                        product_pure_states, turned_states, _random_states,
                                        _separable_mixtures)

REALIGN = sys.modules["ccnr.realign"]
MEASURES = ("ccnr_tau", "ppt_min_eigenvalue", "reduction_min_eigenvalue")


def _schmidt(d: int) -> np.ndarray:
    """Distinct Schmidt probabilities ``1, 2, ..., d``, normalised."""
    return np.arange(1.0, d + 1.0) / (d * (d + 1) / 2)


ORACLES = {  # name: the oracle, run on its module's states at one d
    "product": lambda d: assert_product_facts(product_pure_states(d), d),
    "local unitaries": lambda d: assert_unmoved_by_local_unitaries(*turned_states(d), d),
    "separable": lambda d: assert_separable_facts(_separable_mixtures(d), d),
    "twirls": lambda d: assert_above_both_twirls(_random_states(d), d),
    "werner ppt": lambda d: assert_werner_ppt_floor(_werner_grid(d), d),
    "isotropic reduction": lambda d: assert_isotropic_reduction_floor(_isotropic_grid(d), d),
    "pure ppt": lambda d: assert_pure_ppt_floor(_schmidt(d), d),
    "werner tau": lambda d: assert_werner_tau(_werner_grid(d), d),
    "isotropic tau": lambda d: assert_isotropic_tau(_isotropic_grid(d), d),
    "pure tau": lambda d: assert_pure_tau(_schmidt(d), d, rotation_seed=4000 + d),
}
DIMS = (2, 3)


def _shifted(sign: int):
    """A measure moved by ``sign * 1e-12 n`` on states of ``n`` rows."""
    return lambda measure: lambda rhos: measure(rhos) + sign * 1e-12 * rhos.matrix.shape[-1]


def _swapped(*axes: int):
    """A realignment that swaps the given axes of the bipartite view ``(i, k, j, l)``."""
    return lambda _: lambda four: np.swapaxes(four, *axes)


def _transposed_a(_):
    """The partial transpose on A in place of the one on B."""
    return lambda four: _matrix(np.swapaxes(four, -4, -2))


# (id, module, function, mutant made from the original, the oracles that must catch it);
# a row that no oracle must catch is no defect, and passes every oracle.
MUTATIONS = [
    ("tau+", criteria, "ccnr_tau", _shifted(+1),
     {"product", "separable", "werner tau", "isotropic tau", "pure tau"}),
    ("tau-", criteria, "ccnr_tau", _shifted(-1),
     {"product", "werner tau", "isotropic tau", "pure tau"}),
    ("ppt+", criteria, "ppt_min_eigenvalue", _shifted(+1), {"product", "werner ppt", "pure ppt"}),
    ("ppt-", criteria, "ppt_min_eigenvalue", _shifted(-1),
     {"product", "separable", "werner ppt", "pure ppt"}),
    ("reduction+", criteria, "reduction_min_eigenvalue", _shifted(+1),
     {"product", "isotropic reduction"}),
    ("reduction-", criteria, "reduction_min_eigenvalue", _shifted(-1),
     {"product", "separable", "isotropic reduction"}),
    ("realign(-3,-1)", REALIGN, "_realigned", _swapped(-3, -1),
     {"product", "local unitaries", "werner tau", "isotropic tau", "pure tau"}),
    ("realign(-4,-1)", REALIGN, "_realigned", _swapped(-4, -1), set()),
    ("partial transpose on A", criteria, "_transposed_b", _transposed_a, set()),
]


def _failing(oracles) -> set[str]:
    """The named oracles that raise ``AssertionError`` at some d of ``DIMS``."""
    failing = set()
    for name in oracles:
        for d in DIMS:
            try:
                ORACLES[name](d)
            except AssertionError:
                failing.add(name)
    return failing


def _install(monkeypatch, module, name: str, mutate) -> list:
    """Replace ``module.name`` by its mutant; the list returned counts the mutant's calls."""
    calls = []
    mutant = mutate(getattr(module, name))

    def counted(*args):
        calls.append(None)
        return mutant(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_unmutated_oracles_pass():
    assert _failing(ORACLES) == set()


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[row[0] for row in MUTATIONS])
def test_each_defect_fails_its_oracles_and_each_rearrangement_passes_all(monkeypatch, mutation):
    _, module, name, mutate, catchers = mutation
    calls = _install(monkeypatch, module, name, mutate)
    if catchers:
        assert _failing(catchers) == catchers
    else:
        assert _failing(ORACLES) == set()
    assert calls  # the oracles ran the mutant, not a copy bound before the patch


def test_every_measure_a_report_runs_is_mutated_both_ways():
    shifted = [row[2] for row in MUTATIONS if row[1] is criteria and row[2] in MEASURES]
    assert sorted(shifted) == sorted(MEASURES * 2)


def test_a_report_runs_a_measure_replaced_on_the_criteria_module(monkeypatch):
    # A table of criteria frozen at import would run the original and still pass
    # the oracles a defect in the original would fail.
    calls = _install(monkeypatch, criteria, "ppt_min_eigenvalue", _shifted(-1))
    rho = product_pure_states(2, count=1)
    assert criteria.report_stack(rho).ppt_floor[0] < -1e-12 and len(calls) == 1
