"""The bipartite index layout: fixed operators keep their bits, raw input is admitted by one rule.

Every fixed operator is an index permutation of the row-major layout, in
which ``|a (x) b>`` sits at ``a * d_b + b``.  The references below spell that
layout out entry by entry, as the library once did, and each operator must
match its reference bit for bit, signs of zero included.
"""

import importlib
import math

import numpy as np
import pytest

from ccnr.criteria import full_report, partial_transpose_b
from ccnr.realign import operator_schmidt, realign, realign_matrix, realign_trace
from ccnr.states import (
    fhat_operator,
    flip_operator,
    max_entangled,
    partial_trace_a,
    partial_trace_b,
    pure_from_schmidt,
    qutrit_family_stack,
    random_density,
    twirl_uu,
    twirl_uubar,
)

DIMS = range(2, 33)


def _flip(d):
    f = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def _fhat(d):
    m = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)
    m[np.ix_(diag, diag)] = 1.0
    return m


def _max_entangled_amplitudes(d):
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / math.sqrt(d)
    return amps / np.linalg.norm(amps)


def _schmidt_amplitudes(p, dim_a, dim_b):
    amps = np.zeros(dim_a * dim_b, dtype=complex)
    for i, weight in enumerate(p):
        amps[i * dim_b + i] = math.sqrt(weight)
    return amps / np.linalg.norm(amps)


def _qutrit_stack(alpha):
    alpha = np.asarray(alpha, dtype=float)[:, None, None]
    psi = _max_entangled_amplitudes(3)
    proj = np.outer(psi, psi.conj())
    sigma_plus = np.zeros((9, 9), dtype=complex)
    sigma_minus = np.zeros((9, 9), dtype=complex)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        sigma_plus[a * 3 + b, a * 3 + b] = 1.0 / 3.0
        sigma_minus[b * 3 + a, b * 3 + a] = 1.0 / 3.0
    return (2.0 / 7.0) * proj + (alpha / 7.0) * sigma_plus + ((5.0 - alpha) / 7.0) * sigma_minus


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_the_fixed_operators_keep_their_bits(d):
    assert _same_bits(flip_operator(d), _flip(d))
    assert _same_bits(fhat_operator(d), _fhat(d))
    assert _same_bits(max_entangled(d).amplitudes, _max_entangled_amplitudes(d))


@pytest.mark.parametrize("d", DIMS)
def test_schmidt_vectors_keep_their_bits(d):
    rng = np.random.default_rng(d)
    zeros = [[1.0, -0.0], [0.0, 1.0]] + [[0.5, 0.0, 0.5]] * (d > 2)  # weights with signed zeros
    for dim_b in {d, min(d + 3, 1024 // d)}:
        p = rng.random(d)
        head = p[: d // 2] / p[: d // 2].sum()
        for weights in [p / p.sum(), head, *zeros]:
            built = pure_from_schmidt(weights, d, dim_b).amplitudes
            assert _same_bits(built, _schmidt_amplitudes(weights, d, dim_b)), weights


def test_the_qutrit_family_keeps_its_bits():
    alpha = np.linspace(2.0, 5.0, 301)
    assert _same_bits(qutrit_family_stack(alpha), _qutrit_stack(alpha))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [realign_matrix, partial_transpose_b])
def test_raw_entry_points_refuse_non_finite_matrices(entry, bad):
    matrix = np.eye(4, dtype=complex)
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        entry(matrix, 2, 2)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        entry(np.full((3, 4, 4), bad), 2, 2)


@pytest.mark.parametrize("dims, message", [
    ((-2, -2), "dims (-2, -2) must be positive"),
    ((2.0, 2.0), "dims must be integers, got (2.0, 2.0)"),
    ((True, 4), "dims must be integers, got (True, 4)"),
    (("2", "2"), "dims must be integers, got ('2', '2')"),
], ids=["negative", "float", "bool", "str"])
@pytest.mark.parametrize("entry", [realign_matrix, partial_transpose_b])
def test_raw_entry_points_refuse_bad_dims_by_the_state_rule(entry, dims, message):
    with pytest.raises(ValueError) as excinfo:
        entry(np.eye(4, dtype=complex), *dims)
    assert str(excinfo.value) == message


def test_a_state_is_read_without_the_raw_admission(monkeypatch):
    def refuse(*args):
        raise AssertionError("a validated state went through the raw-matrix admission")

    for name in ("realign", "criteria"):  # ccnr.realign is the function of that name
        monkeypatch.setattr(importlib.import_module(f"ccnr.{name}"), "_raw_tensor", refuse)
    rho, square = random_density(2, 3, seed=4), random_density(3, 3, seed=5)
    full_report(rho), realign(rho), operator_schmidt(rho)
    partial_trace_a(rho), partial_trace_b(rho)
    realign_trace(square), twirl_uu(square), twirl_uubar(square)
