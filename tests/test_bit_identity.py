"""Bit-for-bit guards on the sweep output and the closed forms behind it.

The sweep CSV prints 12 significant digits, so a last-bit drift in a closed
form would not show in it; the closed forms are therefore compared with the
scalar formulas they replaced, value by value, including the sign of zero.
"""

import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ccnr.cli import main
from ccnr.crossnorm import (
    gamma_bell_diagonal_closed,
    gamma_isotropic_closed,
    gamma_werner_closed,
)
from ccnr.realign import (
    tau_bell_diagonal_closed,
    tau_isotropic_closed,
    tau_qubit_family_closed,
    tau_qutrit_family_closed,
    tau_werner_closed,
)
from ccnr.states import bell_spectrum

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

# The benchmark's 21-point grids, one per family.
TINY_SWEEPS = [
    "werner --d 3 --range=-1:1:0.1",
    "isotropic --d 4 --range=0:1:0.05",
    "bell --range=0:1:0.05",
    "qubit --range=0:1:0.05",
    "qutrit --range=2:5:0.15",
]


@pytest.mark.parametrize("sweep", TINY_SWEEPS)
def test_sweep_csv_matches_the_benchmark_golden_hash(tmp_path, sweep):
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", *shlex.split(sweep), "--out", str(out_file)]) == 0
    assert len(out_file.read_text(encoding="utf-8").splitlines()) == 22
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == json.loads(GOLDEN.read_text(encoding="utf-8"))[sweep]


# The scalar closed forms as they were written before they took arrays; each
# takes one Python float (a Bell spectrum for the Bell-diagonal ones).  Where
# they square with ``** 2`` (C ``pow``), an array ``x ** 2`` or ``x * x`` drifts
# in the last bit on a few points in ten thousand, hence the long grids.


def _tau_werner(d, f):
    return 2.0 / d - f if f <= 1.0 / d else f


def _tau_isotropic(d, F):
    return 2.0 / d - d * F if F < 1.0 / (d * d) else d * F


def _tau_bell(lam):
    l0, l1, l2, l3 = bell_spectrum(lam).tolist()
    return 0.5 * (
        1.0
        + abs(l0 + l3 - l1 - l2)
        + abs(l1 - l2)
        + abs(l0 - l3)
        + abs(abs(l0 - l3) - abs(l1 - l2))
    )


def _tau_qubit(p):
    cross = 0.5 * p * math.sqrt(p * p + (1.0 - p) ** 2)
    base = 0.5 * p * p + 0.25 * (1.0 - p) ** 2
    return 1.0 - p + math.sqrt(base + cross) + math.sqrt(max(base - cross, 0.0))


def _tau_qutrit(alpha):
    return 19.0 / 21.0 + (2.0 / 21.0) * math.sqrt(19.0 - 15.0 * alpha + 3.0 * alpha**2)


def _gamma_werner(d, f):
    return 1.0 if f >= 0.0 else 1.0 - f


def _gamma_isotropic(d, F):
    return 1.0 if F <= 1.0 / d else d * F


def _gamma_bell(lam):
    peak = max(bell_spectrum(lam).tolist())
    return 2.0 * peak if peak > 0.5 else 1.0


def _around(*points):
    """Each point with its two floating-point neighbours."""
    steps = (-math.inf, None, math.inf)
    return [p if to is None else float(np.nextafter(p, to)) for p in points for to in steps]


def _dense(lo, hi, *branch_points, n=4000):
    """A dense grid, random points, and the branch points and domain ends with neighbours."""
    rng = np.random.default_rng(7)
    inside = [x for x in _around(lo, hi, *branch_points) if lo <= x <= hi]
    return np.linspace(lo, hi, n + 1).tolist() + rng.uniform(lo, hi, n).tolist() + inside


def _bell_sweep(t):
    rest = (1.0 - t) / 3.0
    return [t, rest, rest, rest]


def _bell_points():
    """Sweep spectra, random spectra and spectra whose peak sits at or next to 1/2."""
    rng = np.random.default_rng(11)
    peaks = [[p, 0.5 - p + 0.25, 0.25, 0.0] for p in _around(0.5)]
    return np.array(
        [_bell_sweep(t) for t in _dense(0.0, 1.0, 0.5, 0.25)]
        + rng.dirichlet(np.ones(4), 4000).tolist()
        + peaks
        + [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 1.0]]
    )


CLOSED_FORMS = {
    f"{name}-d{d}": (array, reference, grid)
    for d in (2, 3, 4, 7)
    for name, array, reference, grid in [
        ("tau_werner", lambda f, d=d: tau_werner_closed(d, f),
         lambda f, d=d: _tau_werner(d, f), _dense(-1.0, 1.0, 1.0 / d, 0.0)),
        ("gamma_werner", lambda f, d=d: gamma_werner_closed(d, f).value,
         lambda f, d=d: _gamma_werner(d, f), _dense(-1.0, 1.0, 1.0 / d, 0.0, -0.0)),
        ("tau_isotropic", lambda F, d=d: tau_isotropic_closed(d, F),
         lambda F, d=d: _tau_isotropic(d, F), _dense(0.0, 1.0, 1.0 / d**2, 1.0 / d)),
        ("gamma_isotropic", lambda F, d=d: gamma_isotropic_closed(d, F).value,
         lambda F, d=d: _gamma_isotropic(d, F), _dense(0.0, 1.0, 1.0 / d**2, 1.0 / d)),
    ]
}
CLOSED_FORMS["tau_bell"] = (tau_bell_diagonal_closed, _tau_bell, _bell_points())
CLOSED_FORMS["gamma_bell"] = (
    lambda lam: gamma_bell_diagonal_closed(lam).value, _gamma_bell, _bell_points()
)
CLOSED_FORMS["tau_qubit"] = (tau_qubit_family_closed, _tau_qubit, _dense(0.0, 1.0, n=40000))
CLOSED_FORMS["tau_qutrit"] = (tau_qutrit_family_closed, _tau_qutrit, _dense(2.0, 5.0, n=40000))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_arrays_and_scalars_keep_the_scalar_bits(name):
    array, reference, grid = CLOSED_FORMS[name]
    points = list(grid)
    expected = [reference(x) for x in points]
    assert np.array_equal(_bits(array(np.asarray(grid))), _bits(expected))
    scalars = [array(x) for x in points[::40] + points[-40:]]
    assert all(type(value) is float for value in scalars)
    assert np.array_equal(_bits(scalars), _bits(expected[::40] + expected[-40:]))


@pytest.mark.parametrize("call, message", [
    (lambda: tau_werner_closed(3, [0.5, 1.5, 2.0]), "expectation must lie in [-1, 1], got 1.5"),
    (lambda: gamma_werner_closed(3, np.array([-1.0, np.nan])), "flip expectation must be finite"),
    (lambda: tau_isotropic_closed(3, [0.5, -0.25]), "fidelity must lie in [0, 1], got -0.25"),
    (lambda: gamma_isotropic_closed(3, 1.25), "fidelity must lie in [0, 1], got 1.25"),
    (lambda: tau_qubit_family_closed([0.0, 1.0, 1.125]), "weight must lie in [0, 1], got 1.125"),
    (lambda: tau_qutrit_family_closed([2.0, np.inf]), "parameter must be finite"),
    (lambda: tau_bell_diagonal_closed([[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0]]), "sum to 1, got 1.5"),
    (lambda: gamma_bell_diagonal_closed([[1.0, 0, 0, 0], [1.5, -0.5, 0, 0]]), "got min -0.5"),
])
def test_closed_form_arrays_name_the_first_value_outside_the_domain(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
