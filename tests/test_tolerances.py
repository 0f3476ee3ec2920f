"""The tolerance contract: every value lives in ``ccnr.tolerances`` and nowhere else."""

import ast
import tokenize
from pathlib import Path

import pytest

import ccnr
from ccnr import criteria, crossnorm, linalg, states, tolerances

PINNED = {
    "HERMITICITY_TOL": 1e-10,
    "TRACE_TOL": 1e-10,
    "PSD_TOL": 1e-10,
    "CHOLESKY_MARGIN": 2.0,
    "NORM_TOL": 1e-12,
    "SV_FLOOR": 1e-12,
    "VIOLATION_GUARD": 1e-9,
    "GAMMA_EQUALITY_TOL": 1e-12,
    "WEIGHT_SLACK": 1e-12,
    "CLIP_GUARD": 1e-8,
    "GRID_SLACK": 1e-9,
}


def test_every_tolerance_is_pinned():
    values = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert values == PINNED


@pytest.mark.parametrize("module, old, new", [
    (states, "HERM_TOL", "HERMITICITY_TOL"),
    (states, "TRACE_TOL", "TRACE_TOL"),
    (states, "PSD_TOL", "PSD_TOL"),
    (states, "NORM_TOL", "NORM_TOL"),
    (states, "_SV_FLOOR", "SV_FLOOR"),
    (linalg, "HERMITICITY_TOL", "HERMITICITY_TOL"),
    (crossnorm, "SEPARABILITY_TOL", "GAMMA_EQUALITY_TOL"),
    (criteria, "VIOLATION_GUARD", "VIOLATION_GUARD"),
], ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_old_names_are_the_new_objects(module, old, new):
    assert getattr(module, old) is getattr(tolerances, new)


def test_old_names_stay_exported():
    assert "VIOLATION_GUARD" in criteria.__all__
    assert "HERMITICITY_TOL" in linalg.__all__


def _small_float_literals(path: Path) -> list[str]:
    with tokenize.open(path) as fh:
        numbers = [tok for tok in tokenize.generate_tokens(fh.readline)
                   if tok.type == tokenize.NUMBER]
    return [f"{path.name}:{tok.start[0]}: {tok.string}" for tok in numbers
            if isinstance(value := ast.literal_eval(tok.string), float) and 0 < value < 1e-6]


def test_no_tolerance_literal_outside_the_tolerances_module():
    sources = [path for path in Path(ccnr.__file__).parent.glob("*.py")
               if path.name != "tolerances.py"]
    assert len(sources) >= 7
    assert [hit for path in sources for hit in _small_float_literals(path)] == []


def test_the_scan_sees_a_tolerance_literal():
    assert _small_float_literals(Path(tolerances.__file__))
