"""One owner per decision: each is written once in ``src/ccnr``.

A family domain, the verdict guard and the Hermitian part of a matrix each
have one place in the source; a second copy would drift from the first.
"""

import ast
import tokenize
from pathlib import Path

import pytest

import ccnr

SOURCES = sorted(Path(ccnr.__file__).parent.glob("*.py"))


def _tokens(path: Path) -> list[tokenize.TokenInfo]:
    with tokenize.open(path) as fh:
        return list(tokenize.generate_tokens(fh.readline))


def _string_literals(path: Path) -> list[str]:
    """The plain string literals of a file; f-strings are left out."""
    values = []
    for tok in _tokens(path):
        if tok.type == tokenize.STRING:
            try:
                values.append(ast.literal_eval(tok.string))
            except ValueError:
                pass
    return values


def test_the_scan_sees_the_sources():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize(
    "name", ["flip expectation", "fidelity", "mixing weight", "parameter", "bell sweep weight"]
)
def test_each_domain_name_is_written_once(name):
    assert sum(_string_literals(path).count(name) for path in SOURCES) == 1


def test_the_violation_guard_is_defined_once_and_read_only_by_the_verdict_rule():
    users = {path.name for path in SOURCES for tok in _tokens(path)
             if tok.type == tokenize.NAME and tok.string == "VIOLATION_GUARD"}
    assert users == {"criteria.py", "tolerances.py"}
    defined = [path.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "VIOLATION_GUARD" for t in node.targets)]
    assert defined == ["tolerances.py"]


def _symmetrisations(tree: ast.AST) -> list[int]:
    """Lines holding ``(a + b) / 2``, the form of ``(h + h^dag) / 2``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 2]


def test_one_symmetrisation_in_the_source():
    hits = [(path.name, line) for path in SOURCES
            for line in _symmetrisations(ast.parse(path.read_text(encoding="utf-8")))]
    assert [name for name, _ in hits] == ["linalg.py"]


def test_the_symmetrisation_scan_sees_one():
    assert _symmetrisations(ast.parse("m = (m + adjoint) / 2.0")) == [1]
