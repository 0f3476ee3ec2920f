"""One owner per decision: each is written once in ``src/ccnr``.

A family domain, the verdict guard, the reading of a closed-form gamma, the
PSD certificate, the Hermitian part of a matrix, the singular-value floor, the
equal-dimension refusal, the freezing of a state, the command line's
arguments, its reading of a state file and its ``name = value`` lines each
have one place in the source; a second copy would drift from the first.
"""

import ast
import builtins
import importlib
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import ccnr
import ccnr.cli
from ccnr.cli import build_parser, main, write_state_file
from ccnr.criteria import ppt_min_eigenvalue
from ccnr.crossnorm import gamma_pure
from ccnr.states import pure_from_schmidt, random_density, werner_state

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


def _files_naming(name: str) -> set[str]:
    return {path.name for path in SOURCES for tok in _tokens(path)
            if tok.type == tokenize.NAME and tok.string == name}


def _files_assigning(name: str) -> list[str]:
    return [path.name for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == name for t in node.targets)]


def test_the_violation_guard_is_defined_once_and_read_only_by_the_verdict_rule():
    assert _files_naming("VIOLATION_GUARD") == {"criteria.py", "tolerances.py"}
    assert _files_assigning("VIOLATION_GUARD") == ["tolerances.py"]


def _attributes_read(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_a_closed_gamma_is_read_by_one_rule_in_the_crossnorm_module():
    # Verdicts, robustness and separability convert GammaValue.value in one place.
    assert _files_naming("GAMMA_EQUALITY_TOL") == {"crossnorm.py", "tolerances.py"}
    assert _files_assigning("GAMMA_EQUALITY_TOL") == ["tolerances.py"]
    readers = {path.name for path in SOURCES
               if "value" in _attributes_read(ast.parse(path.read_text(encoding="utf-8")))}
    assert readers == {"crossnorm.py"}


def test_the_attribute_scan_sees_one():
    assert _attributes_read(ast.parse("closed = gamma.value[part]")) == {"value"}


def test_the_matrix_side_cap_is_defined_and_read_only_where_arrays_are_sized():
    assert _files_naming("MAX_MATRIX_SIDE") == {"states.py"}
    assert _files_assigning("MAX_MATRIX_SIDE") == ["states.py"]


def test_the_psd_certificate_is_one_cholesky_in_the_states_module():
    # Validation is the one Cholesky; its margin is read where it runs.
    assert _files_naming("cholesky") == {"states.py"}
    assert _files_naming("CHOLESKY_MARGIN") == {"states.py", "tolerances.py"}
    assert _files_assigning("CHOLESKY_MARGIN") == ["tolerances.py"]


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


def _repr_renderings(tree: ast.AST) -> list[int]:
    """Lines naming ``repr`` or holding a ``%r`` format."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "repr"
                  or isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "%r" in node.value)


def test_state_file_numbers_are_rendered_by_repr_in_one_place():
    # f"{x!r}" in messages is not a number of a state file, and not a hit.
    tree = ast.parse((Path(ccnr.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_json_rows")
    lines = _repr_renderings(tree)
    assert len(lines) == 1 and helper.lineno <= lines[0] <= helper.end_lineno


def test_the_repr_scan_sees_one():
    assert _repr_renderings(ast.parse("a = list(map(repr, x))\nb = '%r' % y")) == [1, 2]


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_the_singular_value_floor_is_read_by_one_thin_svd_in_the_states_module():
    # schmidt_decompose and operator_schmidt drop the same small singular values.
    assert _files_naming("SV_FLOOR") == {"states.py", "tolerances.py"}
    assert _files_assigning("SV_FLOOR") == ["tolerances.py"]
    assert _files_naming("svd") == {"linalg.py", "states.py"}


def _dim_comparisons(tree: ast.AST) -> list[int]:
    """Lines comparing a ``dim_a`` with a ``dim_b``."""
    def name(node):
        return getattr(node, "attr", getattr(node, "id", None))

    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and {"dim_a", "dim_b"} <= {name(side) for side in [node.left, *node.comparators]}]


def test_equal_local_dimensions_are_required_in_one_place():
    # The twirls and realign_trace take C^d (x) C^d only, refused by one helper.
    hits = [path.name for path in SOURCES for _ in _dim_comparisons(_tree(path))]
    assert hits == ["states.py"]


def test_the_dimension_comparison_scan_sees_one():
    tree = ast.parse("if rho.dim_a != rho.dim_b:\n    ok = dim_a == dim_b")
    assert _dim_comparisons(tree) == [1, 2]


def _attribute_setters(tree: ast.AST) -> list[str]:
    """The name of the function around each ``object.__setattr__`` call."""
    return [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
            and getattr(node.func.value, "id", None) == "object"]


def test_a_state_is_frozen_by_one_method():
    # DensityOperator and PureState close __init__ by the same lines.
    assert [name for path in SOURCES for name in _attribute_setters(_tree(path))] == ["_freeze"]


def test_the_setter_scan_sees_one():
    assert _attribute_setters(ast.parse("def f(s):\n    object.__setattr__(s, 'a', 1)")) == ["f"]


def _none_tests(tree: ast.AST, attr: str) -> list[int]:
    """Lines comparing an attribute ``attr`` with ``None``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and getattr(node.left, "attr", None) == attr
            and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)]


def test_the_command_line_declares_each_argument_once_and_argparse_requires_out():
    tree = _tree(Path(ccnr.__file__).parent / "cli.py")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "add_argument"]
    declared = [call.args[0].value for call in calls]
    assert declared.count("path") == 1 and declared.count("--dims") == 2  # and gen random
    outs = [call for call in calls if call.args[0].value == "--out"]
    assert len(outs) == 2 and not _none_tests(tree, "out")  # gen and sweep
    assert all(any(k.arg == "required" and k.value.value is True for k in call.keywords)
               for call in outs)
    # JSON numbers arrive as floats, so no array of Python objects is converted.
    assert "astype" not in _attributes_read(tree)


def _owners(tree: ast.Module, hit) -> list[str]:
    """The top-level function or class around each node where ``hit`` holds; ``<module>``
    outside one."""
    return [stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for stmt in tree.body for node in ast.walk(stmt) if hit(node)]


def _calls_to(name: str):
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _prints_an_assignment(node: ast.AST) -> bool:
    """A ``print`` whose arguments hold a string with `` = ``, as ``name = value`` lines do."""
    return _calls_to("print")(node) and any(
        isinstance(part, ast.Constant) and " = " in str(part.value)
        for arg in node.args for part in ast.walk(arg))


def test_the_command_line_loads_a_state_file_in_one_function():
    assert _owners(_tree(Path(ccnr.__file__).parent / "cli.py"), _calls_to("load_state_file")) \
        == ["_read"]


def test_the_call_scan_sees_one():
    tree = ast.parse("def f(p):\n    return load_state_file(p)\nx = cli.load_state_file(q)")
    assert _owners(tree, _calls_to("load_state_file")) == ["f", "<module>"]


def test_the_command_line_prints_name_value_lines_from_one_function():
    assert _owners(_tree(Path(ccnr.__file__).parent / "cli.py"), _prints_an_assignment) \
        == ["_print"]


@pytest.mark.parametrize("line", [
    'print(f"tau = {_fmt(x)}")', 'print("coefficients = " + " ".join(p))', "print(f'{k} = {v}')",
])
def test_the_assignment_print_scan_sees_one(line):
    tree = ast.parse(f"def show(x):\n    {line}\n    print(f'wrote {{x}}')")
    assert _owners(tree, _prints_an_assignment) == ["show"]


def _record_calls(monkeypatch, owner, name: str) -> list:
    """The arguments of each call to ``owner.name`` made from now until the test ends."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def svd_calls(monkeypatch) -> list:
    """The arguments of each ``np.linalg.svd`` call made while the test runs."""
    return _record_calls(monkeypatch, np.linalg, "svd")


@pytest.fixture
def eigvalsh_calls(monkeypatch) -> list:
    """The arguments of each ``np.linalg.eigvalsh`` call made while the test runs."""
    return _record_calls(monkeypatch, np.linalg, "eigvalsh")


def test_schmidt_prints_gamma_and_robustness_from_one_decomposition(tmp_path, svd_calls):
    # One SVD lists the Schmidt coefficients and one gives gamma, read again for the robustness.
    path = tmp_path / "pure.json"
    write_state_file(path, pure_from_schmidt([0.5, 0.3, 0.2], 3, 4))
    assert main(["schmidt", str(path)]) == 0
    assert len(svd_calls) == 2


def test_the_svd_count_sees_one(svd_calls):
    gamma_pure(pure_from_schmidt([0.5, 0.5], 2, 2))
    assert len(svd_calls) == 1


@pytest.mark.parametrize("d", [3, 12])
def test_oschmidt_prints_tau_from_its_svd_and_computes_no_floor(tmp_path, d, svd_calls,
                                                                 eigvalsh_calls):
    # One real SVD for tau and one complex SVD for the operator Schmidt data;
    # validation certifies a full-rank state by a Cholesky.
    path = tmp_path / "rho.json"
    write_state_file(path, random_density(d, d, seed=d))
    svd_calls.clear()
    eigvalsh_calls.clear()
    assert main(["oschmidt", str(path)]) == 0
    assert len(eigvalsh_calls) == 0 and len(svd_calls) == 2


def test_the_eigvalsh_count_sees_one(eigvalsh_calls):
    rho = werner_state(2, -0.5)
    eigvalsh_calls.clear()
    ppt_min_eigenvalue(rho)
    assert len(eigvalsh_calls) == 1


@pytest.fixture
def parser_builds(monkeypatch) -> list:
    """Each build of the command-line parser while the test runs, from a cache emptied first."""
    ccnr.cli._parser.cache_clear()
    return _record_calls(monkeypatch, ccnr.cli, "build_parser")


def test_one_process_builds_the_command_line_parser_once(tmp_path, parser_builds):
    for k in range(2):
        assert main(["gen", "werner", "--d", "2", "--param", "0.5", "--out",
                     str(tmp_path / f"{k}.json")]) == 0
    assert len(parser_builds) == 1


def test_the_parser_build_count_sees_each_fresh_parser(parser_builds):
    assert ccnr.cli.build_parser() is not ccnr.cli.build_parser()
    assert len(parser_builds) == 2


def _fresh_refusal(argv: list[str], capsys) -> str:
    """What a parser built now prints to stderr when it refuses ``argv``, not counted as a build."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    return capsys.readouterr().err


# gen's usage line wraps at 40 columns and not at 200.
_REFUSED = ["gen", "werner", "--d", "2"]


def test_the_parser_built_once_prints_usage_at_the_width_of_each_call(monkeypatch, capsys,
                                                                      parser_builds):
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(_REFUSED) == 2
        assert capsys.readouterr().err == _fresh_refusal(_REFUSED, capsys)
    assert len(parser_builds) == 1


def test_main_runs_the_command_found_on_the_module_when_it_is_called(tmp_path, monkeypatch,
                                                                   parser_builds):
    state = str(tmp_path / "w.json")
    assert main(["gen", "werner", "--d", "2", "--param", "0.5", "--out", state]) == 0
    # The parser is built; a command replaced after that is still the one that runs.
    monkeypatch.setattr(ccnr.cli, "cmd_check", lambda args: 7)
    assert main(["check", state]) == 7
    assert len(parser_builds) == 1


def _bound_commands(tree: ast.AST) -> list[int]:
    """Lines binding a function into a parser, ``set_defaults(func=...)``, or reading ``args.func``."""
    return [node.lineno for node in ast.walk(tree)
            if _calls_to("set_defaults")(node) and any(k.arg == "func" for k in node.keywords)
            or isinstance(node, ast.Attribute) and node.attr == "func"
            and getattr(node.value, "id", None) == "args"]


def test_the_command_line_binds_no_command_into_its_parser():
    # main finds cmd_<command> when it runs, as _families finds the family functions.
    assert _bound_commands(_tree(Path(ccnr.__file__).parent / "cli.py")) == []


def test_the_command_binding_scan_sees_each_form():
    tree = ast.parse("check.set_defaults(func=cmd_check)\nreturn args.func(args)\n"
                     "check.set_defaults(command='check')\nf = node.func")
    assert _bound_commands(tree) == [1, 2]


def test_the_usage_comparison_sees_the_width(monkeypatch, capsys):
    refusals = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        refusals.append(_fresh_refusal(_REFUSED, capsys))
    assert refusals[0] != refusals[1] and "--out OUT" in refusals[1]


def test_the_none_test_scan_sees_one():
    assert _none_tests(ast.parse("if args.out is None:\n    pass"), "out") == [1]


# The public API is stated once: each module's ``__all__``, re-exported by the package.
API_MODULES = [importlib.import_module(f"ccnr.{name}")
               for name in ("linalg", "states", "realign", "crossnorm", "criteria")]


def test_the_package_exports_the_module_lists_joined():
    joined = [name for module in API_MODULES for name in module.__all__]
    assert ccnr.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_every_exported_name_resolves_on_the_package():
    from ccnr import report_stack, werner_stack

    assert report_stack is ccnr.criteria.report_stack
    assert werner_stack is ccnr.states.werner_stack
    for module in API_MODULES:
        for name in module.__all__:
            assert getattr(ccnr, name) is getattr(module, name), name


def test_the_name_realign_binds_the_function_as_the_readme_says():
    import ccnr.realign as bound
    from ccnr.realign import ccnr_tau

    module = sys.modules["ccnr.realign"]
    assert bound is ccnr.realign is module.realign
    assert not hasattr(bound, "ccnr_tau")
    assert ccnr_tau is module.ccnr_tau


@pytest.mark.parametrize("module", API_MODULES, ids=lambda module: module.__name__)
def test_each_module_lists_every_public_function_and_class_it_defines(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    assert defined <= set(module.__all__)


def test_the_package_init_holds_no_second_list_of_names():
    init = Path(ccnr.__file__)
    imported = [alias.name for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert set(imported) <= {"*", "linalg", "states", "realign", "crossnorm", "criteria"}
    assert _string_literals(init) == [ccnr.__doc__, ccnr.__version__]


# The composite index a * d_b + b is spelt once, by the reshape in
# states._bipartite_tensor; operators are permutations of its axes.
LOCAL_DIMS = {"d", "dim_a", "dim_b", "d_a", "d_b"}


def _is_local_dim(node: ast.AST) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) in LOCAL_DIMS


def _index_arithmetic(tree: ast.AST) -> list[int]:
    """Lines adding to a product inside a subscript or to a local dimension (``i * d + j``,
    ``:: d + 1``, ``* (d + 1)``)."""
    subscripted = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.Subscript)
                   for inner in ast.walk(node.slice)}
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            continue
        sides = (node.left, node.right)
        products = [s for s in sides if isinstance(s, ast.BinOp) and isinstance(s.op, ast.Mult)]
        stride = any(map(_is_local_dim, sides)) and any(getattr(s, "value", 0) == 1 for s in sides)
        scaled = any(_is_local_dim(factor) for p in products for factor in (p.left, p.right))
        if stride or scaled or products and id(node) in subscripted:
            hits.append(node.lineno)
    return hits


def test_no_composite_index_is_computed_in_the_source():
    assert [(path.name, line) for path in SOURCES for line in _index_arithmetic(_tree(path))] == []


@pytest.mark.parametrize("line", [
    "f[i * d + j, j * d + i] = 1.0", "amps[:: d + 1] = x", "diag = np.arange(d) * (d + 1)",
    "s[a * 3 + b, a * 3 + b] = 1.0", "amps[i * rho.dim_b + i] = w", "k = row * dim_b + col",
])
def test_the_index_arithmetic_scan_sees_one(line):
    assert set(_index_arithmetic(ast.parse(line))) == {1}


def test_the_index_arithmetic_scan_passes_the_psd_shift():
    assert _index_arithmetic(ast.parse("m.reshape(s + (n * n,))[..., :: n + 1] += x")) == []


def _trailing_axes(shape: ast.AST, positional: int) -> int:
    """How many axes a reshape to ``shape`` names after a leading ``*lead`` or ``shape[:-2]``."""
    if positional > 1:
        return positional
    if isinstance(shape, ast.Tuple):
        return sum(not isinstance(e, ast.Starred) for e in shape.elts)
    if isinstance(shape, ast.BinOp) and isinstance(shape.op, ast.Add):
        return _trailing_axes(shape.right, 1)
    return 0


def _four_axis_reshapes(tree: ast.AST) -> list[str]:
    """The function around each reshape to four or more named axes."""
    hits = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "reshape":
                method = getattr(node.func.value, "id", None) != "np"
                args = node.args if method else node.args[1:]
                if args and _trailing_axes(args[0], len(args)) >= 4:
                    hits.append(func.name)
    return hits


def test_the_bipartite_view_is_reshaped_in_one_function():
    assert [(path.name, name) for path in SOURCES
            for name in _four_axis_reshapes(_tree(path))] == [("states.py", "_bipartite_tensor")]


@pytest.mark.parametrize("body", [
    "return m.reshape(m.shape[:-2] + (a, b, a, b))", "return m.reshape(a, b, a, b)",
    "return np.reshape(m, (*lead, a, b, a, b))",
])
def test_the_reshape_scan_sees_one(body):
    assert _four_axis_reshapes(ast.parse(f"def view(m):\n    {body}")) == ["view"]
    flat = "def flat(m):\n    return m.reshape((*lead, p * q, r * s))"
    assert _four_axis_reshapes(ast.parse(flat)) == []


def _entry_loops(tree: ast.AST) -> list[int]:
    """Lines of ``for`` loops that assign to an entry of an array."""
    return [loop.lineno for loop in ast.walk(tree) if isinstance(loop, ast.For)
            for node in ast.walk(loop) if isinstance(node, (ast.Assign, ast.AugAssign))
            and any(isinstance(t, ast.Subscript)
                    for t in getattr(node, "targets", [getattr(node, "target", None)]))]


def test_no_loop_writes_state_entries_one_at_a_time():
    assert _entry_loops(_tree(Path(ccnr.__file__).parent / "states.py")) == []


def test_the_entry_loop_scan_sees_one():
    assert _entry_loops(ast.parse("for i, w in enumerate(p):\n    amps[i] = w")) == [1]


# Admission: a state-like argument meets one type check, and an integer one conversion.
STATE_TYPES = {"DensityOperator", "PureState", "GammaValue"}


def _state_type_test(node: ast.AST) -> bool:
    """An ``isinstance`` against a state type, or against a type held in a name."""
    if not (_calls_to("isinstance")(node) and len(node.args) == 2):
        return False
    kind = node.args[1]
    named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(kind)}
    return bool(named & STATE_TYPES) or isinstance(kind, ast.Name) and kind.id not in dir(builtins)


def _in_sources(hit) -> list[tuple[str, str]]:
    return sorted((path.name, owner) for path in SOURCES for owner in _owners(_tree(path), hit))


def test_a_state_like_argument_meets_one_type_check():
    # write_state_file dispatches on the two kinds it writes.
    assert _in_sources(_state_type_test) == [("cli.py", "write_state_file")] * 2 + [
        ("states.py", "_check_kind")]


def test_the_state_type_scan_sees_each_form():
    tree = ast.parse("def f(x):\n    return isinstance(x, ccnr.PureState)\n"
                     "def g(x, kind):\n    return isinstance(x, kind) or isinstance(x, (int, GammaValue))\n"
                     "def h(x):\n    return isinstance(x, bool) or isinstance(x, (list, tuple))\n")
    assert _owners(tree, _state_type_test) == ["f", "g", "g"]


def _index_call(node: ast.AST) -> bool:
    """A call of ``operator.index``, as ``index(x)`` or ``operator.index(x)``, or of ``__index__``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (getattr(func, "id", None) == "index" or getattr(func, "attr", None) == "__index__"
            or getattr(func, "attr", None) == "index" and getattr(func.value, "id", None) == "operator")


def test_an_integer_is_converted_by_one_function():
    assert _in_sources(_index_call) == [("states.py", "_index")]


def test_the_index_call_scan_sees_each_form():
    tree = ast.parse("def f(v):\n    return index(v)\n"
                     "def g(v):\n    return operator.index(v) + v.__index__()\n"
                     "def h(s):\n    return s.index('a')\n")
    assert _owners(tree, _index_call) == ["f", "g", "g"]


def _catches_type_error(node: ast.AST) -> bool:
    """An ``except`` clause that catches ``TypeError``: by name, in a tuple, or by catching all."""
    if not isinstance(node, ast.ExceptHandler):
        return False
    named = {getattr(n, "id", None) for n in ast.walk(node.type)} if node.type else {"TypeError"}
    return bool(named & {"TypeError", "Exception", "BaseException"})


def test_only_the_integer_conversion_catches_a_type_error_in_the_states_module():
    states = Path(ccnr.__file__).parent / "states.py"
    assert _owners(_tree(states), _catches_type_error) == ["_index"]


def test_the_type_error_scan_sees_each_form():
    tree = ast.parse("def f():\n    try:\n        pass\n    except (ValueError, TypeError):\n        pass\n"
                     "def g():\n    try:\n        pass\n    except ValueError:\n        pass\n"
                     "    except:\n        pass\n"
                     "def h():\n    try:\n        pass\n    except np.linalg.LinAlgError:\n        pass\n")
    assert _owners(tree, _catches_type_error) == ["f", "g"]


# Admission of numbers: one function converts a value to floats or complex numbers.
_INEXACT = {"float", "complex", "float64", "complex128"}


def _number_conversion(node: ast.AST) -> bool:
    """A float or complex conversion of a value, or a caught ``OverflowError``.

    That is ``np.asarray`` or ``np.array`` with an inexact dtype, or ``.astype``
    to one.  An array built from a list or tuple display is a constructor, as
    ``np.eye(..., dtype=complex)`` is, and not a conversion.
    """
    if isinstance(node, ast.ExceptHandler):
        named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)} \
            if node.type else {"OverflowError"}
        return bool(named & {"OverflowError", "ArithmeticError", "Exception", "BaseException"})
    if not isinstance(node, ast.Call):
        return False
    func = getattr(node.func, "attr", None)
    dtypes = [keyword.value for keyword in node.keywords if keyword.arg == "dtype"]
    if func == "astype":
        dtypes += node.args[:1]
    elif func in ("asarray", "array") and node.args \
            and not isinstance(node.args[0], (ast.List, ast.Tuple)):
        dtypes += node.args[1:2]
    else:
        return False
    return any(getattr(d, "id", getattr(d, "attr", None)) in _INEXACT for d in dtypes)


def _finiteness_test(node: ast.AST) -> bool:
    """``isfinite`` or ``nextafter``, of numpy or ``math`` or imported bare, called or passed."""
    return isinstance(node, ast.Attribute) and node.attr in ("isfinite", "nextafter") \
        or isinstance(node, ast.Name) and node.id in ("isfinite", "nextafter")


def test_finiteness_is_tested_by_the_one_conversion():
    # Every named refusal of NaN or inf (a tolerance, a family parameter, the sweep range,
    # "weights", "a cross norm") is _numbers'.  The state-file reader's JSON-integer hook
    # tests math.isinf, its own rule for integer literals past the float range.
    assert _in_sources(_finiteness_test) == [("linalg.py", "_numbers")]


def test_the_isfinite_scan_sees_each_form():
    tree = ast.parse("def f(x):\n    return np.isfinite(x).all()\n"
                     "def g(x):\n    return x[~numpy.isfinite(x)]\n"
                     "def h(x):\n    return math.isfinite(x) and all(map(np.isfinite, x))\n"
                     "def k(x):\n    return x <= math.nextafter(math.inf, 0.0) and isfinite(x)\n"
                     "def m(x):\n    return math.isinf(x) or finite(x)\n")
    assert _owners(tree, _finiteness_test) == ["f", "g", "h", "h", "k", "k"]


def _unnamed_numbers(node: ast.AST) -> bool:
    """A call of ``_numbers`` that passes no name for its numbers, or passes ``None``."""
    if not _calls_to("_numbers")(node):
        return False
    names = node.args[2:] + [keyword.value for keyword in node.keywords if keyword.arg == "name"]
    return not names or any(isinstance(n, ast.Constant) and n.value is None for n in names)


def test_every_number_is_admitted_by_name_but_an_invariant_residual():
    # A Hermiticity residual may overflow to inf and must still raise as the invariant,
    # so it meets no finiteness test and so no name.
    assert _in_sources(_unnamed_numbers) == [("states.py", "InvariantViolation")]
    admissions = set(_in_sources(_calls_to("_numbers")))
    assert {("cli.py", "_parse_range"), ("states.py", "_in_domain")} <= admissions


def test_the_unnamed_numbers_scan_sees_each_form():
    tree = ast.parse("def f(x):\n    return _numbers(x, float)\n"
                     "def g(x):\n    return _numbers(x, float, None) + _numbers(x, name=None)\n"
                     "def h(x, name):\n    return linalg._numbers(x, complex, name) + "
                     "_numbers(x, float, 'weights') + _numbers(x, float, name='weights')\n")
    assert _owners(tree, _unnamed_numbers) == ["f", "g", "g"]


def _unchecked_seed(node: ast.AST) -> bool:
    """A ``default_rng`` call given a seed that is neither ``None`` nor an ``_index`` call."""
    def checked(seed: ast.AST) -> bool:
        if isinstance(seed, ast.IfExp):
            return checked(seed.body) and checked(seed.orelse)
        return isinstance(seed, ast.Constant) and seed.value is None or _calls_to("_index")(seed)

    if not _calls_to("default_rng")(node):
        return False
    return not all(map(checked, node.args + [keyword.value for keyword in node.keywords]))


def test_every_seed_is_an_integer_by_the_one_conversion():
    # One generator for the three random functions, which refuses a negative seed by name.
    assert _in_sources(_calls_to("default_rng")) == [("states.py", "_rng")]
    assert _in_sources(_calls_to("_rng")) == [
        ("linalg.py", "random_unitary"), ("states.py", "random_density"),
        ("states.py", "random_pure")]
    assert _in_sources(_unchecked_seed) == []


def test_the_seed_scan_sees_each_form():
    tree = ast.parse("def f(seed):\n    return np.random.default_rng(seed)\n"
                     "def g(s):\n    return default_rng(int(s)), default_rng(seed=s)\n"
                     "def h(s):\n    return default_rng(None if s is None else s)\n"
                     "def k(s):\n    return np.random.default_rng(None if s is None else "
                     "_index(s, 'seed')), default_rng(), default_rng(_index(s, 'seed'))\n")
    assert _owners(tree, _unchecked_seed) == ["f", "g", "g", "h"]


def test_a_number_is_converted_to_floats_by_one_function():
    assert _in_sources(_number_conversion) == [("linalg.py", "_numbers")]


def test_the_number_conversion_scan_sees_each_form():
    tree = ast.parse(
        "def f(x):\n    return np.asarray(x, float) + np.array(x, dtype=np.complex128)\n"
        "def g(x):\n    return x.astype(complex)\n"
        "def h(x):\n    try:\n        return float(x)\n    except (ValueError, OverflowError):\n"
        "        pass\n"
        "def k(x):\n    try:\n        return float(x)\n    except:\n        pass\n"
        "def m(d, x):\n    return np.eye(d, dtype=complex) + np.array([1.0, 0.0], dtype=complex)"
        " + np.asarray(x) + np.asarray(x, dtype=object) + x.astype(int)\n"
        "def n(x):\n    try:\n        return float(x)\n    except ValueError:\n        pass\n")
    assert _owners(tree, _number_conversion) == ["f", "f", "g", "h", "k"]


# The validation tolerances are constants: no parameter, option or text names a settable one,
# and PSD_TOL is read by the certificate's shift and by the constructor's eigenvalue test.
_TOLERANCE_KNOBS = ("tol_psd", "tol_herm", "tol-psd", "tol-herm")


def _knob_tokens(path: Path) -> list[int]:
    """Lines of ``path`` holding a token (a name, a string or a comment) that spells a knob."""
    return [tok.start[0] for tok in _tokens(path) if any(k in tok.string for k in _TOLERANCE_KNOBS)]


def _reads_the_psd_tolerance(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "PSD_TOL" and isinstance(node.ctx, ast.Load)


def test_no_validation_tolerance_can_be_set():
    assert [(path.name, line) for path in SOURCES for line in _knob_tokens(path)] == []
    assert _files_naming("PSD_TOL") == {"states.py", "tolerances.py"}
    assert set(_in_sources(_reads_the_psd_tolerance)) == {
        ("states.py", "_psd_shift"), ("states.py", "DensityOperator")}


def test_the_tolerance_scans_see_each_form(tmp_path):
    source = tmp_path / "knobs.py"
    source.write_text("def f(x, tol_psd=PSD_TOL):\n    return x  # tol_herm\n"
                      "p.add_argument('--tol-psd')\nclass C:\n    limit = -PSD_TOL\n",
                      encoding="utf-8")
    assert _knob_tokens(source) == [1, 2, 3]
    assert _owners(ast.parse(source.read_text(encoding="utf-8")), _reads_the_psd_tolerance) \
        == ["f", "C"]
