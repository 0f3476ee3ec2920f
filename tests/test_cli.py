"""Tests for the command-line interface and the state-file format."""

import collections
import contextlib
import io
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnr.cli import CSV_HEADER, load_state_file, main, write_state_file
from ccnr.states import max_entangled, qubit_family
from ccnr.states import bell_diagonal_state, isotropic_state, qutrit_family, werner_state


def _write_max_entangled_density(path):
    rho = max_entangled(2).projector()
    payload = {
        "kind": "density",
        "dims": [2, 2],
        "matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_check_max_entangled(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    _write_max_entangled_density(state_file)
    assert main(["check", str(state_file), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tau"] == pytest.approx(2.0, abs=1e-12)
    assert report["tau_violated"] is True
    assert report["ppt_floor"] == pytest.approx(-0.5, abs=1e-12)
    assert report["verdict"] == "entangled_certified"


def test_check_text_output(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    _write_max_entangled_density(state_file)
    assert main(["check", str(state_file)]) == 0
    assert capsys.readouterr().out == (
        "tau = 2\n"
        "tau_violated = true\n"
        "ppt_floor = -0.5\n"
        "ppt_violated = true\n"
        "reduction_floor = -0.5\n"
        "reduction_violated = true\n"
        "verdict = entangled_certified\n"
    )


def test_check_exit_code_zero_for_undecided(tmp_path, capsys):
    state_file = tmp_path / "mixed.json"
    payload = {
        "kind": "density",
        "dims": [2, 2],
        "matrix": [
            [[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)
        ],
    }
    state_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["check", str(state_file), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tau"] == pytest.approx(0.5, abs=1e-12)
    assert report["verdict"] == "undecided"


def test_check_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2


def test_check_invariant_violation(tmp_path, capsys):
    state_file = tmp_path / "nonpsd.json"
    diag = [0.75, 0.75, -0.25, -0.25]
    payload = {
        "kind": "density",
        "dims": [2, 2],
        "matrix": [
            [[diag[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)
        ],
    }
    state_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["check", str(state_file)]) == 3
    err = capsys.readouterr().err
    assert "positive_semidefinite" in err
    assert "residual" in err


def _write_diagonal_density(path, diag):
    payload = {
        "kind": "density",
        "dims": [2, 2],
        "matrix": [[[diag[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


# The validation tolerances are the package's constants: argparse refuses a flag that would
# set one, with exit 2, before the file is read, so a file that is no state is refused the same.
def _refuses_the_flag(capsys, argv: list[str]) -> None:
    """``argv`` is a command, its file and the flag."""
    assert main(argv) == 2
    flag = " ".join(argv[2:])
    assert capsys.readouterr().err.endswith(f"ccnr: error: unrecognized arguments: {flag}\n")


@pytest.mark.parametrize("flag", ["--tol-psd", "--tol-herm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("state", ["non_state", "bell"])
def test_check_refuses_a_tolerance_that_is_not_finite_and_nonnegative(
    tmp_path, capsys, flag, value, state
):
    state_file = tmp_path / f"{state}.json"
    if state == "bell":
        _write_max_entangled_density(state_file)
    else:
        _write_diagonal_density(state_file, [1.5, -0.5, 0.0, 0.0])
    _refuses_the_flag(capsys, ["check", str(state_file), f"{flag}={value}"])


@pytest.mark.parametrize("command", ["check", "oschmidt"])
@pytest.mark.parametrize("flag", ["--tol-psd", "--tol-herm"])
def test_a_state_past_the_eigenvalue_band_is_refused_and_no_flag_widens_it(tmp_path, capsys,
                                                                         command, flag):
    state_file = tmp_path / "slightly_negative.json"
    _write_diagonal_density(state_file, [0.5 + 5e-9, 0.5, 0.0, -5e-9])
    assert main([command, str(state_file)]) == 3
    capsys.readouterr()
    _refuses_the_flag(capsys, [command, str(state_file), flag, "1e-8"])


@pytest.mark.parametrize("flag", ["--tol-psd", "--tol-herm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_check_refuses_a_bad_tolerance_on_a_pure_file(tmp_path, capsys, flag, value):
    state_file = tmp_path / "pure.json"
    write_state_file(state_file, max_entangled(2))
    _refuses_the_flag(capsys, ["check", str(state_file), f"{flag}={value}"])


def test_check_passes_its_tolerances_to_a_pure_file(tmp_path, capsys):
    # check validates a pure file's projector with the tolerances of a density file: the
    # projector of a vector with a negative rounding eigenvalue is accepted.
    from ccnr.states import random_pure

    state_file = tmp_path / "pure.json"
    for seed in range(40):
        write_state_file(state_file, random_pure(2, 3, seed=seed))
        smallest = np.linalg.eigvalsh(load_state_file(state_file)[1].projector().matrix)[0]
        if smallest < 0:
            break
    else:
        pytest.fail("no projector with a negative rounding eigenvalue among the seeds")
    assert main(["check", str(state_file), "--json"]) == 0
    from_pure = capsys.readouterr().out
    write_state_file(tmp_path / "projector.json", load_state_file(state_file)[1].projector())
    assert main(["check", str(tmp_path / "projector.json"), "--json"]) == 0
    assert capsys.readouterr().out == from_pure


@pytest.mark.parametrize("keyword", ["tol_psd", "tol_herm"])
def test_a_state_file_is_read_with_no_tolerance_of_the_caller(tmp_path, keyword):
    state_file = tmp_path / "bell.json"
    _write_max_entangled_density(state_file)
    with pytest.raises(TypeError, match=f"got an unexpected keyword argument '{keyword}'$"):
        load_state_file(state_file, **{keyword: 1e-9})


def test_check_dims_override(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    rho = max_entangled(2).projector()
    payload = {
        "kind": "density",
        "dims": [4, 1],
        "matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix],
    }
    state_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["check", str(state_file), "--dims", "2,2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tau"] == pytest.approx(2.0, abs=1e-12)


def test_schmidt_command(tmp_path, capsys):
    state_file = tmp_path / "pure.json"
    psi = max_entangled(2)
    payload = {
        "kind": "pure",
        "dims": [2, 2],
        "matrix": [[z.real, z.imag] for z in psi.amplitudes],
    }
    state_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["schmidt", str(state_file)]) == 0
    out = capsys.readouterr().out
    assert "schmidt_coefficients = 0.5 0.5" in out
    assert "gamma = 2" in out
    assert "robustness = 1" in out


def test_schmidt_product_state(tmp_path, capsys):
    state_file = tmp_path / "product.json"
    payload = {
        "kind": "pure",
        "dims": [2, 2],
        "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }
    state_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["schmidt", str(state_file)]) == 0
    out = capsys.readouterr().out
    assert "schmidt_coefficients = 1" in out
    assert "gamma = 1" in out
    assert "robustness = 0" in out


def test_schmidt_rejects_density_file(tmp_path, capsys):
    state_file = tmp_path / "bell.json"
    _write_max_entangled_density(state_file)
    assert main(["schmidt", str(state_file)]) == 2


def test_oschmidt_command(tmp_path, capsys):
    state_file = tmp_path / "qubit.json"
    write_state_file(state_file, qubit_family(0.5))
    assert main(["oschmidt", str(state_file)]) == 0
    out = capsys.readouterr().out
    assert "tau = 1.20710678119" in out
    assert "tau_criterion = violated" in out


def test_oschmidt_rejects_pure_file(tmp_path):
    state_file = tmp_path / "pure.json"
    write_state_file(state_file, max_entangled(2))
    assert main(["oschmidt", str(state_file)]) == 2


@pytest.mark.parametrize(
    "argv,closed",
    [
        (["gen", "werner", "--d", "2", "--param", "-0.5"], 1.5),
        (["gen", "isotropic", "--d", "3", "--param", "0.8"], 2.4),
        (["gen", "bell", "--param", "0.6,0.2,0.1,0.1"], 1.2),
        (["gen", "qubit", "--param", "0.5"], (1 + math.sqrt(2)) / 2),
        (["gen", "qutrit", "--param", "4"], 19 / 21 + 2 * math.sqrt(7) / 21),
    ],
)
def test_gen_check_round_trip(tmp_path, capsys, argv, closed):
    out_file = tmp_path / "state.json"
    assert main(argv + ["--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["check", str(out_file), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tau"] == pytest.approx(closed, abs=1e-9)


def test_gen_random_is_seeded(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["gen", "random", "--dims", "2,3", "--rank", "2", "--seed", "7",
                 "--out", str(first)]) == 0
    assert main(["gen", "random", "--dims", "2,3", "--rank", "2", "--seed", "7",
                 "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gen_rejects_bad_parameters(tmp_path, capsys):
    assert main(["gen", "werner", "--d", "2", "--param", "3",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["gen", "bell", "--param", "0.5,0.5",
                 "--out", str(tmp_path / "y.json")]) == 2
    assert main(["gen", "werner", "--param", "0.5",
                 "--out", str(tmp_path / "z.json")]) == 2


def test_gen_refuses_nan_bell_weights(tmp_path, capsys):
    out = tmp_path / "bell.json"
    assert main(["gen", "bell", "--param", "nan,0.5,0.25,0.25", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: weights must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, stray", [
    (["werner", "--d", "2", "--param", "0.5", "--rank", "3", "--seed", "1", "--dims", "3,3"],
     "--dims, --rank, --seed"),
    (["random", "--dims", "2,2", "--d", "5", "--param", "0.3"], "--d, --param"),
    (["bell", "--param", "0.4,0.2,0.2,0.2", "--seed", "3"], "--seed"),
], ids=["werner", "random", "bell"])
def test_gen_refuses_options_its_family_does_not_take(tmp_path, capsys, argv, stray):
    assert main(["gen", *argv, "--out", str(tmp_path / "x.json")]) == 2
    assert f"takes no {stray}\n" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# gen checks --param and its arity before the local dimension.
@pytest.mark.parametrize("argv, message", [
    (["gen", "werner"], "family 'werner' needs --param"),
    (["gen", "werner", "--param", "0.5"], "family 'werner' needs --d"),
    (["gen", "bell", "--d", "3", "--param", "0.5"],
     "family 'bell' needs four comma-separated weights"),
    (["gen", "qutrit", "--d", "2"], "family 'qutrit' needs --param"),
    (["sweep", "werner", "--range=0:2:0.5"], "family 'werner' needs --d"),
    (["sweep", "qutrit", "--d", "2", "--range=0:2:0.5"],
     "family 'qutrit' is fixed at local dimension 3"),
])
def test_family_options_are_refused_in_order(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "F")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["gen", "werner", "--d", "2", "--param", "0.5"],
    ["gen", "random", "--dims", "2,2"],
    ["sweep", "werner", "--d", "2", "--range=0:1:0.5"],
], ids=["gen", "gen-random", "sweep"])
def test_a_missing_out_is_refused_by_argparse_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                 argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["check", "schmidt", "oschmidt"])
@pytest.mark.parametrize("dims", ["1,2,3", "a,b", "2"])
def test_dims_option_refuses_anything_but_two_integers_by_its_own_message(capsys, command, dims):
    assert main([command, "state.json", "--dims", dims]) == 2
    err = capsys.readouterr().err
    assert f"argument --dims: dims must look like 'A,B', got '{dims}'\n" in err
    assert "_parse_dims" not in err


def test_check_of_a_state_file_holding_nan_exits_2(tmp_path, capsys):
    state_file = tmp_path / "nan.json"
    matrix = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [math.nan, 0.0]]]
    state_file.write_text(json.dumps({"kind": "density", "dims": [1, 2], "matrix": matrix}),
                          encoding="utf-8")
    assert main(["check", str(state_file)]) == 2
    assert capsys.readouterr().err == "error: density matrix entries must be finite\n"


# Per family: --d, a gen --param, a 21-point sweep grid, and the functions
# ccnr.cli binds for it: the builder, the closed tau and the closed gamma.
_FAMILY_RUNS = {
    "werner": (["--d", "3"], "0.2", "-1:1:0.1",
               ["werner_stack", "tau_werner_closed", "gamma_werner_closed"]),
    "isotropic": (["--d", "3"], "0.5", "0:1:0.05",
                  ["isotropic_stack", "tau_isotropic_closed", "gamma_isotropic_closed"]),
    "bell": ([], "0.7,0.1,0.1,0.1", "0:1:0.05",
             ["bell_diagonal_stack", "tau_bell_diagonal_closed", "gamma_bell_diagonal_closed"]),
    "qubit": ([], "0.3", "0:1:0.05", ["qubit_family_stack", "tau_qubit_family_closed"]),
    "qutrit": ([], "4", "2:5:0.15", ["qutrit_family_stack", "tau_qutrit_family_closed"]),
}


def _family_outputs(directory) -> dict:
    """The bytes that gen and a 21-point sweep of each family write, by file name."""
    directory.mkdir()
    written = {}
    for family, (fixed, param, grid, _) in _FAMILY_RUNS.items():
        for command, argv in [("gen", ["--param", param]), ("sweep", [f"--range={grid}"])]:
            out = directory / f"{command}-{family}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, family, *fixed, *argv, "--out", str(out)]) == 0
            written[out.name] = out.read_bytes()
    return written


def test_gen_and_sweep_call_each_family_function_by_its_name_on_the_cli(tmp_path, monkeypatch):
    import ccnr.cli

    plain = _family_outputs(tmp_path / "plain")
    calls, expected = collections.Counter(), collections.Counter()
    for *_, (build, *closed) in _FAMILY_RUNS.values():
        expected.update([build, build, *closed])  # gen, and the sweep's one block
        for name in (build, *closed):
            def forward(*args, fn=getattr(ccnr.cli, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(ccnr.cli, name, forward)
    assert _family_outputs(tmp_path / "forwarded") == plain
    assert len(expected) == 13
    assert calls == expected


def test_gen_file_round_trips_exactly(tmp_path):
    out_file = tmp_path / "werner.json"
    assert main(["gen", "werner", "--d", "3", "--param", "-0.25",
                 "--out", str(out_file)]) == 0
    kind, rho = load_state_file(out_file)
    assert kind == "density"
    from ccnr.realign import ccnr_tau
    from ccnr.states import werner_state

    assert ccnr_tau(rho) == pytest.approx(ccnr_tau(werner_state(3, -0.25)), abs=1e-12)


def test_sweep_csv_shape_and_values(tmp_path):
    out_file = tmp_path / "werner.csv"
    assert main(["sweep", "werner", "--d", "2", "--range=-1:1:0.5",
                 "--out", str(out_file)]) == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-1.0)
    assert float(first[1]) == pytest.approx(2.0, abs=1e-9)
    assert float(first[2]) == pytest.approx(2.0)
    assert float(first[3]) == pytest.approx(2.0)
    assert first[6] == "entangled_certified"
    # numeric and closed tau agree on every row
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(float(cells[2]), abs=1e-9)


def test_sweep_qutrit_boundary_row(tmp_path):
    out_file = tmp_path / "qutrit.csv"
    assert main(["sweep", "qutrit", "--range", "2:5:0.5",
                 "--out", str(out_file)]) == 0
    rows = out_file.read_text(encoding="utf-8").splitlines()[1:]
    by_param = {row.split(",")[0]: row.split(",") for row in rows}
    assert by_param["3"][2] == "1"
    # gamma column is empty: no closed form for this family
    assert by_param["3"][3] == ""


def test_sweep_isotropic_separable_row(tmp_path):
    out_file = tmp_path / "iso.csv"
    assert main(["sweep", "isotropic", "--d", "3", "--range", "0:1:0.25",
                 "--out", str(out_file)]) == 0
    rows = {line.split(",")[0]: line.split(",") for line in
            out_file.read_text(encoding="utf-8").splitlines()[1:]}
    assert rows["0.25"][3] == "1"  # F <= 1/d: closed-form gamma certifies separability
    assert rows["0.25"][6] == "separable_certified"


def test_sweep_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["sweep", "isotropic", "--d", "3", "--range", "0:1:0.1"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")
    assert b"\r" not in first.read_bytes()


def test_sweep_invalid_range(tmp_path, capsys):
    assert main(["sweep", "werner", "--d", "2", "--range", "1:0:0.5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["sweep", "werner", "--d", "2", "--range", "0:1:-0.1",
                 "--out", str(tmp_path / "y.csv")]) == 2
    assert main(["sweep", "werner", "--d", "2", "--range", "zero:1:0.1",
                 "--out", str(tmp_path / "z.csv")]) == 2


def test_sweep_unknown_family_rejected_by_parser(tmp_path, capsys):
    assert main(["sweep", "ghz", "--range", "0:1:0.5",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_state_file_serializer_round_trip(tmp_path):
    psi = max_entangled(3)
    path = tmp_path / "psi.json"
    write_state_file(path, psi)
    kind, loaded = load_state_file(path)
    assert kind == "pure"
    np.testing.assert_array_equal(loaded.amplitudes, psi.amplitudes)


def test_state_file_refuses_a_stack(tmp_path):
    from ccnr.states import DensityOperator, werner_stack

    path = tmp_path / "stack.json"
    with pytest.raises(ValueError, match=r"one state, got shape \(3, 4, 4\)"):
        write_state_file(path, DensityOperator(werner_stack(2, [0.5, -0.5, 0.1]), 2, 2))
    assert not path.exists()


def test_sweep_overflowing_range_exits_2(tmp_path, capsys):
    out_file = tmp_path / "x.csv"
    assert main(["sweep", "werner", "--d", "3", "--range=0:inf:1",
                 "--out", str(out_file)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out_file.exists()


def test_state_file_with_overflowing_integer_exits_2(tmp_path, capsys):
    state_file = tmp_path / "huge.json"
    entries = [["1" + "0" * 400 if i == j == 0 else "0", "0"] for i in range(4) for j in range(4)]
    rows = [entries[4 * i: 4 * i + 4] for i in range(4)]
    text = "[" + ",".join("[" + ",".join(f"[{re}, {im}]" for re, im in row) + "]" for row in rows) + "]"
    state_file.write_text('{"kind": "density", "dims": [2, 2], "matrix": ' + text + "}",
                          encoding="utf-8")
    assert main(["check", str(state_file)]) == 2
    assert "overflows" in capsys.readouterr().err


_HUGE = "1" + "0" * 400  # an integer past the float range


@pytest.mark.parametrize("dims, entry", [
    (f"[2, {_HUGE}]", "0.25"), ("[2, 2]", f"-{_HUGE}"),
], ids=["in-dims", "negative-in-matrix"])
def test_an_integer_past_the_float_range_overflows_wherever_it_stands(tmp_path, capsys, dims,
                                                                      entry):
    state_file = tmp_path / "huge.json"
    rows = [[[entry if i == j == 0 else "0.25" if i == j else "0", "0"] for j in range(4)]
            for i in range(4)]
    matrix = json.dumps(rows).replace('"', "")
    state_file.write_text(f'{{"kind": "density", "dims": {dims}, "matrix": {matrix}}}',
                          encoding="utf-8")
    assert main(["check", str(state_file)]) == 2
    assert capsys.readouterr().err == f"error: {state_file}: an integer overflows a float\n"


@pytest.mark.parametrize("entry, shown", [("1e300", "1e+300"), ("1e20", "1e+20")])
def test_a_huge_dims_entry_is_named_as_the_file_spells_it(tmp_path, capsys, entry, shown):
    state_file = tmp_path / "huge.json"
    matrix = json.dumps([[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)])
    state_file.write_text(f'{{"kind": "density", "dims": [2, {entry}], "matrix": {matrix}}}',
                          encoding="utf-8")
    assert main(["check", str(state_file)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: dims (2, {shown}) give more than 1024 rows\n"
    assert len(err.encode()) < 120


# JSON integers are read as the floats they spell, "-0" as -0.0 included.
@pytest.mark.parametrize("kind, dims, matrix", [
    ("pure", "[2, 2]", "[[1, 0], [0, -0], [-0, 0], [0, -0]]"),
    ("density", "[1, 2]", "[[[1, 0], [0, -0]], [[-0, 0], [0, 0]]]"),
], ids=["pure", "density"])
def test_an_all_integer_matrix_file_loads_the_bits_of_its_float_spelling(tmp_path, kind, dims,
                                                                         matrix):
    loaded = []
    for text in (matrix, re.sub(r"(\d+)", r"\1.0", matrix)):
        state_file = tmp_path / "state.json"
        state_file.write_text(f'{{"kind": "{kind}", "dims": {dims}, "matrix": {text}}}',
                              encoding="utf-8")
        state = load_state_file(state_file)[1]
        loaded.append((state.matrix if kind == "density" else state.amplitudes).tobytes())
    assert loaded[0] == loaded[1]


def _run_under_1_gib(*argvs):
    """Run ``main`` on each argv in a child process with a 1 GiB address-space
    limit, printing one exit code per line.  A refused input that got as far
    as allocating would end in MemoryError (exit 1) there, not exit 2."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ccnr

    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from ccnr.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    print(main(argv.split()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ccnr.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", script, *argvs], capture_output=True,
                          text=True, env=env, timeout=60)


def test_sweep_grid_cap_refuses_without_allocating(tmp_path):
    out_file = tmp_path / "x.csv"
    done = _run_under_1_gib(f"sweep werner --d 3 --range=0:1:1e-12 --out {out_file}")
    assert done.stdout.split() == ["2"], done.stderr
    assert "more than 1000000 points" in done.stderr
    assert not out_file.exists()


@pytest.mark.parametrize("dims", [[2.9, 2], [2, "2"], [True, 4], [2, float("inf")]])
def test_state_file_rejects_non_integral_dims(tmp_path, capsys, dims):
    state_file = tmp_path / "dims.json"
    payload = {
        "kind": "density",
        "dims": dims,
        "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    state_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["check", str(state_file)]) == 2
    assert "dims" in capsys.readouterr().err


def test_state_file_accepts_integral_float_dims(tmp_path, capsys):
    state_file = tmp_path / "dims.json"
    payload = {
        "kind": "density",
        "dims": [2.0, 2],
        "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    state_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["check", str(state_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "undecided"


@pytest.mark.parametrize("argv, message", [
    (["werner", "--d", "3", "--range=0:2:0.5"], "flip expectation must lie in [-1, 1], got 1.5"),
    (["isotropic", "--d", "3", "--range=-0.5:1:0.5"], "fidelity must lie in [0, 1], got -0.5"),
    (["bell", "--range=0:1.5:0.5"], "bell sweep weight must lie in [0, 1], got 1.5"),
    (["qubit", "--range=0.5:1.5:0.25"], "mixing weight must lie in [0, 1], got 1.25"),
    (["qutrit", "--range=1:3:1"], "parameter must lie in [2, 5], got 1.0"),
    (["werner", "--range=0:1:0.5"], "family 'werner' needs --d"),
    (["werner", "--d", "1", "--range=0:1:0.5"], "local dimension must be at least 2"),
    (["qutrit", "--d", "2", "--range=2:5:1"], "family 'qutrit' is fixed at local dimension 3"),
    (["bell", "--d", "3", "--range=0:1:0.5"], "family 'bell' is fixed at local dimension 2"),
])
def test_sweep_rejects_the_first_bad_value_before_writing(tmp_path, capsys, argv, message):
    out_file = tmp_path / "x.csv"
    assert main(["sweep", *argv, "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_file.exists()


def _reference_text(state):
    """The state-file text as ``json.dumps`` lays it out, built entry by entry."""
    if hasattr(state, "amplitudes"):
        kind, matrix = "pure", [[float(z.real), float(z.imag)] for z in state.amplitudes]
    else:
        kind = "density"
        matrix = [[[float(z.real), float(z.imag)] for z in row] for row in state.matrix]
    payload = {"kind": kind, "dims": [state.dim_a, state.dim_b], "matrix": matrix}
    return json.dumps(payload, indent=1) + "\n"


@pytest.mark.parametrize("dims", [(1, 1), (1, 4), (2, 3), (3, 3), (6, 24)])
@pytest.mark.parametrize("kind", ["density", "pure"])
def test_state_file_text_is_json_dumps_indent_1(tmp_path, dims, kind):
    from ccnr.states import random_density, random_pure

    state = random_density(*dims, seed=3) if kind == "density" else random_pure(*dims, seed=3)
    path = tmp_path / "state.json"
    write_state_file(path, state)
    assert path.read_bytes() == _reference_text(state).encode("utf-8")


def test_state_file_text_keeps_signed_zeros_subnormals_and_extreme_exponents(tmp_path):
    from ccnr.states import DensityOperator, PureState

    m = np.diag([0.5, 0.5, 1e-300, 0.0]).astype(complex)
    m[0, 1], m[1, 0] = complex(-0.0, 1e-300), complex(-0.0, -1e-300)
    m[0, 2] = m[2, 0] = 5e-324
    m[2, 3] = m[3, 2] = 1e-310
    states = [
        DensityOperator(m, 2, 2),
        PureState([1.0, complex(-0.0, -0.0), 5e-324, -1e-300 + 1e-300j], 2, 2),
    ]
    for state in states:
        path = tmp_path / "state.json"
        write_state_file(path, state)
        text = path.read_text(encoding="utf-8")
        assert text == _reference_text(state)
        for token in ("-0.0", "5e-324", "e-300"):
            assert token in text
    # Exponents near +300 never occur in a valid state; the layout alone takes them.
    from ccnr.cli import _json_layout

    values = np.array([[1e300, -1.7976931348623157e308], [-2.5e-308, 1e-5], [123.0, -0.0]])
    assert _json_layout(values.shape) % tuple(values.ravel().tolist()) == json.dumps(
        values.tolist(), indent=1
    ).replace("\n", "\n ")


@pytest.mark.parametrize("dims", [(12, 12), (6, 24), (16, 16)])
@pytest.mark.parametrize("rank", [1, 2, None])
def test_density_file_text_is_json_dumps_at_every_rank(tmp_path, dims, rank):
    from ccnr.states import random_density

    path = tmp_path / "state.json"
    rank_flag = [] if rank is None else ["--rank", str(rank)]
    argv = ["gen", "random", "--dims", "%d,%d" % dims, "--seed", "11", *rank_flag]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(path)]) == 0
    state = random_density(*dims, rank=rank, seed=11)
    assert path.read_bytes() == _reference_text(state).encode("utf-8")


@pytest.mark.parametrize("argv, build", [
    (["werner", "--d", "3", "--param", "-0.25"], lambda: werner_state(3, -0.25)),
    (["isotropic", "--d", "3", "--param", "0.8"], lambda: isotropic_state(3, 0.8)),
    (["bell", "--param", "0.6,0.2,0.1,0.1"], lambda: bell_diagonal_state([0.6, 0.2, 0.1, 0.1])),
    (["qubit", "--param", "0.3"], lambda: qubit_family(0.3)),
    (["qutrit", "--param", "4"], lambda: qutrit_family(4.0)),
], ids=["werner", "isotropic", "bell", "qubit", "qutrit"])
def test_gen_family_file_text_is_json_dumps(tmp_path, argv, build):
    path = tmp_path / "state.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", *argv, "--out", str(path)]) == 0
    assert path.read_bytes() == _reference_text(build()).encode("utf-8")


# (upper, lower) entries put on both sides of the diagonal of a 4x4 state, with
# zeros signed independently.  Subnormals and 1e-300 sit next to the zeros,
# where the division by the trace can flip the sign of a zero.
_SIGNED_ZERO_PAIRS = [
    (complex(-0.0, 1e-300), complex(-0.0, -1e-300)),
    (complex(-0.0, -1e-300), complex(-0.0, 1e-300)),
    (complex(0.0, -5e-324), complex(-0.0, 5e-324)),
    (complex(-0.0, 0.0), complex(-0.0, -0.0)),
    (complex(-0.0, -0.0), complex(0.0, 0.0)),
    (complex(5e-324, -0.0), complex(5e-324, 0.0)),
    (complex(-1e-300, 0.0), complex(-1e-300, -0.0)),
    (complex(-2.5e-310, -0.0), complex(-2.5e-310, -0.0)),
    (complex(1e-3, -1e-300), complex(1e-3, 1e-300)),
    (complex(-0.0, -0.125), complex(0.0, 0.125)),
]


@pytest.mark.parametrize("upper, lower", _SIGNED_ZERO_PAIRS)
def test_density_file_text_keeps_the_sign_of_each_mirrored_zero(tmp_path, upper, lower):
    from ccnr.states import DensityOperator

    m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    for i, j in [(0, 1), (0, 3), (2, 3)]:
        m[i, j], m[j, i] = upper, lower
    m[1, 2], m[2, 1] = 1e-300, -0.0
    state = DensityOperator(m, 2, 2)
    path = tmp_path / "state.json"
    write_state_file(path, state)
    assert path.read_text(encoding="utf-8") == _reference_text(state)


_FILE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e-300, -1e-300]),
    st.floats(-0.01, 0.01),
)


@st.composite
def _hermitian_matrices(draw):
    """A diagonally dominant (so valid) density matrix of side n <= 5 with drawn entries."""
    n = draw(st.integers(1, 5))
    m = np.diag(np.full(n, 1.0 / n)).astype(complex)
    for i in range(n):
        for j in range(i + 1, n):
            re, im = draw(_FILE_VALUES) / n, draw(_FILE_VALUES) / n
            # A zero below the diagonal takes a drawn sign of its own.
            re_low = draw(st.sampled_from([0.0, -0.0])) if re == 0 else re
            im_low = draw(st.sampled_from([0.0, -0.0])) if im == 0 else -im
            m[i, j], m[j, i] = complex(re, im), complex(re_low, im_low)
    return m


@settings(max_examples=150, deadline=None)
@given(m=_hermitian_matrices())
def test_density_file_text_is_json_dumps_on_signed_zeros_and_subnormals(tmp_path_factory, m):
    from ccnr.states import DensityOperator

    state = DensityOperator(m, 1, m.shape[0])
    path = tmp_path_factory.mktemp("mirror") / "state.json"
    write_state_file(path, state)
    assert path.read_text(encoding="utf-8") == _reference_text(state)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_json_rows_text_is_json_dumps_with_or_without_a_mirror(n, data):
    from ccnr.cli import _json_rows

    values = data.draw(st.lists(_FILE_VALUES, min_size=2 * n * n, max_size=2 * n * n))
    pairs = np.array(values).reshape(n, n, 2)
    if data.draw(st.booleans()):  # exact conjugates below the diagonal, zeros included
        lower = np.tril_indices(n, -1)
        pairs[lower] = pairs.transpose(1, 0, 2)[lower] * [1.0, -1.0]
    vector = pairs.reshape(-1, 2)  # the [re, im] pairs of a pure state
    for array in (pairs, vector):
        want = json.dumps(array.tolist(), indent=1).replace("\n", "\n ")
        assert "".join(_json_rows(array)) == want


_ONE = [[[1.0, 0.0]]]  # the 1x1 density matrix of dims [1, 1]


@pytest.mark.parametrize("kind, matrix", [
    pytest.param("density", [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], id="ragged-rows"),
    pytest.param("density", [[0.5, 0.0], [0.0, 0.0]], id="too-shallow"),
    pytest.param("density", [_ONE], id="too-deep"),
    pytest.param("pure", [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], id="pure-as-density"),
    pytest.param("density", [[["1.0", "0.0"]]], id="strings"),
    pytest.param("density", [[[1.0, "0.0"]]], id="one-string"),
    pytest.param("density", [[[1.0, None]]], id="null"),
    pytest.param("density", [[[1.0, {}]]], id="object"),
    pytest.param("density", [[[1.0]]], id="re-only"),
    pytest.param("density", [[[1.0, 0.0, 0.0]]], id="three-numbers"),
    pytest.param("density", 1.0, id="scalar"),
    pytest.param("density", [[[True, False]]], id="booleans"),
    pytest.param("density", [[[0.5, 0], [0, False]], [[0, 0], [0.5, 0]]], id="one-boolean"),
    pytest.param("density", [[[0.5, 0], [0, 10**30]], [[0, True], [0.5, 0]]], id="bool-and-bigint"),
])
def test_check_rejects_malformed_matrix_payloads(tmp_path, capsys, kind, matrix):
    dims = [1, len(matrix) if isinstance(matrix, list) else 1]
    state_file = tmp_path / "bad.json"
    state_file.write_text(json.dumps({"kind": kind, "dims": dims, "matrix": matrix}),
                          encoding="utf-8")
    assert main(["check", str(state_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[re, im] number pairs" in err


@pytest.mark.parametrize("kind, matrix", [
    ("pure", [[1e308, 1e308]]),
    ("density", [[[1e308, 0.0], [1e308, 0.0]], [[1e308, 0.0], [1e308, 0.0]]]),
])
def test_check_overflowing_entries_end_in_the_invariant_error_alone(tmp_path, capsys, kind, matrix):
    state_file = tmp_path / "huge.json"
    state_file.write_text(json.dumps({"kind": kind, "dims": [1, len(matrix)], "matrix": matrix}),
                          encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(state_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invariant") and err.count("\n") == 1


def test_check_accepts_a_one_by_one_density_file(tmp_path):
    state_file = tmp_path / "one.json"
    state_file.write_text(json.dumps({"kind": "density", "dims": [1, 1], "matrix": _ONE}),
                          encoding="utf-8")
    assert main(["check", str(state_file), "--json"]) == 0


def test_check_deeply_nested_json_exits_2(tmp_path, capsys):
    state_file = tmp_path / "deep.json"
    state_file.write_text('{"kind": "density", "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}",
                          encoding="utf-8")
    assert main(["check", str(state_file)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_matrix_side_cap_bounds_dims_and_local_dimension():
    from ccnr.states import MAX_MATRIX_SIDE, _local_dim, random_density

    assert MAX_MATRIX_SIDE >= 144  # every dimension the demos and the benchmark use
    assert random_density(1, MAX_MATRIX_SIDE, rank=1, seed=0).dims == (1, MAX_MATRIX_SIDE)
    with pytest.raises(ValueError, match="more than"):
        random_density(2, MAX_MATRIX_SIDE)
    side = math.isqrt(MAX_MATRIX_SIDE)
    assert _local_dim(side) == side
    with pytest.raises(ValueError, match="more than"):
        _local_dim(side + 1)


def test_matrix_side_cap_refuses_without_allocating(tmp_path):
    done = _run_under_1_gib(
        f"gen random --dims 200,200 --out {tmp_path / 'a.json'}",
        f"gen isotropic --d 1000 --param 0.5 --out {tmp_path / 'b.json'}",
        f"sweep werner --d 1000 --range=0:0:1 --out {tmp_path / 'c.csv'}",
    )
    assert done.stdout.split() == ["2", "2", "2"], done.stderr
    assert done.stderr.count("more than 1024 rows") == 3
    assert "Traceback" not in done.stderr
    assert not list(tmp_path.iterdir())


def test_a_state_file_whose_own_dims_pass_the_cap_is_refused(tmp_path, capsys):
    state_file = tmp_path / "wide.json"
    amplitudes = [[1.0 if k == 0 else 0.0, 0.0] for k in range(33 * 32)]
    state_file.write_text(json.dumps({"kind": "pure", "dims": [33, 32], "matrix": amplitudes}),
                          encoding="utf-8")
    assert main(["schmidt", str(state_file)]) == 2
    err = capsys.readouterr().err
    assert "more than 1024 rows" in err and "Traceback" not in err


def test_a_state_file_over_the_byte_cap_is_refused_before_it_is_read(tmp_path):
    from ccnr.states import MAX_STATE_FILE_BYTES

    sparse = tmp_path / "sparse.json"
    with open(sparse, "wb") as fh:
        fh.truncate(MAX_STATE_FILE_BYTES + 1)
    # /dev/zero has no size to stat and no end: only the bounded read stops it.
    done = _run_under_1_gib(f"check {sparse}", "check /dev/zero")
    assert done.stdout.split() == ["2", "2"], done.stderr
    assert done.stderr.count(f"at most {MAX_STATE_FILE_BYTES} bytes") == 2
    assert "Traceback" not in done.stderr


def test_a_written_state_of_the_largest_side_fits_the_byte_cap(tmp_path):
    from ccnr.states import MAX_STATE_FILE_BYTES

    path = tmp_path / "werner.json"
    state = werner_state(32, 0.1)
    write_state_file(path, state)
    assert path.stat().st_size < MAX_STATE_FILE_BYTES // 2
    kind, loaded = load_state_file(path)
    assert kind == "density" and np.array_equal(loaded.matrix, state.matrix)


def test_reading_a_small_state_file_allocates_far_less_than_the_cap(tmp_path):
    import tracemalloc

    from ccnr.states import MAX_STATE_FILE_BYTES

    path = tmp_path / "bell.json"
    _write_max_entangled_density(path)
    tracemalloc.start()
    try:
        load_state_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_STATE_FILE_BYTES // 16


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_the_byte_cap_binds_a_pipe_as_it_binds_a_file(tmp_path, monkeypatch, capsys):
    import threading

    import ccnr.cli

    text = json.dumps({"kind": "density", "dims": [1, 1], "matrix": _ONE}).encode("utf-8")
    monkeypatch.setattr(ccnr.cli, "MAX_STATE_FILE_BYTES", len(text))

    def check(data, pipe):
        path = tmp_path / ("pipe" if pipe else "file")
        if pipe:  # stat reads size 0 on a pipe; only the read can meet the cap
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
            writer.start()
        else:
            path.write_bytes(data)
        code = main(["check", str(path)])
        if pipe:
            writer.join(timeout=10)
            assert not writer.is_alive()
        path.unlink()
        return code, capsys.readouterr().err

    for pipe in (False, True):
        assert check(text, pipe) == (0, "")
        code, err = check(text + b" ", pipe)
        assert code == 2 and f"at most {len(text)} bytes" in err


_NUMBERS = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, 0.25, 1.0, 1e308, 5e-324, math.inf, math.nan, 2**70, 10**400]),
)
_ENTRIES = st.one_of(
    _NUMBERS,
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


@st.composite
def _state_payloads(draw):
    """A valid state file of side n <= 4 with at most one field mutated."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["density", "pure"]))
    if kind == "density":  # the maximally mixed state
        matrix = [[[1.0 / n if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
        pairs = [pair for row in matrix for pair in row]
    else:  # a basis vector
        matrix = pairs = [[1.0 if i == 0 else 0.0, 0.0] for i in range(n)]
    payload = {"kind": kind, "dims": [1, n], "matrix": matrix}
    field = draw(st.sampled_from(["none", "kind", "dims", "numbers", "pairs", "matrix", "drop"]))
    if field == "kind":
        payload["kind"] = draw(st.one_of(st.sampled_from(["density", "pure"]), _ENTRIES))
    elif field == "dims":
        payload["dims"] = draw(st.lists(st.one_of(st.integers(-2, 5), _ENTRIES), max_size=3))
    elif field == "numbers":
        entry = st.one_of(_ENTRIES, st.lists(_NUMBERS, max_size=2))
        for _ in range(draw(st.integers(1, 3))):
            draw(st.sampled_from(pairs))[draw(st.integers(0, 1))] = draw(entry)
    elif field == "pairs":
        for _ in range(draw(st.integers(1, 3))):
            draw(st.sampled_from(pairs))[:] = draw(st.lists(_ENTRIES, max_size=3))
    elif field == "matrix":
        payload["matrix"] = draw(st.one_of(_ENTRIES, st.lists(st.lists(_ENTRIES, max_size=3))))
    elif field == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    return payload


@settings(max_examples=120, deadline=None)
@given(payload=_state_payloads())
def test_check_ends_in_a_verdict_or_an_input_error_on_any_state_file(tmp_path_factory, payload):
    state_file = tmp_path_factory.mktemp("fuzz") / "state.json"
    state_file.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["check", str(state_file)]) in {0, 2, 3}


# Command-line fuzz.  Each argument is usually well formed and sometimes junk
# (the draw of 0 from 0-9, which Hypothesis favours).  Grids stay within ~200 points and families within d = 4 (16
# rows): drawn grids take at most 200 steps, junk ranges join numbers that step
# by at least 0.25 or so finely that the grid cap refuses them, and junk text
# has no digits.
_FAMILIES = {"werner": (-1.0, 1.0, ["2", "3", "4"]), "isotropic": (0.0, 1.0, ["2", "3", "4"]),
             "bell": (0.0, 1.0, [None, "2"]), "qubit": (0.0, 1.0, [None, "2"]),
             "qutrit": (2.0, 5.0, [None, "3"]), "random": (0.0, 1.0, [None])}
_NUMBER_TEXT = st.sampled_from(
    ["0", "1", "-1", "2", "5", "0.25", "-0.5", "1e-300", "inf", "-inf", "nan", "1e400", "", "x"]
)
_JUNK = st.text("abefinx:,.-+ ", max_size=8)
_JUNK_D = st.sampled_from([None, "-1", "0", "1", "33", "1000", "2.5", "x", "", "inf"])


def _mostly(valid, junk):
    return st.integers(0, 9).flatmap(lambda k: junk if k == 0 else valid)


@st.composite
def _grids(draw, lo, hi):
    start = draw(st.floats(lo, hi))
    step = draw(st.floats((hi - lo) / 200, hi - lo))
    stop = start + step * min(draw(st.integers(0, 199)), math.floor((hi - start) / step))
    return f"{start!r}:{stop!r}:{step!r}"


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["sweep", "gen"]))
    names = sorted(_FAMILIES) if command == "gen" else sorted(set(_FAMILIES) - {"random"})
    family = draw(_mostly(st.sampled_from(names), st.just("x")))
    lo, hi, dims = _FAMILIES.get(family, (0.0, 1.0, [None]))
    argv = [command, family]
    # Only random takes --dims, --rank and --seed, and every other family --d
    # and --param.  A gen draw adds a stray option its family does not take
    # only now and then, so most draws get past the "takes no" refusal.
    if family == "random":
        for flag, valid, junk in [
            ("--dims", ["1,1", "2,3", "4,4", "1,16"], ["0,2", "2", "a,b", "2.5,2", "40,40"]),
            ("--rank", [None, "1", "3"], ["0", "-1", "17", "x"]),
            ("--seed", [None, "0", "7"], ["-1", "x"]),
        ]:
            value = draw(_mostly(st.sampled_from(valid), st.sampled_from(junk)))
            argv += [] if value is None else [flag, value]
        stray = st.sampled_from([["--d", "2"], ["--param", "0.5"]])
    else:
        d = draw(_mostly(st.sampled_from(dims), _JUNK_D))
        argv += [] if d is None else ["--d", d]
        stray = st.sampled_from([["--dims", "2,2"], ["--rank", "1"], ["--seed", "0"]])
    if command == "sweep":
        junk = st.one_of(_JUNK, st.builds(":".join, st.lists(_NUMBER_TEXT, max_size=4)))
        argv.append(f"--range={draw(_mostly(_grids(lo, hi), junk))}")
    elif family != "random":
        if family == "bell":
            param = st.sampled_from(["0.25,0.25,0.25,0.25", "1,0,0,0", "0.7,0.1,0.1,0.1"])
        else:
            param = st.floats(lo, hi).map(repr)
        junk = st.one_of(_JUNK, st.builds(",".join, st.lists(_NUMBER_TEXT, max_size=5)))
        argv += ["--param", draw(_mostly(param, junk))]
    if command == "gen":
        argv += draw(_mostly(st.just([]), stray))
    return argv + draw(_mostly(st.just(["--out", "OUT"]), st.just([])))


@settings(max_examples=150, deadline=None)
@given(argv=_cli_argv())
def test_sweep_and_gen_end_in_an_exit_code_on_any_arguments(tmp_path_factory, argv):
    out = str(tmp_path_factory.mktemp("cli") / "out")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([out if arg == "OUT" else arg for arg in argv]) in {0, 2, 3}


# The options each gen family takes, besides --out.
_GEN_TAKES = {"random": {"--dims", "--rank", "--seed"}}


@settings(max_examples=100, deadline=None)
@given(argv=_cli_argv().filter(lambda argv: argv[0] == "gen"))
def test_gen_ends_in_an_exit_code_on_any_options_its_family_takes(tmp_path_factory, argv):
    takes = _GEN_TAKES.get(argv[1], {"--d", "--param"}) | {"--out"}
    argv = argv[:2] + [arg for flag, value in zip(argv[2::2], argv[3::2]) if flag in takes
                       for arg in (flag, value)]
    out = str(tmp_path_factory.mktemp("gen") / "out")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main([out if arg == "OUT" else arg for arg in argv]) in {0, 2, 3}
    assert "takes no" not in err.getvalue()


# Input errors, each pinned by its message.
def test_check_refuses_a_state_file_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: expected a JSON object\n"


def test_gen_random_needs_dims(tmp_path, capsys):
    assert main(["gen", "random", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: family 'random' needs --dims\n"
    assert not list(tmp_path.iterdir())


def test_write_state_file_refuses_what_is_not_a_state(tmp_path):
    with pytest.raises(ValueError, match="^cannot serialize object$"):
        write_state_file(tmp_path / "x", object())
    assert not list(tmp_path.iterdir())


def _raises(exc):
    """A stand-in for a function of ``ccnr.cli`` that raises ``exc``."""
    def call(*args, **kwargs):
        raise exc
    return call


def test_check_reports_running_out_of_memory_in_one_line(tmp_path, capsys, monkeypatch):
    import ccnr.cli

    message = "Unable to allocate 8.00 EiB for an array with shape (2**60,)"
    monkeypatch.setattr(ccnr.cli, "load_state_file", _raises(MemoryError(message)))
    assert main(["check", str(tmp_path / "any.json")]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def test_sweep_reports_running_out_of_memory_and_writes_no_csv(tmp_path, capsys, monkeypatch):
    import ccnr.cli

    monkeypatch.setattr(ccnr.cli, "werner_stack", _raises(MemoryError()))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "werner", "--d", "3", "--range=-1:1:0.01", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not list(tmp_path.iterdir())
