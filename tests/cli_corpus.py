"""The command-line byte corpus: commands, the files they read, and their recorded output.

``tests/golden_cli.json`` holds, for each command below, its exit code, its
stdout and stderr, and the SHA-256 of each state file it writes.  The
``gen`` commands cover the Werner and isotropic families at d = 2, 3 and 5,
each at its domain ends and at f = 1/d or F = 1/d, three members each of the
Bell-diagonal, qubit and qutrit families, and seeded random states; each
file is then read by ``check``, ``check --json`` and ``oschmidt``.  Two
seeded random 144-row states, split (12, 12) and (6, 24), are read by
``check --json``, and a (2, 3) file by ``check --dims`` under both orders of
its dims.  Three pure-state files written by ``write_state_file`` are read by
``schmidt``, and a set of refusals records its exit code and message: bad
options (argparse's usage lines at 80 columns), state files that are not
UTF-8 or JSON, malformed dims or entries, and matrices that break a state
invariant.

Commands run in-process in the current directory, with relative paths, so
the output holds no directory name.  After a change that is meant to alter
the output, regenerate the corpus from the repository root with::

    python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

CORPUS = Path(__file__).with_name("golden_cli.json")

# (family, --d, parameters); 1/d is passed as repr(1 / d), the float it names.
_FAMILY_FILES = [
    *(("werner", d, ["-1", repr(1 / d), "1"]) for d in (2, 3, 5)),
    *(("isotropic", d, ["0", repr(1 / d), "1"]) for d in (2, 3, 5)),
    ("bell", None, ["0.25,0.25,0.25,0.25", "0.7,0.1,0.1,0.1", "1,0,0,0"]),
    ("qubit", None, ["0", "0.5", "1"]),
    ("qutrit", None, ["2", "3.5", "5"]),
]
_RANDOM_FILES = [("2,3", None, 1), ("3,3", 2, 5), ("2,4", 1, 11)]
_READERS = (["check"], ["check", "--json"], ["oschmidt"])
# The benchmark's 144-row shapes: written once and read by ``check --json`` only.
_LARGE_FILES = [("12,12", 21), ("6,24", 22)]
_DIMS_READS = [["check", "random_2x3_1.json", "--dims", dims] for dims in ("2,3", "3,2")]


def _random_command(dims: str, rank, seed: int) -> list[str]:
    name = f"random_{dims.replace(',', 'x')}_{seed}.json"
    option = [] if rank is None else ["--rank", str(rank)]
    return ["gen", "random", "--dims", dims, *option, "--seed", str(seed), "--out", name]


def _gen_commands() -> list[list[str]]:
    commands = []
    for family, d, params in _FAMILY_FILES:
        for k, param in enumerate(params):
            name = f"{family}{d or ''}_{k}.json"
            option = [] if d is None else ["--d", str(d)]
            commands.append(["gen", family, *option, "--param", param, "--out", name])
    return commands + [_random_command(*spec) for spec in _RANDOM_FILES]


_PURE_FILES = ("schmidt_3x4.json", "max_entangled_4.json", "random_pure_2x3.json")


def _density_file(dims, diagonal, entry=None) -> bytes:
    """A density file with ``diagonal`` on its diagonal and ``entry`` at row 0, column 1."""
    n = len(diagonal)
    matrix = [[[diagonal[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
    if entry is not None:
        matrix[0][1] = entry
    payload = {"kind": "density", "dims": dims, "matrix": matrix}
    return json.dumps(payload).encode("utf-8")


_QUARTER = [0.25] * 4
# Files whose content ``check`` refuses, each read once: exit 2 for all but
# the last two, which break a state invariant.
_REFUSED_FILES = {
    "nan_entry.json": _density_file([2, 2], _QUARTER, [float("nan"), 0.0]),
    "true_entry.json": _density_file([2, 2], _QUARTER, [True, 0.0]),
    "huge_dims.json": _density_file([2, 1e300], _QUARTER),
    "true_dims.json": _density_file([True, 2], _QUARTER),
    "not_utf8.json": _density_file([2, 2], _QUARTER)[:-1] + b', "note": "\xff"}',
    "not_hermitian.json": _density_file([2, 2], _QUARTER, [0.1, 0.0]),
    "trace_2.json": _density_file([2, 2], [0.5] * 4),
}

_REFUSALS = [
    ["gen", "werner", "--d", "3", "--param", "1.5", "--out", "refused.json"],
    ["gen", "isotropic", "--param", "0.5", "--out", "refused.json"],
    ["gen", "bell", "--param", "0.5,0.5", "--out", "refused.json"],
    ["gen", "bell", "--param", "nan,0.5,0.25,0.25", "--out", "refused.json"],
    ["gen", "qutrit", "--d", "2", "--param", "3", "--out", "refused.json"],
    ["gen", "random", "--dims", "2,2", "--param", "0.5", "--out", "refused.json"],
    ["check", "not_json.json"],
    ["check", "not_psd.json"],
    ["check", "werner2_1.json", "--dims", "2,3"],
    ["schmidt", "werner2_1.json"],
    ["oschmidt", "schmidt_3x4.json"],
    ["sweep", "werner", "--d", "3", "--range=1:-1:0.1", "--out", "refused.csv"],
    ["check", "missing.json"],
    ["gen", "werner", "--d", "2", "--param", "0.5"],
    ["sweep", "werner", "--d", "2", "--range=0:1:0.5"],
    ["check", "werner2_1.json", "--dims", "2"],
    ["check", "werner2_1.json", "--dims", "a,b"],
    *(["check", name] for name in _REFUSED_FILES),
    ["schmidt", "schmidt_3x4.json", "--dims", "2,2"],
    ["gen", "random", "--dims", "2,2", "--seed", "-1", "--out", "refused.json"],
    ["check", "werner2_1.json", "--tol-psd", "1e-9"],
]


def commands() -> list[list[str]]:
    """Every command of the corpus, in the order it runs."""
    gen = _gen_commands()
    reads = [[*reader[:1], cmd[-1], *reader[1:]] for cmd in gen for reader in _READERS]
    large = [_random_command(dims, None, seed) for dims, seed in _LARGE_FILES]
    large_reads = [["check", cmd[-1], "--json"] for cmd in large]
    return (gen + reads + [["schmidt", name] for name in _PURE_FILES] + _REFUSALS
            + large + large_reads + _DIMS_READS)


def write_inputs() -> dict[str, str]:
    """Write the files no command writes into the current directory; their SHA-256 by name."""
    from ccnr.cli import write_state_file
    from ccnr.states import max_entangled, pure_from_schmidt, random_pure

    pure = (pure_from_schmidt([0.5, 0.3, 0.2], 3, 4), max_entangled(4), random_pure(2, 3, seed=7))
    for name, state in zip(_PURE_FILES, pure):
        write_state_file(name, state)
    Path("not_json.json").write_text("{not json", encoding="utf-8")
    diagonal = [[[-0.5 if i == j == 0 else 0.5 if i == j else 0.0, 0.0] for j in range(4)]
                for i in range(4)]
    Path("not_psd.json").write_text(
        json.dumps({"kind": "density", "dims": [2, 2], "matrix": diagonal}), encoding="utf-8")
    for name, content in _REFUSED_FILES.items():
        Path(name).write_bytes(content)
    return {name: _digest(name) for name in _PURE_FILES}


def _digest(name: str) -> str:
    return hashlib.sha256(Path(name).read_bytes()).hexdigest()


def run(argv: list[str]) -> dict:
    """One command's record: argv, exit code, stdout, stderr and the digest of ``--out``."""
    from ccnr.cli import main

    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines at the terminal width, read from COLUMNS.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(argv)
    record = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if code == 0 and "--out" in argv:
        record["out_sha256"] = _digest(argv[argv.index("--out") + 1])
    return record


def record() -> dict:
    """The corpus, computed in the current directory."""
    return {"inputs": write_inputs(), "commands": [run(argv) for argv in commands()]}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            corpus = record()
        finally:
            os.chdir(here)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus['commands'])} commands to {CORPUS}")
