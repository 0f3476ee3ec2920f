#!/usr/bin/env python3
"""State files and the command-line interface.

States travel as JSON with explicit [re, im] pairs and an explicit
bipartition (a 36x36 matrix could be 4x9 or 6x6, so dims are never
inferred from the shape alone).  The same machinery backs the ``ccnr``
console command; this script drives it in-process.
"""

import json
import tempfile
from pathlib import Path

from ccnr import werner_state
from ccnr.cli import load_state_file, main, write_state_file

with tempfile.TemporaryDirectory(prefix="ccnr_demo_") as tmp:
    workdir = Path(tmp)

    # Round trip through the file format.
    state_path = workdir / "werner_d3.json"
    write_state_file(state_path, werner_state(3, -0.5))
    kind, rho = load_state_file(state_path)
    print(f"wrote and reloaded a {kind} state with bipartition {rho.dims}")
    print("file starts with:", state_path.read_text()[:80].replace("\n", " "), "...")

    # The CLI subcommands: gen, check, schmidt, oschmidt, sweep.
    print("\n$ ccnr check werner_d3.json --json")
    main(["check", str(state_path), "--json"])

    print("\n$ ccnr gen qutrit --param 3.5 --out qutrit.json && ccnr check qutrit.json")
    qutrit_path = workdir / "qutrit.json"
    main(["gen", "qutrit", "--param", "3.5", "--out", str(qutrit_path)])
    main(["check", str(qutrit_path)])

    print("\n$ ccnr sweep isotropic --d 2 --range 0:1:0.25 --out iso.csv")
    csv_path = workdir / "iso.csv"
    main(["sweep", "isotropic", "--d", "2", "--range", "0:1:0.25", "--out", str(csv_path)])
    print(csv_path.read_text(), end="")

    print("\nexit codes: 0 computed, 2 input error, 3 state-invariant violation")
    bad_path = workdir / "bad.json"
    bad_path.write_text(json.dumps({"kind": "density", "dims": [2, 2], "matrix": []}))
    code = main(["check", str(bad_path)])
    print("checking an empty matrix returned exit code", code)
