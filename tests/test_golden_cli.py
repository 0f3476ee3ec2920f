"""The command line keeps its bytes: every command of ``tests/golden_cli.json`` replays exactly.

The corpus and the commands behind it are described in ``tests/cli_corpus.py``.
"""

import json

import cli_corpus

CORPUS = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))


def test_the_corpus_holds_every_command_of_the_helper():
    assert [entry["argv"] for entry in CORPUS["commands"]] == cli_corpus.commands()


def test_the_corpus_covers_output_and_refusals():
    codes = [entry["exit"] for entry in CORPUS["commands"]]
    assert codes.count(0) >= 120 and codes.count(2) >= 7 and codes.count(3) >= 1
    refusals = [entry for entry in CORPUS["commands"] if entry["exit"]]
    assert all(entry["stderr"] and not entry["stdout"] for entry in refusals)


def test_the_command_line_replays_the_corpus_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_corpus.write_inputs() == CORPUS["inputs"]
    for expected in CORPUS["commands"]:
        assert cli_corpus.run(expected["argv"]) == expected, expected["argv"]

