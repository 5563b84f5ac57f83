"""Byte-for-byte CLI output on fixed documents.

``tests/data/golden_cli.json`` holds the standard output of each command in
``COMMANDS`` on the documents in ``tests/data/``.  Any change to a printed
coefficient, to its ring (rational or polynomial in t) or to an order shows
here.  After checking that a change of output is intended, regenerate with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from freeconv.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_cli.json"

COMMANDS = (
    ("power", "--op", "bt", "--t", "formal", "mu.json"),
    ("power", "--op", "free", "--t", "formal", "mu.json"),
    ("power", "--op", "two-state", "--t", "formal", "pair.json"),
    ("conv", "--op", "monotone", "mu.json", "nu.json"),
    ("verify", "all", "--format", "json"),
    ("power", "--op", "bt", "--t", "formal", "mu12.json"),
    ("power", "--op", "free", "--t", "formal", "mu12.json"),
    ("semigroup", "--t", "formal", "--triple", "triple12.json"),
    ("semigroup", "--t", "formal", "--rel", "rel12.json",
     "--base", "triple12.json"),
    # a Q[t] operation on rational values: every moment prints as an array
    ("power", "--op", "free", "--t", "formal", "zero.json"),
    # both catalogs at another seed, and the word layer at several d
    ("verify", "all", "--format", "json", "--seed", "5"),
    ("nc", "verify", "all", "--format", "json", "--d", "1"),
    ("nc", "verify", "all", "--format", "json", "--d", "3"),
    ("nc", "verify", "all", "--format", "json", "--d", "4"),
    ("nc", "verify", "all", "--format", "json", "--d", "3", "--seed", "5"),
)


def _argv(command):
    return [str(DATA / a) if a.endswith(".json") else a for a in command]


def _key(command):
    return " ".join(command)


def _record():
    golden = {}
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run(_argv(command))
        golden[_key(command)] = {"status": status, "stdout": out.getvalue()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


@pytest.mark.parametrize("command", COMMANDS, ids=_key)
def test_cli_output_matches_golden(command, capsys):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[_key(command)]
    assert run(_argv(command)) == want["status"]
    assert capsys.readouterr().out == want["stdout"]


if __name__ == "__main__":
    _record()
