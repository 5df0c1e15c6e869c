"""Golden CLI outputs: every fixture through every command, byte for byte.

The inputs are the shipped fixtures, all valid, plus ``tests/golden/*.q``:
three invalid triples, which take the exit-1 paths, and one triple with
two full relation cycles of opposite parity.  Each
``tests/golden/<input>.json`` maps a command line (the fixture path
written as FILE) to the exit code and the exact stdout it produced.  The
outputs were recorded before the derived objects moved onto the triple, so
the test pins the behaviour across that and later refactors; the text
form of ``invariants FILE --dims`` was recorded later, with the source as it
was before every renderer moved into ``reports``.  To record
them again after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

from skewgentle import parse
from skewgentle.cli import run

GOLDEN = Path(__file__).parent / "golden"
INPUTS = {p.stem: p for p in sorted([*FIXTURES.glob("*.q"), *GOLDEN.glob("*.q")])}
FIXTURE_NAMES = sorted(INPUTS)


def commands(fixture):
    """Every command line exercised on one fixture, FILE standing for its path."""
    cmds = [["validate", "FILE"], ["validate", "FILE", "--json"]]
    for target in ("sp", "sg", "g"):
        for fmt in ("text", "dot", "json"):
            cmds.append(["construct", "FILE", "--target", target, "--format", fmt])
    cmds += [["invariants", "FILE"], ["invariants", "FILE", "--json"],
             ["invariants", "FILE", "--dims"], ["invariants", "FILE", "--dims", "--json"]]
    for algebra in ("gentle", "sg", "g"):
        cmds.append(["dim", "FILE", "--algebra", algebra])
        cmds.append(["dim", "FILE", "--algebra", algebra, "--oracle"])
    for v in parse(INPUTS[fixture].read_text(encoding="utf-8")).special_list:
        cmds.append(["reduce", "FILE", "--vertex", v])
        cmds.append(["reduce", "FILE", "--vertex", v, "--json"])
    cmds.append(["spset", "FILE"])
    return cmds


def _run(fixture, cmd):
    path = str(INPUTS[fixture])
    out, err = io.StringIO(), io.StringIO()
    code = run([path if arg == "FILE" else arg for arg in cmd], out=out, err=err)
    return code, out.getvalue()


CASES = [(f, " ".join(cmd)) for f in FIXTURE_NAMES for cmd in commands(f)]


@pytest.mark.parametrize("fixture,command", CASES)
def test_golden_output(fixture, command, monkeypatch):
    monkeypatch.delenv("QSG_ORACLE_CAP", raising=False)
    expected = json.loads((GOLDEN / f"{fixture}.json").read_text(encoding="utf-8"))[command]
    code, stdout = _run(fixture, command.split(" "))
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


def test_golden_files_cover_every_case():
    recorded = {(f, c) for f in FIXTURE_NAMES
                for c in json.loads((GOLDEN / f"{f}.json").read_text(encoding="utf-8"))}
    assert recorded == set(CASES)


def _record():
    for fixture in FIXTURE_NAMES:
        table = {}
        for cmd in commands(fixture):
            code, stdout = _run(fixture, cmd)
            table[" ".join(cmd)] = {"exit": code, "stdout": stdout}
        text = json.dumps(table, indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{fixture}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    os.environ.pop("QSG_ORACLE_CAP", None)
    _record()
