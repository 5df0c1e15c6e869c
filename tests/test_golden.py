"""Golden CLI outputs: every fixture through every command, byte for byte.

The inputs are the shipped fixtures, all valid, plus ``tests/golden/*.q``:
three invalid triples, which take the exit-1 paths, and one triple with
two full relation cycles of opposite parity.  Each
``tests/golden/<input>.json`` maps a command line (the fixture path
written as FILE) to the exit code and the exact stdout it produced.  The
outputs were recorded before the derived objects moved onto the triple, so
the test pins the behaviour across that and later refactors; the text
form of ``invariants FILE --dims`` was recorded later, with the source as it
was before every renderer moved into ``reports``.

``tests/golden/parse_errors.json`` does the same for the diagnostics of
malformed text: for each input in ``PARSE_ERRORS`` it holds the exit code
and the exact stderr of ``validate FILE``.  It was recorded with the
character-by-character lexer, before the token grammar became one regular
expression.  To record the tables again after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import json
import os
import sys
import tempfile
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


# Malformed inputs, each taking one diagnostic path of the parser.
PARSE_ERRORS = {
    "empty_input": "",
    "wrong_head": "quiv C { vertices: 1; }",
    "arrow_as_name": "quiver -> { vertices: 1; }",
    "unexpected_minus": "quiver C { vertices: 1, -2; }",
    "unexpected_gt": "quiver C { vertices: 1, 2; arrows: a: 1 > 2; }",
    "unexpected_non_ascii": "quiver C {\n  vertices: 1, \u00e9;\n}\n",
    "unexpected_form_feed": "quiver C {\f vertices: 1; }",
    "unexpected_after_close": "quiver C { vertices: 1; } %",
    "comment_at_end_no_newline": "quiver C { } # note",
    "comment_at_end_second_line": "quiver C { vertices: 1;\r\n# trailing",
    "comment_at_end_with_newline": "quiver C { } # note\n",
    "crlf_before_error": "quiver C {\r\n  vertices: 1;\r\n  junk: 2;\r\n}\r\n",
    "tabs_before_error": "quiver C {\n\tvertices:\t1;\n\t\tarrows: a:\t1 -> ;\n}\n",
    "minus_arrow_in_vertices": "quiver C { vertices: a-->b; }",
    "minus_minus_as_source": "quiver C { vertices: b; arrows: x: -->b; }",
    "missing_arrow_token": "quiver C { vertices: 1, 2; arrows: a: 1 2; }",
    "missing_star": "quiver C { vertices: 1; arrows: a: 1 -> 1; relations: a a; }",
    "missing_semicolon": "quiver C { vertices: 1 }",
    "trailing_text": "quiver C { vertices: 1; } extra",
    "unknown_statement": "quiver C { junk: 1; }",
    "empty_vertices": "quiver C { vertices: ; }",
    "missing_vertices": "quiver C { arrows: ; }",
    "duplicate_statement": "quiver C { vertices: 1; vertices: 2; }",
    "vertex_twice": "quiver C { vertices: 1, 2, 1; }",
    "arrow_twice": "quiver C { vertices: 1; arrows: a: 1 -> 1, a: 1 -> 1; }",
    "arrow_unknown_source": "quiver C { vertices: 1; arrows: a: 9 -> 1; }",
    "arrow_unknown_target": "quiver C { vertices: 1; arrows: a: 1 -> 9; }",
    "relation_unknown_arrow": "quiver C { vertices: 1; arrows: a: 1 -> 1; relations: a*z; }",
    "relation_not_composable": (
        "quiver C { vertices: 1, 2;\n arrows: a: 1 -> 2;\n relations: a*a; }"),
    "relation_twice": (
        "quiver C { vertices: 1; arrows: a: 1 -> 1; relations: a*a, a*a; }"),
    "special_unknown_vertex": "quiver C { vertices: 1; special: 9; }",
    "special_twice": "quiver C { vertices: 1; special: 1, 1; }",
}


def _diagnose(text, tmp_dir):
    path = Path(tmp_dir) / "input.q"
    path.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    code = run(["validate", str(path)], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(PARSE_ERRORS))
def test_parse_error_diagnostic(name, tmp_path):
    expected = json.loads((GOLDEN / "parse_errors.json").read_text(encoding="utf-8"))[name]
    code, stdout, stderr = _diagnose(PARSE_ERRORS[name], tmp_path)
    assert (code, stdout, stderr) == (expected["exit"], "", expected["stderr"])


def test_parse_error_table_covers_every_case():
    recorded = json.loads((GOLDEN / "parse_errors.json").read_text(encoding="utf-8"))
    assert set(recorded) == set(PARSE_ERRORS)


def _write_table(name, table):
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")


def _record():
    with tempfile.TemporaryDirectory() as tmp_dir:
        table = {}
        for name, text in PARSE_ERRORS.items():
            code, _, stderr = _diagnose(text, tmp_dir)
            table[name] = {"exit": code, "stderr": stderr}
        _write_table("parse_errors", table)
    for fixture in FIXTURE_NAMES:
        table = {}
        for cmd in commands(fixture):
            code, stdout = _run(fixture, cmd)
            table[" ".join(cmd)] = {"exit": code, "stdout": stdout}
        _write_table(fixture, table)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    os.environ.pop("QSG_ORACLE_CAP", None)
    _record()
