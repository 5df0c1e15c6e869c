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
expression.

``tests/golden/spset_generated.json`` holds the exit code and the exact
stdout of ``spset FILE`` for the serialized ``random_triple(s, 9, 12)``,
s = 0..59.  It was recorded with the subset-by-subset enumeration, before
the admissible sets were found by the local rule and a reachability check.
``tests/golden/generated.json`` holds, for the same triples, the exit code
and the exact stdout of ``validate``, ``invariants --dims --json`` and
``reduce --vertex`` at the least special vertex (when there is one).  It was
recorded before the statement reader became one split per statement; each
file is also read with a comment after every ``,``, which must change no
byte of the output.  To record the tables again after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURES

from skewgentle import (
    Arrow,
    BoundQuiver,
    DanglingEndpoint,
    DuplicateName,
    NotComposable,
    SkewedGentleTriple,
    UnknownVertex,
    build_quiver,
    parse,
    random_triple,
    serialize,
)
from skewgentle.cli import run
from skewgentle.dsl import _Parser

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


def test_json_outputs_are_what_the_stdlib_encoder_writes():
    # every recorded JSON stdout, decoded and written again by this Python's
    # own encoder with sorted keys and indent 2, comes back unchanged
    tables = [json.loads((GOLDEN / f"{f}.json").read_text(encoding="utf-8")) for f in FIXTURE_NAMES]
    tables += json.loads((GOLDEN / "generated.json").read_text(encoding="utf-8")).values()
    outputs = [record["stdout"] for table in tables for command, record in table.items()
               if command.endswith("json") and record["stdout"]]
    assert len(outputs) == 66 + 60
    for out in outputs:
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


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


# The integrity cases of PARSE_ERRORS that the model itself rejects, with the
# class it raises; a relation or special vertex written twice is parse's own
# check, as the model holds both as sets.
MODEL_REJECTS = {
    "vertex_twice": DuplicateName,
    "arrow_twice": DuplicateName,
    "arrow_unknown_source": DanglingEndpoint,
    "arrow_unknown_target": DanglingEndpoint,
    "relation_unknown_arrow": UnknownVertex,
    "relation_not_composable": NotComposable,
    "special_unknown_vertex": UnknownVertex,
}


@pytest.mark.parametrize("name", sorted(MODEL_REJECTS))
def test_constructors_say_what_the_cli_says(name):
    # the same lists through the constructors: the same words, without the place
    _, stmts = _Parser(PARSE_ERRORS[name]).file()
    expected = json.loads((GOLDEN / "parse_errors.json").read_text(encoding="utf-8"))[name]
    with pytest.raises(MODEL_REJECTS[name]) as raised:
        quiver = build_quiver(stmts["vertices"], [Arrow(*a) for a in stmts.get("arrows", ())])
        pair = BoundQuiver(quiver, frozenset(stmts.get("relations", ())))
        SkewedGentleTriple(pair, frozenset(stmts.get("special", ())))
    assert re.sub(r"^parse error: \d+:\d+: ", "", expected["stderr"]) == f"{raised.value}\n"


GENERATED_SEEDS = range(60)


def _spset_generated(seed, tmp_dir):
    path = Path(tmp_dir) / f"random_{seed}.q"
    path.write_text(serialize(random_triple(seed, 9, 12)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = run(["spset", str(path)], out=out, err=err)
    return code, out.getvalue()


def test_spset_on_generated_triples(tmp_path):
    expected = json.loads((GOLDEN / "spset_generated.json").read_text(encoding="utf-8"))
    assert set(expected) == {str(s) for s in GENERATED_SEEDS}
    for seed in GENERATED_SEEDS:
        code, stdout = _spset_generated(seed, tmp_path)
        assert {"exit": code, "stdout": stdout} == expected[str(seed)], f"seed {seed}"


def _generated_commands(t):
    """The command lines run on one generated triple, FILE standing for its path."""
    cmds = [["validate", "FILE"], ["invariants", "FILE", "--dims", "--json"]]
    if t.special_list:
        cmds.append(["reduce", "FILE", "--vertex", t.special_list[0]])
    return cmds


def _generated(seed, tmp_dir, commented=False):
    """{command: {"exit", "stdout"}} on the serialized ``random_triple(seed, 9, 12)``;
    ``commented`` puts a comment holding ";" and "," after every comma."""
    t = random_triple(seed, 9, 12)
    text = serialize(t)
    if commented:
        text = text.replace(",", ",# x; y,\n")
    path = Path(tmp_dir) / f"random_{seed}.q"
    path.write_text(text, encoding="utf-8")
    table = {}
    for cmd in _generated_commands(t):
        out, err = io.StringIO(), io.StringIO()
        code = run([str(path) if arg == "FILE" else arg for arg in cmd], out=out, err=err)
        table[" ".join(cmd)] = {"exit": code, "stdout": out.getvalue()}
    return table


@pytest.mark.parametrize("commented", [False, True], ids=["plain", "commented"])
def test_commands_on_generated_triples(commented, tmp_path, monkeypatch):
    monkeypatch.delenv("QSG_ORACLE_CAP", raising=False)
    expected = json.loads((GOLDEN / "generated.json").read_text(encoding="utf-8"))
    assert set(expected) == {str(s) for s in GENERATED_SEEDS}
    for seed in GENERATED_SEEDS:
        assert _generated(seed, tmp_path, commented) == expected[str(seed)], f"seed {seed}"


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
        _write_table("spset_generated", {
            str(seed): dict(zip(("exit", "stdout"), _spset_generated(seed, tmp_dir)))
            for seed in GENERATED_SEEDS})
        _write_table("generated", {str(seed): _generated(seed, tmp_dir)
                                   for seed in GENERATED_SEEDS})
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
