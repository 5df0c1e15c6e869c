"""Each triple is decided once, each derived pair is built once per command,
``spset`` decides no subset through the definition, the oracle ranks rows
only for commutativity flips and ranks nothing without them, paths are
listed only where the output lists them, source positions are computed only
for a diagnostic, and a command builds no argument parser."""

import argparse
import io
import sys

import pytest

from conftest import fixture_path

from skewgentle import ParseError, algebra, construct, dsl, quiver, validate
from skewgentle.cli import run


def _count_calls(monkeypatch, fn):
    """Route every package reference to ``fn`` through a recorder of (arg, result)."""
    calls = []

    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args[0], result))
        return result

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "skewgentle" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("argv,triples", [
    (["invariants", "FILE", "--dims", "--json"], 1),
    (["reduce", "FILE", "--vertex", "2"], 2),  # the triple and its reduced triple
])
def test_one_decision_per_triple(monkeypatch, argv, triples):
    decisions = _count_calls(monkeypatch, validate.validate_skewed_gentle)
    sp_builds = _count_calls(monkeypatch, construct.build_sp_pair)
    gentle_checks = _count_calls(monkeypatch, validate.is_gentle)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(decisions) == triples
    assert len(sp_builds) == triples
    checked = [bq for bq, _ in gentle_checks]
    assert len({id(bq) for bq in checked}) == len(checked), "a pair was checked twice"
    for _, sp in sp_builds:
        assert sum(bq is sp for bq in checked) == 1


@pytest.mark.parametrize("argv,listings", [
    (["dim", "FILE", "--algebra", "gentle"], 0),
    (["dim", "FILE", "--algebra", "sg"], 0),
    (["dim", "FILE", "--algebra", "g"], 0),
    (["invariants", "FILE", "--dims", "--json"], 0),
    (["reduce", "FILE", "--vertex", "2"], 1),  # the basis printed as t1/t2
])
def test_paths_listed_only_for_the_basis(monkeypatch, argv, listings):
    listed = _count_calls(monkeypatch, quiver.relation_free_paths)
    bases = _count_calls(monkeypatch, algebra.basis)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(listed) == listings
    assert len(bases) == listings
    for (bq, _), (t, _) in zip(listed, bases):
        assert bq is t.admissible_pair


def test_spset_decides_no_subset_through_the_definition(monkeypatch):
    decisions = _count_calls(monkeypatch, validate.validate_skewed_gentle)
    sp_builds = _count_calls(monkeypatch, construct.build_sp_pair)

    assert run(["spset", str(fixture_path("fix_b.q"))], out=io.StringIO(), err=io.StringIO()) == 0

    assert decisions == []
    assert sp_builds == []


@pytest.mark.parametrize("which,rows", [("g", 0), ("sg", 2)])
def test_oracle_rows_only_for_commutativity_flips(monkeypatch, which, rows):
    # a path through a zero relation is dropped, not given a row of its own;
    # fix_a2's Q^g has no commutativity relations; its Q^sg has one, which
    # flips a path each way
    ranked = _count_calls(monkeypatch, algebra._rank)
    argv = ["dim", str(fixture_path("fix_a2.q")), "--algebra", which, "--oracle"]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert sum(len(r) for r, _ in ranked) == rows


@pytest.mark.parametrize("argv", [
    ["dim", "FILE", "--algebra", "sg", "--oracle"],
    ["invariants", "FILE", "--dims"],
])
def test_oracle_ranks_nothing_without_commutativity_relations(monkeypatch, tmp_path, argv):
    # a free line has no special vertex, so no degree has a flip to rank
    line = tmp_path / "a40.q"
    vertices = ", ".join(f"v{i}" for i in range(40))
    arrows = ", ".join(f"a{i}: v{i} -> v{i + 1}" for i in range(39))
    line.write_text(f"quiver A {{ vertices: {vertices}; arrows: {arrows}; }}")
    ranked = _count_calls(monkeypatch, algebra._rank)
    argv = [str(line) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert ranked == []


def test_parse_builds_a_source_span_only_for_a_diagnostic(monkeypatch):
    made, source_span = [], dsl.SourceSpan

    def counted(*args):
        made.append(args)
        return source_span(*args)

    monkeypatch.setattr(dsl, "SourceSpan", counted)
    dsl.parse(fixture_path("fix_a2.q").read_text(encoding="utf-8"))
    assert made == []

    with pytest.raises(ParseError):
        dsl.parse("quiver C {\n}")
    assert made == [(2, 2, 1)]


def test_a_command_builds_no_parser_and_parses_its_input_once(monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    parsed = _count_calls(monkeypatch, dsl.parse)

    assert run(["validate", str(fixture_path("fix_a2.q"))], out=io.StringIO(),
               err=io.StringIO()) == 0

    assert built == []
    assert len(parsed) == 1
