"""Each triple is decided once, by the local rule and one walk, and Q^sp is
built only for a failure's witnesses or where it is read; each derived pair
is built once per command, ``spset`` decides no subset through the
definition, the oracle ranks rows only for commutativity flips and ranks
nothing without them, paths are listed only where the output lists them,
the sg layer reads the walk of (Q, I1) and the listed corner it already
has, valid text is parsed without tokens, source positions are computed
only for a diagnostic, and a command builds no argument parser."""

import argparse
import io
import sys
from pathlib import Path

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
    # the oracle of --dims reads its length bound off the base pair
    assert sp_builds == []
    checked = [bq for bq, _ in gentle_checks]
    assert len({id(bq) for bq in checked}) == len(checked), "a pair was checked twice"


@pytest.mark.parametrize("name,valid", [("fixtures/fix_a2.q", True), ("golden/bad_g1.q", False)])
def test_validate_builds_q_sp_only_for_a_failure(monkeypatch, name, valid):
    decisions = _count_calls(monkeypatch, validate.validate_skewed_gentle)
    sp_builds = _count_calls(monkeypatch, construct.build_sp_pair)
    gentle_checks = _count_calls(monkeypatch, validate.is_gentle)

    path = Path(__file__).parent / name
    assert run(["validate", str(path)], out=io.StringIO(), err=io.StringIO()) == (0 if valid else 1)

    [(t, _)] = decisions
    assert [bq for bq, _ in gentle_checks][:1] == [t.pair]
    if valid:
        assert sp_builds == [] and len(gentle_checks) == 1
    else:
        [(_, sp)] = sp_builds
        assert [bq for bq, _ in gentle_checks] == [t.pair, sp]


def test_verdict_is_one_walk_and_no_reachability_check(monkeypatch):
    # a full-relation line whose interior vertices are all special, named so
    # that name order runs against the line: adding the loops' edges in that
    # order makes each per-extension reachability check walk the whole line
    n = 2000
    names = [f"{n - 1 - i:04d}" for i in range(n)]
    arrows = [quiver.Arrow(f"a{names[i]}", names[i], names[i + 1]) for i in range(n - 1)]
    relations = {(arrows[i + 1].name, arrows[i].name) for i in range(n - 2)}
    bq = quiver.BoundQuiver(quiver.build_quiver(names, arrows), frozenset(relations))
    t = quiver.SkewedGentleTriple(bq, frozenset(names[1:-1]))
    reached = _count_calls(monkeypatch, validate._reaches)
    walks, walk = [], quiver._walk

    class Looked(dict):
        def __getitem__(self, key):
            walks[-1].append(key)
            return dict.__getitem__(self, key)

    def counted(graph):
        walks.append([])
        return walk(Looked(graph))

    monkeypatch.setattr(quiver, "_walk", counted)

    assert validate.validate_skewed_gentle(t).skewed_gentle

    assert reached == []
    # only the walk with an edge per special vertex: acyclic with those
    # edges, the base pair is acyclic without them
    [looked] = walks
    assert sorted(looked) == sorted(a.name for a in arrows)


@pytest.mark.parametrize("argv,bases", [
    (["dim", "FILE", "--algebra", "gentle"], 0),
    (["dim", "FILE", "--algebra", "sg"], 0),
    (["dim", "FILE", "--algebra", "g"], 0),
    (["invariants", "FILE", "--dims", "--json"], 0),
    (["reduce", "FILE", "--vertex", "2"], 1),  # the basis printed as t1/t2
])
def test_paths_listed_only_for_the_basis(monkeypatch, argv, bases):
    # the basis reads its paths off the successor graph: no Path is listed
    listed = _count_calls(monkeypatch, quiver.relation_free_paths)
    made = _count_calls(monkeypatch, algebra.basis)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert listed == []
    assert len(made) == bases


@pytest.mark.parametrize("argv,fn,calls", [
    # the verdict's, the base pair's, (Q, I1)'s and Q^g's walks: the sg
    # oracle's length bound reads the walk of (Q, I1) that the sg count made
    (["invariants", "FILE", "--dims", "--json"], quiver._walk, 4),
    # only the reduced triple's sg count: the corner's S1 and S2 are its listed paths
    (["reduce", "FILE", "--vertex", "2"], quiver.count_relation_free_paths, 1),
])
def test_sg_layer_reads_what_the_triple_holds(monkeypatch, argv, fn, calls):
    made = _count_calls(monkeypatch, fn)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(made) == calls


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


def test_parse_tokenizes_only_for_a_diagnostic(monkeypatch):
    n = 240
    vertices = ", ".join(f"v{i}" for i in range(n))
    arrows = ", ".join(f"a{i}: v{i} -> v{(i + 1) % n}" for i in range(n))
    relations = ", ".join(f"a{(i + 1) % n}*a{i}" for i in range(n))
    text = (f"quiver C {{ vertices: {vertices}; special: v0;\n"
            f"  arrows: {arrows}; # a full-relation cycle\n relations: {relations}; }}")
    tokenized = _count_calls(monkeypatch, dsl._tokenize)

    assert len(dsl.parse(text).pair.relations) == n
    assert tokenized == []

    for bad in (text.replace("v0;", "v0"), text.replace("special: v0", "special: x")):
        with pytest.raises(ParseError):
            dsl.parse(bad)
    assert [arg for arg, _ in tokenized] == [text.replace("v0;", "v0"),
                                             text.replace("special: v0", "special: x")]


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
