"""Each triple is decided once, by the local rule and one walk, a drawn
triple keeps the generator's verdict and its draw builds no index of arrows
by end, and Q^sp is
built only for a failure's witnesses or where it is read; each derived pair
is built once per command, ``spset`` decides no subset through the
definition and builds no set it drops, the oracle joins paths only at
commutativity flips, takes no quotient step without them and about one find
step per junction, paths are listed only where the output lists them, a
command's counts are one pass over the verdict's walk of (Q, I1), Q^g is
held as its lift rows and never as a pair, its arrow rows made only where
they are read and its signed arrow names once, a report's g descriptor is
computed once, valid text is parsed without tokens and without the per-item
integrity rules, source positions are computed
only for a diagnostic, a pair's relations are checked once, each lift
table is made once per triple and split, a valid command's pairs
are decided gentle from their counts, with no witness pass and no index of
arrows by end or of relations, a plainly written command
builds no argument parser and calls none, and a command calls the renderer
its module holds at the call."""

import argparse
import io
import sys
from functools import cached_property
from pathlib import Path

import pytest

from conftest import fixture_path, free_line, special_line

from skewgentle import (
    ParseError,
    algebra,
    build_invariant_report,
    construct,
    cycles,
    dimension,
    dimension_oracle,
    dsl,
    generate,
    quiver,
    validate,
)
from skewgentle import cli
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
    gentle_checks = _count_calls(monkeypatch, validate._gentle_witnesses)
    indexes = _count_builds(monkeypatch, [(quiver.Quiver, "outgoing"), (quiver.Quiver, "incoming"),
                                          (quiver.BoundQuiver, "relations_before"),
                                          (quiver.BoundQuiver, "relations_after")])
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(decisions) == triples
    # the oracle of --dims reads its length bound off the base pair
    assert sp_builds == []
    # every pair is gentle: decided from its counts, with no witness pass
    # and no general index of arrows by end or of relations
    assert gentle_checks == []
    assert indexes == []


def _count_builds(monkeypatch, properties):
    """Record the name of each of the cached ``properties`` (class, name) as it is built."""
    built = []
    for cls, name in properties:
        make = cls.__dict__[name].func

        def counted(self, make=make, name=name):
            built.append(name)
            return make(self)

        prop = cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    return built


def test_a_drawn_triple_keeps_its_verdict(monkeypatch):
    verdicts = _count_calls(monkeypatch, validate._is_skewed_gentle)
    reports = _count_calls(monkeypatch, validate.validate_skewed_gentle)

    t = generate.random_triple(7, 8, 11)  # drawn at the 7th attempt
    assert t.validation.skewed_gentle

    # one verdict per attempt, and one report, made for the drawn triple
    # (whose verdict it reads again) before it is returned, and kept on it
    [(reported, _)] = reports
    assert reported is t
    drawn = [arg for arg, _ in verdicts]
    assert len(drawn) == 8 and drawn[6] is drawn[7] is t
    assert sum(arg is t for arg in drawn) == 2
    assert [accepted for _, accepted in verdicts] == [False] * 6 + [True, True]


def test_a_draw_builds_no_index_of_arrows_by_end(monkeypatch):
    # each attempt reads the arrows at a vertex as it drew them
    indexes = _count_builds(monkeypatch, [(quiver.Quiver, "outgoing"), (quiver.Quiver, "incoming")])
    generate.random_triple(7, 8, 11)  # drawn at the 7th attempt
    assert indexes == []


@pytest.mark.parametrize("name,valid", [("fixtures/fix_a2.q", True), ("golden/bad_g1.q", False)])
def test_validate_builds_q_sp_only_for_a_failure(monkeypatch, name, valid):
    decisions = _count_calls(monkeypatch, validate.validate_skewed_gentle)
    sp_builds = _count_calls(monkeypatch, construct.build_sp_pair)
    gentle_checks = _count_calls(monkeypatch, validate._gentle_witnesses)

    path = Path(__file__).parent / name
    assert run(["validate", str(path)], out=io.StringIO(), err=io.StringIO()) == (0 if valid else 1)

    [(t, _)] = decisions
    if valid:
        # the counted decision accepts the pair: no witness pass
        assert sp_builds == [] and gentle_checks == []
    else:
        # the witness pass runs once on each pair the counted decision rejects
        [(_, sp)] = sp_builds
        assert [bq for bq, _ in gentle_checks] == [t.pair, sp]


def test_successors_of_a_fan_look_each_partner_up_once():
    # a: p -> q, k arrows z_i: q -> r_i and every z_i*a zero but z_0*a: q
    # has k arrows out, so the decision rejects the pair and its successors,
    # and Q^sp's, are read off the general index, where a has k - 1
    # partners after it.  Looked up in a set, the k arrows out of q need no
    # name comparison; scanned in a tuple, about k^2 / 2 per pair.
    compared = []

    class Name(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            compared.append(self)
            return str.__eq__(self, other)

    k = 500
    a, zs = Name("a"), [Name(f"z{i}") for i in range(k)]
    vertices = ["p", "q", *(f"r{i}" for i in range(k))]
    arrows = [quiver.Arrow(a, "p", "q"), *(quiver.Arrow(z, "q", f"r{i}") for i, z in enumerate(zs))]
    bq = quiver.BoundQuiver(quiver.build_quiver(vertices, arrows),
                            frozenset((z, a) for z in zs[1:]))
    t = quiver.SkewedGentleTriple(bq)

    report = validate.validate_skewed_gentle(t)

    assert len(compared) <= k
    assert [(v.rule, v.items) for v in report.violations] == [
        ("G1", (a, *sorted(zs[1:]))), ("SB1", ("q",))]
    assert bq.successors["a"] == t.sp_pair.successors["a"] == ("z0",)


def test_verdict_is_one_walk_and_no_reachability_check(monkeypatch):
    # a full-relation line whose interior vertices are all special, named so
    # that name order runs against the line: the verdict walks the arrows
    # once, with the loops' edges, and runs no search for the rings that
    # spset reads
    n = 2000
    names = [f"{n - 1 - i:04d}" for i in range(n)]
    arrows = [quiver.Arrow(f"a{names[i]}", names[i], names[i + 1]) for i in range(n - 1)]
    relations = {(arrows[i + 1].name, arrows[i].name) for i in range(n - 2)}
    bq = quiver.BoundQuiver(quiver.build_quiver(names, arrows), frozenset(relations))
    t = quiver.SkewedGentleTriple(bq, frozenset(names[1:-1]))
    ring_searches = _count_calls(monkeypatch, validate._rings)
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

    assert ring_searches == []
    # only the walk with an edge per special vertex: acyclic with those
    # edges, the base pair is acyclic without them
    [looked] = walks
    assert sorted(looked) == sorted(a.name for a in arrows)


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_full_cycles_read_each_follower_once(monkeypatch, n, special):
    # the line L_n has no relation cycle, yet every arrow but the last has a
    # follower: a walk restarted at every arrow reads about n^2 / 2 of them
    t = special_line(n)
    if not special:
        t = quiver.SkewedGentleTriple(t.pair, frozenset(), t.name)
    reads, walk = [], quiver._chain_cycles

    class Looked(dict):
        def get(self, key, default=None):
            reads[-1].append(key)
            return dict.get(self, key, default)

        def __getitem__(self, key):
            reads[-1].append(key)
            return dict.__getitem__(self, key)

        def __contains__(self, key):
            reads[-1].append(key)
            return dict.__contains__(self, key)

    def counted(follower):
        reads.append([])
        return walk(Looked(follower))

    monkeypatch.setattr(cycles, "_chain_cycles", counted)

    assert cycles.gldim_flags(cycles.descriptors(t)) == {"gentle": True, "sg": True, "g": True}

    # the base pair's cycles, then those of Q^g's lifted relations
    assert len(reads) == 2
    lifted = [name for name, _, _ in construct.lift_arrows_to_g(t)]
    for looked, arrows in zip(reads, (t.pair.quiver.arrow_map, lifted)):
        assert len(looked) == len(set(looked)), "an arrow's follower was read twice"
        assert set(looked) <= set(arrows)


@pytest.mark.parametrize("argv,bases", [
    (["dim", "FILE", "--algebra", "gentle"], 0),
    (["dim", "FILE", "--algebra", "sg"], 0),
    (["dim", "FILE", "--algebra", "g"], 0),
    (["invariants", "FILE", "--dims", "--json"], 0),
    (["reduce", "FILE", "--vertex", "2"], 0),  # the corner is counted
    (["reduce", "FILE", "--vertex", "2", "--json"], 0),  # and t1/t2 walk from a's arrows
])
def test_paths_listed_only_for_the_basis(monkeypatch, argv, bases):
    made = _count_calls(monkeypatch, algebra.basis)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(made) == bases


@pytest.mark.parametrize("argv,fn,calls", [
    # the verdict's walk alone: the three counts are one pass over it, the
    # base pair's along its own successors, the sg oracle's length bound
    # reads it too, and the g count is checked on Q^g's free threads
    (["invariants", "FILE", "--dims", "--json"], quiver._walk, 1),
    # dim Gamma, M, N, M' and N' in one pass over (Q, I1) and dim Gamma'
    # in one over the reduced triple's walk, and no path listed
    (["reduce", "FILE", "--vertex", "2"], quiver.path_sums, 2),
    # the verdict's walk, which (Q, I1) keeps, and the reduced triple's,
    # which is the base pair's
    (["reduce", "FILE", "--vertex", "2"], quiver._walk, 2),
    (["dim", "FILE", "--algebra", "sg"], quiver._walk, 1),
    # the g count is two sign lifts of each path of (Q, I1): no Q^g
    (["dim", "FILE", "--algebra", "g"], quiver._walk, 1),
    (["dim", "FILE", "--algebra", "g"], construct.lift_arrows_to_g, 0),
    # t1/t2 only where the output lists them
    (["reduce", "FILE", "--vertex", "2"], algebra._corner_basis, 0),
    (["reduce", "FILE", "--vertex", "2", "--json"], algebra._corner_basis, 2),
    # the g flag reads Q^g's lifted relations alone; only the check of the
    # g count under --dims reads its arrow rows
    (["invariants", "FILE"], construct.lift_arrows_to_g, 0),
    (["invariants", "FILE", "--json"], construct.lift_arrows_to_g, 0),
    (["invariants", "FILE", "--dims", "--json"], construct.lift_arrows_to_g, 1),
    # the verdict's walk alone: the cycles of a valid triple are read with
    # no walk of the base pair
    (["invariants", "FILE"], quiver._walk, 1),
    (["invariants", "FILE", "--json"], quiver._walk, 1),
    # (appended, so that earlier case ids keep their numbers)
    (["invariants", "FILE", "--dims", "--json"], quiver.path_sums, 1),
    # the base pair's count follows its successors in the verdict's walk
    (["dim", "FILE", "--algebra", "gentle"], quiver._walk, 1),
    # the g descriptor from cycle parities, once per report
    (["invariants", "FILE"], cycles.descriptor_g, 1),
    (["invariants", "FILE", "--dims", "--json"], cycles.descriptor_g, 1),
])
def test_sg_layer_reads_what_the_triple_holds(monkeypatch, argv, fn, calls):
    made = _count_calls(monkeypatch, fn)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(made) == calls


def test_q_g_signed_arrow_names_are_made_once(fix_a2):
    # the lift rules of Q^g's relations, its arrows and its cycles read the
    # names a+ and a- from the one table the triple keeps
    report = build_invariant_report(fix_a2, with_dims=True)
    names = {id(name) for pair in fix_a2.g_arrow_names.values() for name in pair}
    assert len(names) == 2 * len(fix_a2.pair.quiver.arrows)
    assert {id(name) for name, _, _ in fix_a2.g_presentation.arrows} == names
    before, _ = fix_a2.g_partners
    assert {id(name) for relation in before.items() for name in relation} == names
    assert {id(name) for cycle in cycles.lift_cycles(fix_a2) for name in cycle} == names
    assert report.descriptors["g"].shifts == (4,)


@pytest.mark.parametrize("argv,read", [
    (["dim", "FILE", "--algebra", "g", "--oracle"], {"lifts", "arrows", "relations", "longest"}),
    (["construct", "FILE", "--target", "g", "--format", "json"], {"lifts", "arrows", "relations"}),
    (["construct", "FILE", "--target", "g", "--format", "text"], {"lifts", "arrows", "relations"}),
    # DOT draws Q^g's unsigned vertices doubled, the one-name entries of its lift table
    (["construct", "FILE", "--target", "g", "--format", "dot"], {"lifts", "arrows", "relations"}),
])
def test_g_labels_are_made_only_when_read(monkeypatch, argv, read):
    # Q^g is made once, as its lift rows, its lift table the one label of
    # its vertices: no command makes a label per vertex or arrow, and each
    # reads only what it writes or counts
    fields = []

    class Watched(construct.GPresentation):
        def __getattribute__(self, name):
            if name in construct.GPresentation._fields:
                fields.append(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(construct, "GPresentation", Watched)
    built = _count_calls(monkeypatch, construct.build_g_presentation)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(built) == 1
    assert Watched._fields == ("lifts", "arrows", "relations", "dimension", "longest")
    assert set(fields) == read


@pytest.mark.parametrize("argv", [
    ["construct", "FILE", "--target", "g", "--format", "json"],
    ["construct", "FILE", "--target", "g", "--format", "text"],
    ["construct", "FILE", "--target", "g", "--format", "dot"],
    ["dim", "FILE", "--algebra", "g", "--oracle"],
    ["invariants", "FILE", "--dims", "--json"],
])
def test_q_g_is_no_pair(monkeypatch, argv):
    # once the file's pair is read, no Arrow, Quiver or BoundQuiver is made
    # (past parse, which makes its Arrows in C code, the package makes each
    # through its class, which calls __init__): Q^g is written, counted and
    # checked from its lift rows
    made, load = [], cli._load

    def loaded(path):
        t = load(path)
        for cls in (quiver.Arrow, quiver.Quiver, quiver.BoundQuiver):
            def counted(self, *args, init=cls.__init__, **kwargs):
                made.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return t

    monkeypatch.setattr(cli, "_load", loaded)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert made == []


def test_spset_decides_no_subset_through_the_definition(monkeypatch):
    decisions = _count_calls(monkeypatch, validate.validate_skewed_gentle)
    sp_builds = _count_calls(monkeypatch, construct.build_sp_pair)

    assert run(["spset", str(fixture_path("fix_b.q"))], out=io.StringIO(), err=io.StringIO()) == 0

    assert decisions == []
    assert sp_builds == []


def _two_cycles(k, isolated):
    """k disjoint full-relation 2-cycles a_i: p_i -> q_i, b_i: q_i -> p_i,
    each a ring of the candidates p_i and q_i, and isolated vertices z_j."""
    vertices = [*(f"p{i}, q{i}" for i in range(k)), *(f"z{j}" for j in range(isolated))]
    text = f"quiver N {{ vertices: {', '.join(vertices)};"
    if k:
        arrows = ", ".join(f"a{i}: p{i} -> q{i}, b{i}: q{i} -> p{i}" for i in range(k))
        relations = ", ".join(f"b{i}*a{i}, a{i}*b{i}" for i in range(k))
        text += f" arrows: {arrows}; relations: {relations};"
    return dsl.parse(text + " }").pair


@pytest.mark.parametrize("k,isolated,built", [
    (0, 16, 1),  # no ring: past {}, one combinations call per size
    (12, 0, 265721),  # 3^12 sets; a filter after combinations would visit 4^12
    (6, 4, 365),
])
def test_spset_builds_no_set_it_drops(monkeypatch, k, isolated, built):
    yielded, combinations = [], validate.combinations

    def recorded(pool, size):
        for subset in combinations(pool, size):
            yielded.append(subset)
            yield subset

    monkeypatch.setattr(validate, "combinations", recorded)

    sets = validate.admissible_special_sets(_two_cycles(k, isolated))

    assert len(sets) == 3 ** k * 2 ** isolated
    assert not any(f"p{i}" in s and f"q{i}" in s for s in sets for i in range(k))
    # every tuple combinations yields is returned, and the rest were built
    # one at a time: nothing is built and then dropped
    returned = {id(s) for s in sets}
    assert len(returned) == len(sets)
    assert len({id(s) for s in yielded} & returned) == len(yielded)
    assert len(sets) - len(yielded) == built


def _record_quotients(monkeypatch):
    """Each call of the oracle's quotient step, one per degree, as
    [paths, junction positions, find steps], each find step one call of
    ``_find``: it follows one parent pointer and calls itself for the next."""
    calls = []
    quotient, find = algebra._degree_dimension, algebra._find

    def counted_quotient(paths, flips, comm):
        calls.append([paths, flips, 0])
        return quotient(paths, flips, comm)

    def counted_find(parent, j):
        calls[-1][2] += 1
        return find(parent, j)

    monkeypatch.setattr(algebra, "_degree_dimension", counted_quotient)
    monkeypatch.setattr(algebra, "_find", counted_find)
    return calls


@pytest.mark.parametrize("which,flips", [("g", 0), ("sg", 2)])
def test_oracle_rows_only_for_commutativity_flips(monkeypatch, which, flips):
    # a path through a zero relation is dropped, not flipped or joined;
    # fix_a2's Q^g has no commutativity relations; its Q^sg has one, which
    # flips a path each way
    quotients = _record_quotients(monkeypatch)
    argv = ["dim", str(fixture_path("fix_a2.q")), "--algebra", which, "--oracle"]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert sum(len(at) for _, junctions, _ in quotients for at in junctions) == flips


@pytest.mark.parametrize("argv", [
    ["dim", "FILE", "--algebra", "sg", "--oracle"],
    ["invariants", "FILE", "--dims"],
])
def test_oracle_ranks_nothing_without_commutativity_relations(monkeypatch, tmp_path, argv):
    # a free line has no special vertex, so no degree has a flip to join
    line = tmp_path / "a40.q"
    line.write_text(free_line(40))
    quotients = _record_quotients(monkeypatch)
    argv = [str(line) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert quotients == []


@pytest.mark.parametrize("n", range(4, 14))
def test_oracle_union_find_steps_within_junctions_plus_paths(monkeypatch, n):
    # L_n is the densest case for commutativity junctions: at L_13 a degree
    # has 4096 paths and 40960 junctions.  Each flip is met at both ends and
    # joined from one, by one find; a link joins two components, so a degree
    # makes fewer links than it has paths.
    quotients = _record_quotients(monkeypatch)

    assert dimension_oracle(special_line(n), "sg") == dimension(special_line(n), "sg")

    assert sum(len(at) for _, junctions, _ in quotients for at in junctions)
    for paths, junctions, finds in quotients:
        most_links = len(paths) - 1
        assert finds + most_links <= sum(map(len, junctions)) + len(paths)


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
    built, argv_parsed = [], []
    init, parse_args = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counted_parse(self, *args, **kwargs):
        argv_parsed.append(args)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted_parse)
    parsed = _count_calls(monkeypatch, dsl.parse)

    assert run(["validate", str(fixture_path("fix_a2.q"))], out=io.StringIO(),
               err=io.StringIO()) == 0

    assert built == []
    assert argv_parsed == []  # a plainly written command line is read without argparse
    assert len(parsed) == 1


@pytest.mark.parametrize("argv,pairs", [
    # the file's pair only: (Q, I1) keeps the verdict's walk and relations
    # already checked, so it is built without checking them again
    (["dim", "FILE", "--algebra", "sg"], 1),
    (["dim", "FILE", "--algebra", "g"], 1),
    (["reduce", "FILE", "--vertex", "2"], 1),
    # Q^g, whose free threads --dims checks against the g count, is no pair
    (["invariants", "FILE", "--dims"], 1),
])
def test_relations_checked_once_per_pair(monkeypatch, argv, pairs):
    made, init = [], quiver.BoundQuiver.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(quiver.BoundQuiver, "__init__", counted)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(made) == pairs


def test_a_valid_parse_runs_no_item_rule(monkeypatch):
    # the constructors check whole sets and run the per-item rules only to
    # name a fault
    item_checks = _count_calls(monkeypatch, quiver._first_bad_item)
    texts = [fixture_path(name).read_text(encoding="utf-8")
             for name in ("fix_a.q", "fix_a2.q", "fix_b.q", "fix_c.q", "fix_d.q")]
    texts += [dsl.serialize(generate.random_triple(seed, 8, 11)) for seed in range(100)]
    texts.append(dsl.serialize(special_line(300)))

    for text in texts:
        dsl.parse(text)

    assert item_checks == []
    # a fault: the model names it, then parse names the first in written order
    with pytest.raises(ParseError, match="arrow 'b' ends at unknown vertex '3'"):
        dsl.parse("quiver Q { vertices: 1, 2; arrows: a: 1 -> 2, b: 2 -> 3; }")
    assert len(item_checks) == 2


@pytest.mark.parametrize("argv,tables", [
    # Q^sg's table for the sg count, basis and oracle, Q^g's for the g count and Q^g
    (["invariants", "FILE", "--dims", "--json"], 2),
    # the triple's Q^sg table and its reduced triple's
    (["reduce", "FILE", "--vertex", "2"], 2),
    (["reduce", "FILE", "--vertex", "2", "--json"], 2),
    (["construct", "FILE", "--target", "sg", "--format", "json"], 1),
    (["construct", "FILE", "--target", "g", "--format", "json"], 1),
])
def test_one_lift_table_per_triple_and_split(monkeypatch, argv, tables):
    made = _count_calls(monkeypatch, construct.vertex_lifts)
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    # each (triple, split) once: a table's split is its vertices with two lifts
    splits = {(id(t), frozenset(v for v, names in lifts.items() if len(names) == 2))
              for t, lifts in made}
    assert len(made) == len(splits) == tables


def test_the_renderer_is_read_from_the_module_at_each_call(monkeypatch):
    """The command line calls the renderer its module holds by name at the
    call, so a wrapper bound there (a tracer's, say) sees every rendering."""
    import skewgentle.cli as cli

    rendered = _count_calls(monkeypatch, cli.report_json)
    argv = ["construct", str(fixture_path("fix_a2.q")), "--target", "g", "--format", "json"]

    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

    assert len(rendered) == 1
