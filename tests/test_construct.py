import io
import random
from itertools import chain

import pytest

from conftest import fixture_path
from reference import build_g_pair, relation_free_paths, sign_swap

from skewgentle import (
    Arrow,
    BoundQuiver,
    GPresentation,
    InternalInconsistency,
    NameCollision,
    NotSkewedGentle,
    SgPresentation,
    SkewedGentleTriple,
    SkewGentleError,
    admissible_special_sets,
    basis,
    build_g_presentation,
    build_quiver,
    build_sg_presentation,
    build_sp_pair,
    dimension,
    parse,
    random_triple,
)
from skewgentle import construct
from skewgentle.cli import run
from skewgentle.construct import _require_valid, vertex_lifts


def test_sp_pair_fix_a2(fix_a, fix_a2):
    sp = build_sp_pair(fix_a2)
    assert sp.quiver.vertices == fix_a.pair.quiver.vertices
    assert set(sp.quiver.arrow_map) == {"a", "b", "sp_2"}
    loop = sp.quiver.arrow_map["sp_2"]
    assert loop.source == loop.target == "2"
    assert sp.relations == fix_a.pair.relations | {("sp_2", "sp_2")}


def test_sp_pair_empty_special(fix_a):
    assert build_sp_pair(fix_a) == fix_a.pair


def test_sp_pair_fix_b3(fix_b, fix_b3):
    sp = build_sp_pair(fix_b3)
    assert set(sp.quiver.arrow_map) == {"a", "b", "g", "sp_3"}
    assert sp.quiver.arrow_map["sp_3"].source == "3"


def test_sp_pair_loop_name_collision():
    quiver = build_quiver(["1", "2"], [Arrow("sp_1", "1", "2")])
    t = SkewedGentleTriple(BoundQuiver(quiver), frozenset({"1"}))
    sp = build_sp_pair(t)
    assert "sp_1_2" in sp.quiver.arrow_map


def test_sp_loop_takes_the_least_free_suffix(tmp_path):
    # sp_v and sp_v_2 ... sp_v_999 are arrows elsewhere; the triple is valid
    names = ["sp_v", *(f"sp_v_{k}" for k in range(2, 1000))]
    vertices = ", ".join(["v", *(f"u{i}, w{i}" for i in range(len(names)))])
    arrows = ", ".join(f"{name}: u{i} -> w{i}" for i, name in enumerate(names))
    path = tmp_path / "taken.q"
    path.write_text(f"quiver N {{ vertices: {vertices}; special: v; arrows: {arrows}; }}")
    out, err = io.StringIO(), io.StringIO()

    assert run(["construct", str(path), "--target", "sp"], out=out, err=err) == 0

    assert err.getvalue() == ""
    assert "sp_v_1000: v -> v" in out.getvalue()
    assert "sp_v_1000*sp_v_1000" in out.getvalue()


def test_sg_presentation_fix_a2(fix_a2):
    pres = build_sg_presentation(fix_a2)
    assert pres.vertex_names == ("1", "2+", "2-")
    assert pres.split == {"2+", "2-"}
    assert pres.arrows == (
        ("a@1@2+", "a", "1", "2+"), ("a@1@2-", "a", "1", "2-"),
        ("b@2+@1", "b", "2+", "1"), ("b@2-@1", "b", "2-", "1"),
    )
    assert pres.zero_relations == {
        ("a@1@2+", "b@2+@1"), ("a@1@2+", "b@2-@1"),
        ("a@1@2-", "b@2+@1"), ("a@1@2-", "b@2-@1"),
    }
    assert pres.comm_relations == {(("b@2+@1", "a@1@2+"), ("b@2-@1", "a@1@2-"))}


def test_sg_presentation_fix_b3(fix_b3):
    pres = build_sg_presentation(fix_b3)
    assert len(pres.vertex_names) == 4
    assert pres.split == {"3+", "3-"}
    assert len(pres.arrows) == 5
    assert len(pres.zero_relations) == 4
    assert pres.comm_relations == {(("g@3+@1", "b@2@3+"), ("g@3-@1", "b@2@3-"))}


def test_sg_presentation_no_special(fix_a):
    pres = build_sg_presentation(fix_a)
    assert len(pres.arrows) == len(fix_a.pair.quiver.arrows)
    assert len(pres.zero_relations) == len(fix_a.pair.relations)
    assert not pres.comm_relations and not pres.split


def test_g_pair_fix_a2(fix_a2):
    g = build_g_presentation(fix_a2)
    assert g.lifts == {"1": ("1+", "1-"), "2": ("2",)}
    assert g.arrows == [("a+", "1+", "2"), ("a-", "1-", "2"), ("b+", "2", "1+"), ("b-", "2", "1-")]
    assert g.relations == {"a+": "b+", "a-": "b-", "b+": "a-", "b-": "a+"}
    # a+ b+ and a- b- are the two threads: 3 vertices + 2 * 3 paths
    assert (g.dimension, g.longest) == (9, 2)


def test_g_pair_fix_b3(fix_b3):
    g = build_g_presentation(fix_b3)
    assert sorted(chain.from_iterable(g.lifts.values())) == ["1+", "1-", "2+", "2-", "3"]
    assert sorted(g.relations.items()) == [
        ("a+", "g+"), ("a-", "g-"),
        ("b+", "a+"), ("b-", "a-"),
        ("g+", "b-"), ("g-", "b+"),
    ]


def test_g_pair_no_special_is_doubling(fix_a):
    g = build_g_pair(fix_a)
    assert g.quiver.vertices == {"1+", "1-", "2+", "2-"}
    assert g.relations == {
        ("a+", "b+"), ("b+", "a+"), ("a-", "b-"), ("b-", "a-"),
    }
    # two disjoint relabeled copies: vertices and paths double
    assert len(relation_free_paths(g)) == 2 * len(relation_free_paths(fix_a.pair))
    assert len(g.quiver.vertices) == 2 * len(fix_a.pair.quiver.vertices)
    assert build_g_presentation(fix_a).dimension == 2 * dimension(fix_a, "gentle")


def test_g_pair_always_gentle_and_finite():
    for seed in range(60):
        t = random_triple(seed, 6, 7)
        g = build_g_pair(t)
        assert g.gentle_violations == ()
        assert g.walk.cycle is None


# Q^g of fix_a2: a+: 1+ -> 2, a-: 1- -> 2, b+: 2 -> 1+, b-: 2 -> 1-, with
# the relations a+*b+, a-*b-, b+*a- and b-*a+ (its vertex 2 is special).
# Each fault is the witness pass's violations on the mutated rows, or the
# cycle of its walk, as validate prints them: an SB2 item is an arrow with
# its free successors or predecessors, a G1 item an arrow with its
# relation partners on one side.
_BAD_LIFTS = {
    # c+ is a third arrow out of 2, free after a+ and a- and before them
    "SB1": ({"c+": ("2", "1+")}, (), (),
            "SB1: 2; SB2: a+, b+, c+; SB2: a-, b-, c+; SB2: c+, a+, a-"),
    "G1": ({}, (), [("b+", "a+")], "G1: a+, b+, b-; G1: b+, a+, a-"),
    "SB2 successor": ({}, [("b-", "a+")], (), "SB2: a+, b+, b-; SB2: b-, a+, a-"),
    # without b-, b+ is the one arrow out of 2, and a+ loses its partner
    "SB2 predecessor": ({"b-": None}, [("b+", "a-")], (), "SB2: b+, a+, a-"),
    "FD": ({}, [("a+", "b+")], (), "FD: a+, b+"),
    # as "SB2 predecessor", but b+ keeps a partner before it, c, that is no
    # arrow: taken as a relation, it would leave a+ and a- both running into b+
    "unresolved": ({"b-": None}, [("b+", "a-")], [("b+", "c")],
                   "relation names unknown arrow 'c'"),
}


@pytest.mark.parametrize("rule", list(_BAD_LIFTS))
@pytest.mark.parametrize("argv", [
    ["construct", "FILE", "--target", "g", "--format", "json"],
    ["construct", "FILE", "--target", "g", "--format", "text"],
    ["construct", "FILE", "--target", "g", "--format", "dot"],
    ["dim", "FILE", "--algebra", "g", "--oracle"],
])
def test_a_lift_that_breaks_a_rule_fails_the_commands_that_read_q_g(monkeypatch, rule, argv):
    # each mutation of Q^g's lift rows breaks one rule of a gentle pair of
    # finite dimension, or names no arrow, and the check the writers and the
    # oracle read raises
    arrows, dropped, added, fault = _BAD_LIFTS[rule]
    lift_arrows, lift_relations = construct.lift_arrows_to_g, construct.lift_relations_to_g
    monkeypatch.setattr(construct, "lift_arrows_to_g", lambda t: [
        *(a for a in lift_arrows(t) if a[0] not in arrows),
        *((name, *ends) for name, ends in arrows.items() if ends)])
    monkeypatch.setattr(construct, "lift_relations_to_g", lambda t: [
        *(r for r in lift_relations(t) if r not in dropped and not set(r) & set(arrows)),
        *added])
    message = f"associated pair of 'A' is not gentle/finite: {fault}"
    t = parse(fixture_path("fix_a2.q").read_text(encoding="utf-8"))
    with pytest.raises(InternalInconsistency) as raised:
        build_g_presentation(t)
    assert str(raised.value) == message

    out, err = io.StringIO(), io.StringIO()
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]
    assert run(argv, out=out, err=err) == 1
    assert err.getvalue() == f"error: {message}\n"
    # dim prints its count, over (Q, I1), before the oracle builds Q^g
    assert out.getvalue() == ("9\n" if argv[0] == "dim" else "")


def test_construction_counts():
    from conftest import all_fixture_triples

    triples = all_fixture_triples() + [random_triple(s, 6, 7) for s in range(40)]
    for t in triples:
        q = t.pair.quiver
        pres = build_sg_presentation(t)
        assert len(pres.vertex_names) == len(q.vertices) + len(t.special)
        expected_arrows = sum(
            2 ** ((a.source in t.special) + (a.target in t.special)) for a in q.arrows
        )
        assert len(pres.arrows) == expected_arrows
        g = build_g_presentation(t)
        assert sum(map(len, g.lifts.values())) == 2 * len(q.vertices) - len(t.special)
        assert len(g.arrows) == 2 * len(q.arrows)
        assert len(g.relations) == 2 * len(t.pair.relations)


def _assert_sign_swap_is_an_involution(t):
    """The sign swap, named from the triple alone, is an order-2
    automorphism of the built (Q^g, I^g) that fixes exactly the special
    vertices."""
    g = build_g_pair(t)
    vertex_map, arrow_map = sign_swap(t)
    assert set(vertex_map) == g.quiver.vertices
    assert set(arrow_map) == set(g.quiver.arrow_map)
    for m in (vertex_map, arrow_map):
        assert all(m[m[k]] == k for k in m)
    assert {v for v, w in vertex_map.items() if v == w} == set(t.special)
    for name, arrow in g.quiver.arrow_map.items():
        image = g.quiver.arrow_map[arrow_map[name]]
        assert (image.source, image.target) == (vertex_map[arrow.source], vertex_map[arrow.target])
    assert {(arrow_map[x], arrow_map[y]) for x, y in g.relations} == g.relations
    return vertex_map, arrow_map


def test_involution_fix_a2(fix_a2):
    vertex_map, arrow_map = _assert_sign_swap_is_an_involution(fix_a2)
    assert vertex_map == {"1+": "1-", "1-": "1+", "2": "2"}
    assert arrow_map == {"a+": "a-", "a-": "a+", "b+": "b-", "b-": "b+"}


def test_involution_all_special():
    t = SkewedGentleTriple(
        BoundQuiver(build_quiver(["1", "2"], [Arrow("a", "1", "2")])),
        frozenset({"1", "2"}),
    )
    vertex_map, arrow_map = _assert_sign_swap_is_an_involution(t)
    assert all(v == w for v, w in vertex_map.items())
    assert all(a != b for a, b in arrow_map.items())


def test_involution_is_order_two(fix_b3):
    _assert_sign_swap_is_an_involution(fix_b3)


def test_constructions_reject_invalid(fix_a):
    bad = SkewedGentleTriple(fix_a.pair, frozenset({"1", "2"}), name="A")
    for op in (build_sg_presentation, build_g_presentation):
        with pytest.raises(NotSkewedGentle):
            op(bad)


def test_signed_vertex_name_collision():
    quiver = build_quiver(["2", "2+"], [])
    t = SkewedGentleTriple(BoundQuiver(quiver), frozenset({"2"}))
    with pytest.raises(NameCollision):
        build_sg_presentation(t)

    # Every construction reports the least clashing name, the same way.
    quiver = build_quiver(["1", "1+", "1-", "2", "2-"], [])
    sg = SkewedGentleTriple(BoundQuiver(quiver), frozenset({"1", "2"}))
    g = SkewedGentleTriple(BoundQuiver(quiver), frozenset({"1+", "2-"}))
    cases = [(build_sg_presentation, sg, "Q^sg"), (basis, sg, "Q^sg"),
             (lambda t: dimension(t, "sg"), sg, "Q^sg"), (build_g_presentation, g, "Q^g")]
    for op, t, what in cases:
        with pytest.raises(NameCollision) as caught:
            op(t)
        assert str(caught.value) == f"{what} vertex name '1+' produced twice (from '1' and '1+')"


def _first_repeated_lift(vertices, split, what):
    """The collision rule by its definition: lift every vertex in sorted
    order and report the first name produced twice, or None."""
    seen = {}
    for base in sorted(vertices):
        for name in ((base + "+", base + "-") if base in split else (base,)):
            if name in seen:
                return f"{what} name {name!r} produced twice (from {seen[name]!r} and {base!r})"
            seen[name] = base
    return None


def test_vertex_lifts_report_the_first_repeated_name():
    pool = ["1", "1+", "1-", "1++", "1+-", "1-+", "x", "x-", "x--", "x-+", "y+"]
    rng = random.Random(0)
    clashes = 0
    for _ in range(2000):
        vertices = rng.sample(pool, rng.randint(1, len(pool)))
        split = frozenset(v for v in vertices if rng.random() < 0.5)
        t = SkewedGentleTriple(BoundQuiver(build_quiver(vertices, [])), split)
        expected = _first_repeated_lift(vertices, split, "Q^sg vertex")
        if expected is None:
            lifts = vertex_lifts(t, split, "Q^sg vertex")
            assert sorted(name for v in lifts for name in lifts[v]) == sorted(
                n for v in vertices for n in ((v + "+", v + "-") if v in split else (v,)))
        else:
            clashes += 1
            with pytest.raises(NameCollision) as caught:
                vertex_lifts(t, split, "Q^sg vertex")
            assert str(caught.value) == expected
    assert clashes > 500


def test_comm_relations_flip_only_the_middle():
    for seed in range(40):
        t = random_triple(seed, 6, 7)
        pres = build_sg_presentation(t)
        ends = {name: (src, tgt) for name, _, src, tgt in pres.arrows}
        for plus, minus in pres.comm_relations:
            (plus_late, plus_first), (minus_late, minus_first) = (
                (ends[later], ends[first]) for later, first in (plus, minus))
            # shared outer endpoints
            assert plus_first[0] == minus_first[0]
            assert plus_late[1] == minus_late[1]
            # middle vertex differs exactly in its sign
            assert plus_first[1] == plus_late[0]
            assert minus_first[1] == minus_late[0]
            assert plus_first[1].endswith("+")
            assert minus_first[1].endswith("-")
            assert plus_first[1][:-1] == minus_first[1][:-1]


def test_sp_loops_iff_special_generated():
    for seed in range(40):
        t = random_triple(seed, 6, 7)
        base_arrows = set(t.pair.quiver.arrow_map)
        sp = build_sp_pair(t)
        fresh_loops = {
            a.source for a in sp.quiver.arrows
            if a.name not in base_arrows and a.source == a.target
        }
        assert fresh_loops == set(t.special)


def test_involution_preserves_relations_randomized():
    for seed in range(40):
        t = random_triple(seed, 6, 7)
        _assert_sign_swap_is_an_involution(t)
        for special in admissible_special_sets(t.pair)[1:4]:
            _assert_sign_swap_is_an_involution(SkewedGentleTriple(t.pair, frozenset(special)))


# The two constructions as they were before their lift tables, kept whole as
# the reference: each lift a (vertex, sign) pair, each name made by its own
# f-string, and Q^sg emitted as plain names.

def _reference_sg_name(base, source, target):
    return f"{base}@{source}@{target}"


def _signed(lift):
    return lift[0] + lift[1]


def _reference_vertex_lifts(t, split, what):
    q = t.pair.quiver
    clashes = [v + s for v in split for s in "+-" if v + s in q.vertices and v + s not in split]
    if clashes:
        name = min(clashes)
        raise NameCollision(f"{what} name {name!r} produced twice (from {name[:-1]!r} and {name!r})")
    return {v: ((v, "+"), (v, "-")) if v in split else ((v, ""),) for v in q.vertex_list}


def _reference_build_sg_presentation(t):
    _require_valid(t)
    base = t.pair
    q = base.quiver
    lifts = _reference_vertex_lifts(t, t.special, "Q^sg vertex")

    vertices = [sv for v in q.vertex_list for sv in lifts[v]]
    arrows = tuple(
        (_reference_sg_name(a.name, _signed(src), _signed(tgt)), a.name, _signed(src), _signed(tgt))
        for a in sorted(q.arrows, key=lambda a: a.name)
        for src in lifts[a.source]
        for tgt in lifts[a.target]
    )
    if len({arrow[0] for arrow in arrows}) != len(arrows):
        raise NameCollision("derived Q^sg arrow names are not distinct")

    zero = set()
    comm = set()
    amap = q.arrow_map
    for x, y in base.relation_list:
        ax, ay = amap[x], amap[y]
        middle = ay.target
        for outer_src in map(_signed, lifts[ay.source]):
            for outer_tgt in map(_signed, lifts[ax.target]):
                if middle in t.special:
                    plus, minus = map(_signed, lifts[middle])
                    comm.add((
                        (_reference_sg_name(x, plus, outer_tgt),
                         _reference_sg_name(y, outer_src, plus)),
                        (_reference_sg_name(x, minus, outer_tgt),
                         _reference_sg_name(y, outer_src, minus)),
                    ))
                else:
                    mid = _signed(lifts[middle][0])
                    zero.add((_reference_sg_name(x, mid, outer_tgt),
                              _reference_sg_name(y, outer_src, mid)))
    names = tuple(sorted(map(_signed, vertices)))
    split = frozenset(_signed(sv) for sv in vertices if sv[1])
    return SgPresentation(names, split, arrows, frozenset(zero), frozenset(comm))


def _reference_g_endpoint(v, sign, special):
    return v if v in special else v + sign


def _reference_build_g_pair(t):
    _require_valid(t)
    q = t.pair.quiver
    lifts = _reference_vertex_lifts(t, q.vertices - t.special, "Q^g vertex")
    names = {v: tuple(map(_signed, lifts[v])) for v in q.vertex_list}

    arrows = []
    for a in sorted(q.arrows, key=lambda a: a.name):
        for sign in ("+", "-"):
            arrows.append(Arrow(a.name + sign,
                                _reference_g_endpoint(a.source, sign, t.special),
                                _reference_g_endpoint(a.target, sign, t.special)))

    relations = set()
    for x, y in t.pair.relation_list:
        middle = q.arrow_map[y].target
        if middle in t.special:
            relations.add((x + "+", y + "-"))
            relations.add((x + "-", y + "+"))
        else:
            relations.add((x + "+", y + "+"))
            relations.add((x + "-", y + "-"))

    vertices = sorted(name for lifted in names.values() for name in lifted)
    pair = BoundQuiver(build_quiver(vertices, arrows), frozenset(relations))
    if pair.gentle_violations or pair.walk.cycle is not None:
        raise InternalInconsistency(
            f"associated pair of {t.name!r} is not gentle/finite: {list(pair.gentle_violations)}"
        )
    paths = relation_free_paths(pair)
    return ([(a.name, a.source, a.target) for a in arrows], sorted(pair.relations),
            list(names.items()), len(vertices) + len(paths), max(map(len, paths), default=0))


def _outcome(build, t):
    """What a construction gives, compared field by field, or its error.
    Q^sg compares as its record, whose arrows are a tuple, in order, and Q^g
    as its arrows in order, its relations sorted, its lift table, its
    dimension and its longest path."""
    try:
        made = build(t)
    except SkewGentleError as e:
        return type(e), str(e)
    if isinstance(made, SgPresentation):
        return made, made.arrows
    if isinstance(made, GPresentation):
        return (made.arrows, sorted(made.relations.items()), list(made.lifts.items()),
                made.dimension, made.longest)
    return made


def _construction_cases():
    for seed in range(300):
        t = random_triple(seed, 8, 11)
        yield t
        for special in admissible_special_sets(t.pair)[1:4]:
            yield SkewedGentleTriple(t.pair, frozenset(special), name=f"R{seed}")
    for n in range(2, 13):
        vs = [f"v{i}" for i in range(n)]
        arrows = [Arrow(f"a{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
        relations = frozenset((arrows[(i + 1) % n].name, arrows[i].name) for i in range(n))
        pair = BoundQuiver(build_quiver(vs, arrows), relations)
        for k in range(1, n + 1):  # k = 1: every vertex special, not skewed-gentle
            yield SkewedGentleTriple(pair, frozenset(vs[::k]), name=f"C{n}k{k}")
    for vertices, special in [(["2", "2+"], {"2"}), (["1", "1+", "1-", "2", "2-"], {"1", "2"}),
                              (["1", "1+", "1-", "2", "2-"], {"1+", "2-"}),
                              (["x", "x-", "x+", "y"], {"x-"}), (["x", "x-", "x+", "y"], {"x"}),
                              (["a", "a+", "b", "b-"], {"a", "b-"})]:  # both clash
        yield SkewedGentleTriple(BoundQuiver(build_quiver(vertices, [])), frozenset(special))
    # names a library caller may choose: two lifts named "a@p@q@r"
    clash = build_quiver(["p", "q@r", "q", "r"], [Arrow("a", "p", "q@r"), Arrow("a@p", "q", "r")])
    yield SkewedGentleTriple(BoundQuiver(clash), frozenset())
    # signed-looking names that stay distinct: Q^g has the arrows a+, a-,
    # a++, a+-, a-+, a--, a+-+, a+-- and the vertices v+, v-, v++, v+-, ...
    line = build_quiver(["v", "v+", "w", "x", "y"],
                        [Arrow("a", "v", "v+"), Arrow("a+", "v+", "w"),
                         Arrow("a-", "w", "x"), Arrow("a+-", "x", "y")])
    yield SkewedGentleTriple(BoundQuiver(line, frozenset({("a-", "a+")})), frozenset({"w"}))
    # Q^g splits u into u+ and u-, while u+ is special and keeps its name
    yield SkewedGentleTriple(BoundQuiver(build_quiver(["u", "u+"], [])), frozenset({"u+"}))


def test_constructions_match_their_reference():
    outcomes = []
    for t in _construction_cases():
        for build, reference in ((build_g_presentation, _reference_build_g_pair),
                                 (build_sg_presentation, _reference_build_sg_presentation)):
            outcome = _outcome(build, t)
            assert outcome == _outcome(reference, t), (t.name, build.__name__)
            outcomes.append(outcome[0] if isinstance(outcome[0], type) else "built")
            if isinstance(outcome[0], SgPresentation):
                for arrow in outcome[1]:
                    assert type(arrow) is tuple and len(arrow) == 4
                    assert arrow[0] == _reference_sg_name(*arrow[1:])
    assert outcomes.count("built") > 2000
    assert outcomes.count(NameCollision) == 9
