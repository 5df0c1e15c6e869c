import io
import json
import random

import pytest
from hypothesis import given, settings

from conftest import crossing, in_star, out_star
from test_dsl import _triples

from skewgentle import (
    Arrow,
    BoundQuiver,
    NotGentle,
    SkewedGentleTriple,
    admissible_special_sets,
    build_quiver,
    build_sp_pair,
    parse,
    random_triple,
    validate_skewed_gentle,
)
from skewgentle.cli import run
from skewgentle.validate import ValidationReport, Violation, _local_rule, _rings


def _valency(q, v):
    """Arrow ends at v, from the definition: a loop counts twice."""
    return sum((a.source == v) + (a.target == v) for a in q.arrows)


def test_special_biserial_fix_a(fix_a):
    report = fix_a.validation
    assert report.special_biserial and not report.violations


def test_special_biserial_kronecker():
    q = build_quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    assert SkewedGentleTriple(BoundQuiver(q)).validation.special_biserial


def test_special_biserial_star_fails():
    report = SkewedGentleTriple(_star()).validation
    assert not report.special_biserial
    assert any(v.rule == "SB1" and v.items == ("0",) for v in report.violations)


def test_gentle_fixtures(fix_a, fix_b, fix_c):
    for t in (fix_a, fix_b, fix_c):
        assert t.pair.gentle_index is not None and t.pair.gentle_violations == ()


def test_gentle_fix_d_skeleton(fix_d):
    # The two-term relation of the original example cannot be written in
    # this language.  Its zero-relation skeleton is a genuinely different
    # algebra, and that one is gentle: at the branching vertex exactly one
    # of the two compositions is a relation.
    assert fix_d.pair.gentle_index is not None and fix_d.pair.gentle_violations == ()
    assert fix_d.pair.walk.cycle is None


def _star():
    return BoundQuiver(build_quiver(
        ["0", "1", "2", "3"],
        [Arrow("a", "0", "1"), Arrow("b", "0", "2"), Arrow("c", "0", "3")],
    ))


def _g1_violator(fix_d):
    return BoundQuiver(fix_d.pair.quiver, fix_d.pair.relations | {("b1", "al")})


def _sb2_violator(fix_d):
    return BoundQuiver(fix_d.pair.quiver, fix_d.pair.relations - {("b2", "al")})


def test_gentle_g1_violation(fix_d):
    doubled = _g1_violator(fix_d)
    assert doubled.gentle_index is None
    assert any(v.rule == "G1" and v.items[0] == "al" for v in doubled.gentle_violations)


def test_gentle_sb2_violation(fix_d):
    # dropping the zero relation leaves the branching vertex with two free
    # compositions after al
    dropped = _sb2_violator(fix_d)
    assert dropped.gentle_index is None
    assert any(v.rule == "SB2" and v.items[0] == "al" for v in dropped.gentle_violations)


def test_validate_fix_a2(fix_a2):
    report = validate_skewed_gentle(fix_a2)
    assert report.skewed_gentle
    assert report.special_biserial and report.gentle and report.finite_dimensional
    assert report.violations == ()


def test_validate_fix_a_both_special(fix_a):
    t = SkewedGentleTriple(fix_a.pair, frozenset({"1", "2"}), name="A")
    report = validate_skewed_gentle(t)
    assert not report.skewed_gentle
    assert report.gentle  # the base pair stays fine
    fd = [v for v in report.violations if v.rule == "FD"]
    assert fd, "expected a relation-free cycle witness"
    assert {"sp_1", "sp_2"} <= set(fd[0].items)


def test_validate_fix_b_all_special(fix_b):
    t = SkewedGentleTriple(fix_b.pair, frozenset({"1", "2", "3"}), name="B")
    assert not validate_skewed_gentle(t).skewed_gentle


def test_admissible_sets_fix_a(fix_a):
    assert admissible_special_sets(fix_a.pair) == [(), ("1",), ("2",)]


def test_admissible_sets_fix_b(fix_b):
    assert admissible_special_sets(fix_b.pair) == [
        (), ("1",), ("2",), ("3",), ("1", "2"), ("1", "3"), ("2", "3"),
    ]


def test_admissible_sets_fix_c(fix_c):
    assert admissible_special_sets(fix_c.pair) == [(), ("1",), ("2",), ("1", "2")]


def test_admissible_sets_requires_gentle(fix_a):
    free = BoundQuiver(fix_a.pair.quiver, frozenset())
    with pytest.raises(NotGentle):
        admissible_special_sets(free)


def test_empty_special_matches_gentle_check():
    for seed in range(40):
        t = random_triple(seed, 5, 6)
        base = SkewedGentleTriple(t.pair, frozenset())
        report = validate_skewed_gentle(base)
        gentle = not t.pair.gentle_violations
        assert report.skewed_gentle == (gentle and t.pair.walk.cycle is None)


def test_local_criterion_on_admissible_sets(fix_a, fix_b, fix_c):
    # every admissible special vertex has valency <= 2 and, at valency 2,
    # sits on a zero relation that does not come from a loop
    for t in (fix_a, fix_b, fix_c):
        q = t.pair.quiver
        for subset in admissible_special_sets(t.pair):
            for v in subset:
                assert _valency(q, v) <= 2
                if _valency(q, v) == 2:
                    ins = q.incoming[v]
                    outs = q.outgoing[v]
                    assert len(ins) == 1 and len(outs) == 1
                    assert outs[0].name != ins[0].name  # not a loop
                    assert (outs[0].name, ins[0].name) in t.pair.relations


def test_subsets_of_admissible_are_admissible(fix_a, fix_b, fix_c):
    from itertools import combinations

    for t in (fix_a, fix_b, fix_c):
        found = set(admissible_special_sets(t.pair))
        for subset in found:
            for size in range(len(subset)):
                for smaller in combinations(subset, size):
                    assert smaller in found


def test_sp_pair_loops_track_special(fix_a2, fix_b3):
    for t in (fix_a2, fix_b3):
        sp = build_sp_pair(t)
        loops = {a.source for a in sp.quiver.arrows if a.source == a.target}
        assert loops == set(t.special)


def test_random_triples_validate():
    for seed in range(60):
        report = validate_skewed_gentle(random_triple(seed, 6, 7))
        assert report.skewed_gentle
        assert report.violations == ()


# The checks as they were before the relation index: every relation is
# scanned for every arrow.  They are the reference for the indexed checks.

def _reference_special_biserial(bq):
    violations = []
    q = bq.quiver
    for v in q.vertex_list:
        if len(q.outgoing[v]) > 2 or len(q.incoming[v]) > 2:
            violations.append(Violation("SB1", (v,)))
    for a in sorted(q.arrows, key=lambda a: a.name):
        succ = [g for g in q.outgoing[a.target] if (g.name, a.name) not in bq.relations]
        if len(succ) > 1:
            violations.append(Violation("SB2", (a.name, *(g.name for g in succ))))
        pred = [b for b in q.incoming[a.source] if (a.name, b.name) not in bq.relations]
        if len(pred) > 1:
            violations.append(Violation("SB2", (a.name, *(b.name for b in pred))))
    return not violations, violations


def _reference_gentle(bq):
    ok, violations = _reference_special_biserial(bq)
    for name in sorted(bq.quiver.arrow_map):
        rel_pred = sorted(y for x, y in bq.relations if x == name)
        if len(rel_pred) > 1:
            violations.append(Violation("G1", (name, *rel_pred)))
        rel_succ = sorted(x for x, y in bq.relations if y == name)
        if len(rel_succ) > 1:
            violations.append(Violation("G1", (name, *rel_succ)))
    return not violations, violations


def _assert_matches_reference(bq):
    # special biserial: no gentle violation but G1 ones
    violations = list(bq.gentle_violations)
    sb = [v for v in violations if v.rule != "G1"]
    assert (not sb, sb) == _reference_special_biserial(bq)
    assert (not violations, violations) == _reference_gentle(bq)
    assert (bq.gentle_index is not None) == (not violations)


def test_indexed_checks_match_reference_on_random_triples():
    for seed in range(200):
        t = random_triple(seed, 6, 7)
        q = t.pair.quiver
        # invalid variants: every vertex special (SB1, SB2), every 2-path zero (G1)
        every = SkewedGentleTriple(t.pair, q.vertices)
        zero = BoundQuiver(q, frozenset((x.name, y.name)
                                        for y in q.arrows for x in q.outgoing[y.target]))
        for bq in (t.pair, build_sp_pair(t), build_sp_pair(every), zero):
            _assert_matches_reference(bq)


def _loop_violator():
    # a loop x with x*x, x*w and y*x: two relation partners on each side
    return parse("quiver O { vertices: u, v, t; arrows: w: u -> v, x: v -> v, y: v -> t;"
                 " relations: x*x, x*w, y*x; }").pair


def test_indexed_checks_match_reference_on_violators(fix_d):
    stars = [parse(text).pair for text in (in_star(7), out_star(7), crossing(3))]
    for bq in (_star(), _g1_violator(fix_d), _sb2_violator(fix_d), *stars, _loop_violator()):
        ok, _ = _reference_gentle(bq)
        assert not ok
        _assert_matches_reference(bq)


@pytest.mark.parametrize("star,hub,side", [(in_star, "x", "y"), (out_star, "y", "z")])
def test_relation_stars_list_every_partner(star, hub, side, tmp_path):
    # all k partners of the hub on one side, where lookups in a tuple were quadratic
    k = 20000
    path = tmp_path / "star.q"
    path.write_text(star(k), encoding="utf-8")
    out = io.StringIO()
    assert run(["validate", str(path), "--json"], out=out, err=io.StringIO()) == 1
    [g1] = [v["items"] for v in json.loads(out.getvalue())["violations"] if v["rule"] == "G1"]
    assert g1 == [hub, *sorted(f"{side}{i}" for i in range(k))]


# admissible_special_sets as it was before the local rule: every subset of
# the vertices of valency <= 2 is decided through the definition, on a newly
# built Q^sp.  It is the reference for the enumeration.

def _reference_admissible_sets(bq):
    from itertools import combinations

    candidates = [v for v in bq.quiver.vertex_list if _valency(bq.quiver, v) <= 2]
    admissible = []
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            report = validate_skewed_gentle(SkewedGentleTriple(bq, frozenset(subset)))
            if report.skewed_gentle:
                admissible.append(subset)
    return admissible


def test_admissible_sets_match_reference_on_random_triples():
    for seed, size in [*((s, (3, 4)) for s in range(2000)), *((s, (7, 9)) for s in range(300))]:
        bq = random_triple(seed, *size).pair
        assert admissible_special_sets(bq) == _reference_admissible_sets(bq), (seed, size)


# admissible_special_sets as it was before the ring rule: sets grow level by
# level, and a later candidate's edge a -> b joins only when b does not reach
# a along the successors and the edges already added.  The reference for the
# ring rule and the enumeration built on it.

def _level_reference_admissible_sets(bq):
    candidates = _local_rule(bq, bq.quiver.vertex_list)
    succ = bq.successors
    admissible = [()]
    level = [((), 0, {})]  # (admissible set, next candidate, its edges a -> b)
    while level:
        grown = []
        for chosen, start, added in level:
            for i in range(start, len(candidates)):
                v, edge = candidates[i]
                if edge is None:
                    grown.append(((*chosen, v), i + 1, added))
                elif not _reaches(succ, added, edge[1], edge[0]):
                    grown.append(((*chosen, v), i + 1, {**added, edge[0]: edge[1]}))
        admissible += [chosen for chosen, _, _ in grown]
        level = grown
    return admissible


def _reaches(succ, added, start, goal):
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        if x == goal:
            return True
        for y in (added[x],) if x in added else succ[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def _necklace(seed):
    """1-3 disjoint cycles of 1-4 arrows, each junction a relation with
    probability 0.8, and 0-3 isolated vertices, under shuffled names."""
    rng = random.Random(seed)
    lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    labels = list(range(sum(lengths) + rng.randint(0, 3)))
    rng.shuffle(labels)
    names = iter(f"v{k}" for k in labels)
    vertices, arrows, relations = [], [], []
    for c, m in enumerate(lengths):
        cycle = [next(names) for _ in range(m)]
        ring = [(f"a{c}_{i}", cycle[i], cycle[(i + 1) % m]) for i in range(m)]
        vertices += cycle
        arrows += ring
        relations += [(ring[(i + 1) % m][0], ring[i][0]) for i in range(m) if rng.random() < 0.8]
    return _pair([*vertices, *names], arrows, relations)


def test_admissible_sets_match_level_reference_on_necklaces():
    # a full-relation stretch of a cycle joins its candidates' edges into a
    # ring; a free junction cuts it into a path
    valid = ringed = small = 0
    for seed in range(3000):
        bq = _necklace(seed)
        if bq.gentle_violations or bq.walk.cycle is not None:
            continue
        valid += 1
        candidates = _local_rule(bq, bq.quiver.vertex_list)
        ringed += any(len(ring) > 1 for ring in _rings(bq.successors, candidates))
        found = admissible_special_sets(bq)
        assert found == _level_reference_admissible_sets(bq), seed
        if len(bq.quiver.vertex_list) <= 8:
            small += 1
            assert found == _reference_admissible_sets(bq), seed
    assert (valid, ringed, small) == (2632, 2215, 1925)


def _pair(vertices, arrows, relations=()):
    return BoundQuiver(build_quiver(vertices, [Arrow(*a) for a in arrows]), frozenset(relations))


def _full_relation_cycle(n):
    arrows = [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    return _pair([str(i) for i in range(n)], arrows,
                 [(f"a{(i + 1) % n}", f"a{i}") for i in range(n)])


@pytest.mark.parametrize("bq,expected", [
    # an isolated vertex takes a loop
    (_pair(["1"], []), [(), ("1",)]),
    # a loop a with a*a zero: the new loop and a make a relation-free cycle
    (_pair(["1", "2"], [("a", "1", "1")], [("a", "a")]), [(), ("2",)]),
    # two incoming arrows and no outgoing ones: a loop at 3 breaks SB1
    (_pair(["1", "2", "3"], [("a", "1", "3"), ("b", "2", "3")]), [(), ("1",), ("2",), ("1", "2")]),
    # a 2-cycle with one relation: b*a zero, a*b free, so b -> a -> loop -> b
    (_pair(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [("b", "a")]), [()]),
], ids=["isolated", "loop", "two_in", "two_cycle"])
def test_admissible_sets_on_hand_made_pairs(bq, expected):
    assert admissible_special_sets(bq) == expected
    assert _reference_admissible_sets(bq) == expected


def test_admissible_sets_need_no_free_loop_name():
    # every name Q^sp could give a loop at vertex 1 is taken by an arrow of a
    # line; admissibility does not depend on names, so 1 is still a candidate
    names = ["sp_1", *(f"sp_1_{k}" for k in range(2, 1000))]
    line = [f"v{i}" for i in range(len(names) + 1)]
    bq = _pair(["1", *line], [(name, line[i], line[i + 1]) for i, name in enumerate(names)])
    assert admissible_special_sets(bq) == [
        (), ("1",), ("v0",), ("v999",), ("1", "v0"), ("1", "v999"), ("v0", "v999"),
        ("1", "v0", "v999"),
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_admissible_sets_full_relation_cycle(n):
    from itertools import combinations

    # the loops close a relation-free cycle only when every vertex is special
    bq = _full_relation_cycle(n)
    vertices = bq.quiver.vertex_list
    expected = [s for k in range(n) for s in combinations(vertices, k)]
    assert admissible_special_sets(bq) == expected
    assert _reference_admissible_sets(bq) == expected


# validate_skewed_gentle as it was before the local rule: (Q^sp, I^sp) is
# built for every triple and decided by the definition.  The reference for
# the verdict, the flags and the violation list.

def _reference_validate(t):
    base = t.pair
    sp = build_sp_pair(t)
    violations = list(sp.gentle_violations)
    witness = sp.walk.cycle
    if witness is not None:
        violations.append(Violation("FD", witness))
    violations.sort(key=lambda v: (v.rule, v.items))
    return ValidationReport(
        special_biserial=all(v.rule == "G1" for v in base.gentle_violations),
        gentle=not base.gentle_violations,
        finite_dimensional=base.walk.cycle is None,
        skewed_gentle=not sp.gentle_violations and witness is None,
        violations=tuple(violations),
    )


def _assert_verdicts_match_on_every_subset(bq):
    from itertools import combinations

    vertices = bq.quiver.vertex_list
    valid = 0
    for size in range(len(vertices) + 1):
        for subset in combinations(vertices, size):
            t = SkewedGentleTriple(bq, frozenset(subset))
            report = validate_skewed_gentle(t)
            assert report == _reference_validate(t), subset
            valid += report.skewed_gentle
    return valid


def test_verdict_matches_definition_on_random_triples():
    valid = 0
    for seed, size in [*((s, (6, 8)) for s in range(40)), *((s, (7, 10)) for s in range(40))]:
        valid += _assert_verdicts_match_on_every_subset(random_triple(seed, *size).pair)
    assert valid > 1000  # the accepting side is exercised, not only the fallback


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_verdict_matches_definition_on_full_relation_cycles(n):
    bq = _full_relation_cycle(n)
    vertices = bq.quiver.vertex_list
    for special in (vertices, vertices[::2], vertices[1::2]):
        t = SkewedGentleTriple(bq, frozenset(special))
        assert validate_skewed_gentle(t) == _reference_validate(t)
    if n <= 4:
        _assert_verdicts_match_on_every_subset(bq)


@pytest.mark.parametrize("bq", [
    # a loop a with a*a zero, alone and inside a line
    _pair(["1"], [("a", "1", "1")], [("a", "a")]),
    _pair(["0", "1", "2"], [("b", "0", "1"), ("a", "1", "1"), ("c", "1", "2")],
          [("a", "a"), ("a", "b"), ("c", "a")]),
    # a free loop: infinite dimensional
    _pair(["1"], [("a", "1", "1")]),
], ids=["loop", "loop_in_line", "free_loop"])
def test_verdict_matches_definition_on_loops(bq):
    _assert_verdicts_match_on_every_subset(bq)


def test_verdict_matches_definition_on_invalid_bases(fix_d, fix_a):
    from pathlib import Path

    bases = [fix_d.pair, _g1_violator(fix_d), _sb2_violator(fix_d), _star(),
             BoundQuiver(fix_a.pair.quiver, frozenset())]
    for path in sorted((Path(__file__).parent / "golden").glob("bad_*.q")):
        bases.append(parse(path.read_text(encoding="utf-8")).pair)
    for bq in bases:
        _assert_verdicts_match_on_every_subset(bq)


@settings(max_examples=100, deadline=None)
@given(_triples())
def test_verdict_matches_definition_on_any_triple(t):
    _assert_verdicts_match_on_every_subset(t.pair)


def test_verdict_needs_no_free_loop_name():
    # no name is left for a loop at 1, which Q^sp would need; validity does
    # not depend on names, as spset already lists {1}
    names = ["sp_1", *(f"sp_1_{k}" for k in range(2, 1000))]
    line = [f"v{i}" for i in range(len(names) + 1)]
    bq = _pair(["1", *line], [(name, line[i], line[i + 1]) for i, name in enumerate(names)])
    report = validate_skewed_gentle(SkewedGentleTriple(bq, frozenset({"1", "v0"})))
    assert report.skewed_gentle and report.violations == ()
