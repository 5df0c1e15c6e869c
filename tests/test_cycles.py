import io
import re

import pytest

from conftest import all_fixture_triples, fixture_path, load
from reference import build_g_pair
from reference import lift_cycles as reference_lift
from reference import sign_sequences

from skewgentle import (
    BoundQuiver,
    InternalInconsistency,
    NotGentle,
    NotSkewedGentle,
    SingularityDescriptor,
    SkewedGentleTriple,
    admissible_special_sets,
    build_invariant_report,
    descriptor_g,
    descriptor_gentle,
    descriptors,
    full_cycles,
    gldim_flags,
    lift_cycles,
    parse,
    random_triple,
)
from skewgentle.cli import run


def cycle_arrow_sets(cycles):
    return {c.arrows for c in cycles}


def test_full_cycles_fix_a(fix_a):
    # a bare pair has no special vertex: its cycles are even
    (c,) = full_cycles(fix_a.pair)
    assert c.arrows == ("a", "b")
    assert c.length == 2
    assert c.parity == "even"


def test_full_cycles_fix_b(fix_b):
    (c,) = full_cycles(fix_b.pair)
    assert c.arrows == ("a", "g", "b")


def test_full_cycles_fix_c(fix_c):
    assert full_cycles(fix_c.pair) == set()


def test_full_cycles_requires_gentle(fix_a):
    with pytest.raises(NotGentle):
        full_cycles(BoundQuiver(fix_a.pair.quiver, frozenset()))


def test_full_cycles_parity(fix_a2, fix_b3):
    # a triple reads its parities over its own special set; full_cycles, for a
    # bare pair, has none
    (c,) = fix_a2.cycles
    assert c.parity == "odd"
    (c,) = fix_b3.cycles
    assert c.parity == "odd"


def _triple(name, special):
    t = load(f"{name}.q")
    return t if special is None else SkewedGentleTriple(t.pair, special, t.name)


# Worked examples of the sign rule: a fixture, its special set (None for
# its own), its base cycle and that cycle's signs (sigma, tau).
SIGN_EXAMPLES = [
    ("fix_a2", None, ("a", "b"), ("+",), ("-",)),
    ("fix_b3", None, ("a", "g", "b"), ("+", "-"), ("-", "+")),
    ("fix_b3", frozenset(), ("a", "g", "b"), ("+", "+"), ("-", "-")),
]


def _lift_cases():
    """The sign examples, every fixture, and ``random_triple`` seeds 0-299
    at (8, 11), each with the first six of its admissible special sets."""
    for name, special, _, _, _ in SIGN_EXAMPLES:
        yield _triple(name, special)
    yield from all_fixture_triples()
    for seed in range(300):
        t = random_triple(seed, 8, 11)
        for special in admissible_special_sets(t.pair)[:6]:
            yield SkewedGentleTriple(t.pair, frozenset(special), f"{t.name}/{seed}")


def test_sign_sequences_examples():
    # the reference rule on its worked examples; lift_cycles follows it on
    # them in test_lift_cycles_follow_the_reference_sign_rule
    for name, special, cycle, sigma, tau in SIGN_EXAMPLES:
        t = _triple(name, special)
        assert [c.arrows for c in t.cycles] == [cycle]
        assert sign_sequences(t.pair.quiver, cycle, t.special) == (sigma, tau)


def test_lift_cycles_follow_the_reference_sign_rule():
    cases = 0
    for t in _lift_cases():
        assert lift_cycles(t) == reference_lift(t), (t.name, t.special_list)
        cases += 1
    assert cases > 1000


def test_sign_sequences_give_paths_in_g(fix_a2, fix_b3):
    # the signed lift of any base path must compose inside Q^g
    for t in (fix_a2, fix_b3):
        amap = build_g_pair(t).quiver.arrow_map
        for cycle in t.cycles:
            sigma, tau = sign_sequences(t.pair.quiver, cycle.arrows, t.special)
            for head, signs in (("+", sigma), ("-", tau)):
                names = [cycle.arrows[0] + head] + [
                    n + s for n, s in zip(cycle.arrows[1:], signs)
                ]
                for i in range(1, len(names)):
                    assert amap[names[i]][2] == amap[names[i - 1]][1]


def test_lift_cycles_fix_a2(fix_a2):
    assert lift_cycles(fix_a2) == {("a+", "b+", "a-", "b-")}


def test_lift_cycles_fix_b3(fix_b3):
    (c,) = lift_cycles(fix_b3)
    assert c == ("a+", "g+", "b-", "a-", "g-", "b+")
    assert len(c) == 6


def test_lift_cycles_even_doubling(fix_a):
    assert lift_cycles(fix_a) == {("a+", "b+"), ("a-", "b-")}


def test_lifted_pairs_are_g_relations(fix_a, fix_a2, fix_b3):
    for t in (fix_a, fix_a2, fix_b3):
        relations = set(t.g_partners[0].items())
        for cycle in lift_cycles(t):
            n = len(cycle)
            for i in range(n):
                assert (cycle[i], cycle[(i + 1) % n]) in relations


def test_descriptors_fix_a2(fix_a, fix_a2):
    assert descriptor_gentle(fix_a.pair).shifts == (2,)
    assert descriptor_gentle(fix_a2.pair).shifts == (2,)
    assert descriptor_g(fix_a2).shifts == (4,)
    assert descriptor_g(fix_a).shifts == (2, 2)


def test_descriptors_fix_b3(fix_b, fix_b3):
    assert descriptor_gentle(fix_b.pair).shifts == (3,)
    assert descriptor_gentle(fix_b3.pair).shifts == (3,)
    assert descriptor_g(fix_b3).shifts == (6,)


def test_descriptors_fix_c(fix_c, fix_c1):
    assert descriptor_gentle(fix_c.pair).shifts == ()
    assert descriptor_gentle(fix_c1.pair).shifts == ()
    assert descriptor_g(fix_c1).shifts == ()


def test_descriptor_rejects_invalid(fix_a):
    bad = SkewedGentleTriple(fix_a.pair, frozenset({"1", "2"}))
    with pytest.raises(NotSkewedGentle):
        descriptor_g(bad)
    # the cycles of a triple are read only once its verdict accepts it
    for read in (lambda t: t.cycles, lift_cycles):
        with pytest.raises(NotSkewedGentle, match=r"triple 'Q' is not skewed-gentle"):
            read(bad)


def test_gldim_flags_examples(fix_a2, fix_b3, fix_c1):
    assert gldim_flags(descriptors(fix_a2)) == {"gentle": False, "sg": False, "g": False}
    assert gldim_flags(descriptors(fix_b3)) == {"gentle": False, "sg": False, "g": False}
    assert gldim_flags(descriptors(fix_c1)) == {"gentle": True, "sg": True, "g": True}


def test_gldim_flags_compare_the_g_descriptor_with_the_constructed_pair(fix_a2, monkeypatch):
    """A parity formula that forgets to double odd cycles keeps every flag
    False on fix_a2; only the multiset comparison with the cycles of the
    relations of (Q^g, I^g), as the lift rule writes them, sees it."""
    import skewgentle.cycles as cycles

    def undoubled(t):  # an odd cycle gives n instead of 2n
        shifts = []
        for c in t.cycles:
            shifts += [c.length, c.length] if c.parity == "even" else [c.length]
        return SingularityDescriptor.of(shifts)

    monkeypatch.setattr(cycles, "descriptor_g", undoubled)
    with pytest.raises(InternalInconsistency,
                       match=r"from cycle parities \[2\] disagrees with \(Q\^g, I\^g\): \[4\]"):
        descriptors(fix_a2)


def test_gldim_flags_compare_the_lifted_cycles_with_the_constructed_pair(fix_a, fix_a2,
                                                                         monkeypatch):
    """A sign lift of the base cycles with a wrong sign, or one that loses a
    cycle, keeps the g descriptor; only the comparison of the cycles as sets
    with those of the lifted relations sees it."""
    import skewgentle.cycles as cycles

    lift = cycles.lift_cycles
    flip = {"+": "-", "-": "+"}

    def last_sign_flipped(t):
        return {c[:-1] + (c[-1][:-1] + flip[c[-1][-1]],) for c in lift(t)}

    monkeypatch.setattr(cycles, "lift_cycles", last_sign_flipped)
    with pytest.raises(InternalInconsistency, match=re.escape(
            "g cycle ['a+', 'b+', 'a-', 'b+'] of 'A' is a lift of a base cycle, "
            "not a cycle of (Q^g, I^g)")):
        descriptors(fix_a2)

    monkeypatch.setattr(cycles, "lift_cycles", lambda t: set(sorted(lift(t))[1:]))
    with pytest.raises(InternalInconsistency, match=re.escape(
            "g cycle ['a+', 'b+'] of 'A' is a cycle of (Q^g, I^g), not a lift of a base cycle")):
        descriptors(fix_a)


def test_invariants_catch_a_lift_rule_with_the_special_middle_case_swapped(monkeypatch):
    # At a special vertex, Q^g's one lift of it, the swapped rule pairs y+
    # with x+ and y- with x-, as at an ordinary vertex.  It still gives
    # composable relations, each arrow at most one partner per side and the
    # same free threads (9 paths on fix_a2), but two 2-cycles where the
    # parity rule gives the doubled odd 2-cycle.
    import skewgentle.construct as construct

    lift = construct.lift_relations_to_g
    flip = {"+": "-", "-": "+"}

    def swapped(t):
        amap = t.pair.quiver.arrow_map  # y is the lift of the base arrow y[:-1]
        return [(x, y[:-1] + flip[y[-1]]) if amap[y[:-1]].target in t.special else (x, y)
                for x, y in lift(t)]

    monkeypatch.setattr(construct, "lift_relations_to_g", swapped)
    text = fixture_path("fix_a2.q").read_text(encoding="utf-8")
    message = "g descriptor of 'A' from cycle parities [4] disagrees with (Q^g, I^g): [2, 2]"
    with pytest.raises(InternalInconsistency, match=re.escape(message)):
        build_invariant_report(parse(text))
    err = io.StringIO()
    assert run(["invariants", str(fixture_path("fix_a2.q"))], out=io.StringIO(), err=err) == 1
    assert err.getvalue() == f"error: {message}\n"


def test_gldim_flags_need_the_lifted_relations_to_be_a_partial_injection(fix_a2, monkeypatch):
    import skewgentle.construct as construct

    lift = construct.lift_relations_to_g

    def with_a_second_partner(t):  # b+ after a+ as well as b-
        return [*lift(t), ("b+", "a+")]

    monkeypatch.setattr(construct, "lift_relations_to_g", with_a_second_partner)
    with pytest.raises(InternalInconsistency, match="^" + re.escape(
            "associated pair of 'A' is not gentle/finite: G1: a+, b+, b-; G1: b+, a+, a-") + "$"):
        descriptors(fix_a2)


def test_arrows_lie_on_at_most_one_cycle():
    for t in all_fixture_triples() + [random_triple(s, 6, 7) for s in range(60)]:
        seen = set()
        for c in t.cycles:
            assert not (set(c.arrows) & seen)
            seen.update(c.arrows)


def test_lift_cycles_match_g_pair_cycles():
    for t in all_fixture_triples() + [random_triple(s, 6, 7) for s in range(60)]:
        direct = full_cycles(build_g_pair(t))
        assert lift_cycles(t) == cycle_arrow_sets(direct)


def test_descriptor_sum_and_count_relations():
    for t in all_fixture_triples() + [random_triple(s, 6, 7) for s in range(60)]:
        base = descriptor_gentle(t.pair)
        doubled = descriptor_g(t)
        assert sum(doubled.shifts) == 2 * sum(base.shifts)
        cycles = t.cycles
        evens = sum(1 for c in cycles if c.parity == "even")
        odds = sum(1 for c in cycles if c.parity == "odd")
        assert len(doubled.shifts) == 2 * evens + odds


def test_rotation_invariance(fix_b3):
    # classifying the same cycle from any starting arrow gives one class
    (c,) = fix_b3.cycles
    from skewgentle.cycles import _canonical_rotation

    for k in range(c.length):
        rotated = c.arrows[k:] + c.arrows[:k]
        assert _canonical_rotation(rotated) == c.arrows


def test_empty_descriptor_iff_acyclic_successor_graph():
    for t in all_fixture_triples() + [random_triple(s, 6, 7) for s in range(40)]:
        nxt = {x: y for x, y in t.pair.relations}
        has_cycle = False
        for start in nxt:
            node, hops = start, 0
            while node in nxt and hops <= len(nxt):
                node = nxt[node]
                hops += 1
                if node == start:
                    has_cycle = True
                    break
        assert descriptor_gentle(t.pair).is_trivial == (not has_cycle)
