"""Dimensions counted over the arrow-successor graph agree with enumeration.

The reference is the enumeration itself: ``relation_free_paths`` of
``tests/reference.py`` with one trivial path per vertex, ``len(basis(t))``
and the longest enumerated path.  The closed forms for
lines and full-relation cycles are the ones stated in ``perfbench/README.md``.
"""

import random
import re
from itertools import chain

import pytest

from conftest import all_fixture_triples, free_line, full_relation_cycle
from reference import admissible_base_pair, build_g_pair, ends, relation_free_paths

from skewgentle import (
    BoundQuiver,
    InfiniteDimensional,
    InternalInconsistency,
    NameCollision,
    BasisPath,
    SkewedGentleTriple,
    admissible_special_sets,
    basis,
    build_invariant_report,
    build_quiver,
    corner_data,
    dimension,
    dimension_oracle,
    parse,
    random_triple,
)
from skewgentle import construct
from skewgentle.algebra import longest_relation_free_length
from skewgentle.quiver import path_sums


def _path_count(walk):
    """The number of relation-free paths of the walk's graph, from the counting pass."""
    (counted,) = path_sums(walk, [(walk.successors, dict.fromkeys(walk.quiver.vertices, 1))])
    return sum(counted.values())


def _pairs(t):
    """The base pair, Q^sp, Q^g and the admissible pair of a valid triple."""
    return (t.pair, t.sp_pair, build_g_pair(t), admissible_base_pair(t))


def _listed_corner_counts(t, a):
    s1 = s2 = 0
    pair = admissible_base_pair(t)
    for p in relation_free_paths(pair):
        source, target = ends(pair, p)
        s1 += source == a
        s2 += target == a
    return s1, s2


def _listed_dimension(bq):
    return len(bq.quiver.vertices) + len(relation_free_paths(bq))


def _assert_counts_match_enumeration(t):
    assert dimension(t, "gentle") == _listed_dimension(t.pair)
    assert dimension(t, "g") == _listed_dimension(build_g_pair(t))
    assert dimension(t, "sg") == len(basis(t))
    for bq in _pairs(t):
        listed = relation_free_paths(bq)
        assert _path_count(bq.walk) == len(listed)
        assert longest_relation_free_length(bq.walk) == max(map(len, listed), default=0)
    for a in t.special_list:
        corner = corner_data(t, a)
        assert (corner.dim_m_prime, corner.dim_n_prime) == _listed_corner_counts(t, a)


@pytest.mark.parametrize("size", [(6, 7), (10, 14)])
def test_counts_match_enumeration_on_random_triples(size):
    for seed in range(300):
        _assert_counts_match_enumeration(random_triple(seed, *size))


def test_counts_match_enumeration_on_fixtures():
    for t in all_fixture_triples():
        _assert_counts_match_enumeration(t)


def _line(n):
    return parse(free_line(n, name=f"A{n}"))


def _full_relation_cycle(n, k):
    return parse(full_relation_cycle(n, k, name=f"C{n}k{k}"))


@pytest.mark.parametrize("n", [1, 2, 7, 60, 2000])
def test_line_closed_forms(n):
    t = _line(n)
    assert dimension(t, "gentle") == n * (n + 1) // 2
    assert dimension(t, "sg") == n * (n + 1) // 2
    assert dimension(t, "g") == n * (n + 1)
    assert longest_relation_free_length(t.pair.walk) == n - 1


@pytest.mark.parametrize("n,k", [(4, 2), (12, 3), (60, 4), (2000, 4), (2000, 16)])
def test_full_relation_cycle_closed_forms(n, k):
    t = _full_relation_cycle(n, k)
    s = n // k
    assert dimension(t, "gentle") == 2 * n
    assert dimension(t, "sg") == 2 * n + 4 * s
    assert dimension(t, "g") == 4 * n + s


def test_counts_raise_with_the_finiteness_witness(fix_a):
    free = BoundQuiver(fix_a.pair.quiver, frozenset())
    witness = free.walk.cycle
    for count in (_path_count, longest_relation_free_length):
        with pytest.raises(InfiniteDimensional) as caught:
            count(free.walk)
        assert caught.value.witness == witness


def test_sg_count_keeps_the_name_collision_guard():
    t = SkewedGentleTriple(BoundQuiver(build_quiver(["2", "2+"], [])), frozenset({"2"}))
    for op in (basis, lambda t: dimension(t, "sg")):
        with pytest.raises(NameCollision):
            op(t)


def test_special_cycle_in_admissible_pair_is_caught(fix_a2):
    # A walk of (Q, I1) that wrongly keeps b*a, whose middle vertex 2 is
    # special, and drops a*b: the path "b, then a" runs from 2 back to 2.
    # The count reads that walk; the oracle reads only its length bound, so
    # the report's cross-check catches the wrong count.
    wrong = BoundQuiver(fix_a2.pair.quiver, frozenset({("b", "a")})).walk
    fix_a2.__dict__["admissible_walk"] = wrong
    assert dimension(fix_a2, "sg") == 11
    assert dimension_oracle(fix_a2, "sg") == 8
    with pytest.raises(InternalInconsistency, match="sg dimension 11 disagrees with oracle 8"):
        build_invariant_report(fix_a2, with_dims=True)


def _reference_basis(t):
    """``basis`` as it was before it read name tuples off the successor
    graph: the signed lifts of the listed paths of (Q, I1)."""
    def signs(v):
        return ("+", "-") if v in t.special else ("",)

    out = [BasisPath((), v + s, v + s) for v in t.pair.quiver.vertex_list for s in signs(v)]
    pair = admissible_base_pair(t)
    for p in relation_free_paths(pair):
        source, target = ends(pair, p)
        out += [BasisPath(p, source + s, target + u) for s in signs(source) for u in signs(target)]
    out.sort(key=lambda b: (len(b.arrows), b.arrows, b.source, b.target))
    return out


def _special_set_cases():
    """Valid triples: random ones under their first six admissible special
    sets, full-relation cycles with every k-th vertex special, and lines."""
    for seed in range(300):
        pair = random_triple(seed, 8, 11).pair
        for special in admissible_special_sets(pair)[:6]:
            yield SkewedGentleTriple(pair, frozenset(special), name=f"R{seed}")
    for n in range(2, 13):
        for k in range(2, n + 1):
            yield _full_relation_cycle(n, k)
    for n in (1, 2, 7):
        yield _line(n)
    yield from all_fixture_triples()


def test_the_verdicts_walk_is_the_graph_of_q_i1():
    # every sg and g count reads the verdict's walk; (Q, I1) built as a pair
    # walks its own graph, and the two graphs are the same
    drawn = 0
    for t in _special_set_cases():
        if t.validation.skewed_gentle:
            assert admissible_base_pair(t).successors == t.admissible_walk.successors, t.name
            drawn += t.name.startswith("R")
    assert drawn == 1430


def test_basis_matches_the_listed_paths():
    for t in _special_set_cases():
        if t.validation.skewed_gentle:
            assert basis(t) == _reference_basis(t), t.name


def test_oracle_length_bound_is_the_longest_path_of_q_sp():
    checked = 0
    for t in _special_set_cases():
        if t.validation.skewed_gentle:
            bound = longest_relation_free_length(t.admissible_walk, t.special)
            assert bound == longest_relation_free_length(t.sp_pair.walk), t.name
            checked += bool(t.special)
    assert checked > 1000


def _g_triples():
    """The 1820 triples of ``random_triple`` seeds 0-299 at (8, 11), the
    first eight admissible sets each."""
    for seed in range(300):
        pair = random_triple(seed, 8, 11).pair
        for special in admissible_special_sets(pair)[:8]:
            yield SkewedGentleTriple(pair, frozenset(special), name=f"R{seed}")


def _g_verdicts(t):
    """The check of Q^g's lift rows, (dimension, longest path) or None when
    it raises InternalInconsistency, beside the same read off the
    reference pair built on those rows: None unless it has no gentle
    violation and no relation-free cycle, and else its listed paths."""
    try:
        g = t.g_presentation
        checked = (g.dimension, g.longest)
    except InternalInconsistency:
        checked = None
    pair = build_g_pair(t)
    if pair.gentle_violations or pair.walk.cycle is not None:
        return checked, None
    paths = relation_free_paths(pair)
    return checked, (_listed_dimension(pair), max(map(len, paths), default=0))


def test_g_count_matches_the_constructed_q_g_and_the_oracle():
    # the count never builds Q^g; the check of its lift rows counts its
    # free threads, and the reference pair and the oracle build it
    checked = 0
    for t in _g_triples():
        g = t.g_presentation
        assert _g_verdicts(t) == ((g.dimension, g.longest),) * 2, t.name
        built = build_g_pair(t)
        oracle = dimension_oracle(t, "g", cap=10 ** 6)
        assert g.dimension == dimension(t, "g") == _listed_dimension(built) == oracle, t.name
        assert g.longest == longest_relation_free_length(built.walk), t.name
        checked += 1
    assert checked == 1820


def _mutated_rows(rng, t):
    """Q^g's lift rows with one seeded change that keeps every relation a
    composable 2-path: a relation dropped, an arrow dropped with its
    relations, a relation added, or an arrow added."""
    arrows, relations = construct.lift_arrows_to_g(t), construct.lift_relations_to_g(t)
    ends = {name: (src, tgt) for name, src, tgt in arrows}
    change = rng.randrange(4) if arrows else 3
    if change == 0 and relations:
        relations = [r for r in relations if r != rng.choice(relations)]
    elif change == 1:
        lost = rng.choice(arrows)[0]
        arrows = [a for a in arrows if a[0] != lost]
        relations = [r for r in relations if lost not in r]
    elif change == 2:
        y = rng.choice(arrows)[0]
        later = [x for x, (src, _) in ends.items() if src == ends[y][1]]
        if later:
            relations = [*relations, (rng.choice(later), y)]
    else:
        vertices = sorted(chain.from_iterable(t.g_lifts.values()))
        arrows = [*arrows, ("new", rng.choice(vertices), rng.choice(vertices))]
    return arrows, list(dict.fromkeys(relations))


def test_lift_check_decides_as_the_reference_pair_on_mutated_lifts(monkeypatch):
    # each triple once more with mutated lift rows: the check accepts
    # exactly when the reference pair is gentle and finite, and then both
    # give the same dimension and longest path
    rng = random.Random(7)
    mutated = [(t, _mutated_rows(rng, t)) for t in _g_triples()]
    rows = {}
    monkeypatch.setattr(construct, "lift_arrows_to_g", lambda t: rows["arrows"])
    monkeypatch.setattr(construct, "lift_relations_to_g", lambda t: rows["relations"])
    accepted = rejected = 0
    for t, (rows["arrows"], rows["relations"]) in mutated:
        checked, reference = _g_verdicts(SkewedGentleTriple(t.pair, t.special, t.name))
        assert checked == reference, (t.name, rows)
        accepted += checked is not None
        rejected += checked is None
    assert accepted > 300 and rejected > 300, (accepted, rejected)


def _lift_without(monkeypatch, arrow=None, relation=None):
    """Route the lift rule through one that leaves out an arrow, with the
    relations it lies in, or one relation."""
    arrows, relations = construct.lift_arrows_to_g, construct.lift_relations_to_g
    monkeypatch.setattr(construct, "lift_arrows_to_g",
                        lambda t: [a for a in arrows(t) if a[0] != arrow])
    monkeypatch.setattr(construct, "lift_relations_to_g",
                        lambda t: [r for r in relations(t) if r != relation and arrow not in r])


def test_report_catches_a_g_count_that_disagrees_with_q_g(fix_a2, monkeypatch):
    # a lift that loses b-: a+ b+ is a thread of 3 paths, and a-, whose one
    # arrow out of its target b+ is its partner, one of 1, so 3 vertices + 4
    _lift_without(monkeypatch, arrow="b-")
    with pytest.raises(InternalInconsistency,
                       match=re.escape("g dimension 9 disagrees with Q^g's free threads: 7")):
        build_invariant_report(fix_a2, with_dims=True)


@pytest.mark.parametrize("relation,fault", [
    # a+ then both arrows out of Q^g's vertex 2, the special one, and b-
    # after both arrows into it
    (("b-", "a+"), "SB2: a+, b+, b-; SB2: b-, a+, a-"),
    # a- b- a- ... is free once b- then a- is no longer zero
    (("a-", "b-"), "FD: a-, b-"),
], ids=["SB2", "FD"])
def test_report_catches_a_lift_without_free_threads(fix_a2, monkeypatch, relation, fault):
    _lift_without(monkeypatch, relation=relation)
    with pytest.raises(InternalInconsistency, match="^" + re.escape(
            f"associated pair of 'A' is not gentle/finite: {fault}") + "$"):
        build_invariant_report(fix_a2, with_dims=True)


def _reference_corner_data(t, a):
    """``corner_data`` as it was before it counted: every basis path listed
    and sorted into the corner, M, N and A by its endpoints at a-."""
    full = basis(t)
    minus = a + "-"
    t1, t2, middle = [], [], []
    for p in full:
        if p.source == minus:
            if p.arrows:
                t1.append(p)
        elif p.target == minus:
            t2.append(p)
        else:
            middle.append(p)
    dim_gamma_prime = dimension(SkewedGentleTriple(t.pair, t.special - {a}), "sg")
    fields = {
        "dim_gamma": len(full), "dim_gamma_prime": dim_gamma_prime, "dim_a": len(middle),
        "dim_m": len(t1), "dim_n": len(t2), "dim_im_phi": len(t1) * len(t2),
        "dim_m_prime": len({p.arrows for p in t1}), "dim_n_prime": len({p.arrows for p in t2}),
        "identity_holds": dim_gamma_prime == len(middle) - len(t1) * len(t2),
    }
    return fields, tuple(t1), tuple(t2)


def test_corner_counts_match_the_listed_corner():
    corners = 0
    for seed in range(300):
        pair = random_triple(seed, 8, 11).pair
        for special in admissible_special_sets(pair)[:6]:
            t = SkewedGentleTriple(pair, frozenset(special), name=f"R{seed}")
            for a in t.special_list:
                fields, t1, t2 = _reference_corner_data(t, a)
                corner = corner_data(t, a)
                assert {f: getattr(corner, f) for f in fields} == fields, (t.name, special, a)
                assert (corner.t1_basis, corner.t2_basis) == (t1, t2), (t.name, special, a)
                corners += 1
    assert corners == 1280
