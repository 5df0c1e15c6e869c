"""Dimensions counted over the arrow-successor graph agree with enumeration.

The reference is the enumeration itself: ``relation_free_paths`` of
``tests/reference.py`` with one trivial path per vertex, ``len(basis(t))``
and the longest enumerated path.  The closed forms for
lines and full-relation cycles are the ones stated in ``perfbench/README.md``.
"""

import pytest

from conftest import all_fixture_triples
from reference import admissible_base_pair, ends, relation_free_paths

from skewgentle import (
    Arrow,
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
    random_triple,
)
from skewgentle.algebra import longest_relation_free_length
from skewgentle.quiver import count_relation_free_paths


def _one(v):
    return 1


def _pairs(t):
    """The base pair, Q^sp, Q^g and the admissible pair of a valid triple."""
    return (t.pair, t.sp_pair, t.g_pair.pair, admissible_base_pair(t))


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
    assert dimension(t, "g") == _listed_dimension(t.g_pair.pair)
    assert dimension(t, "sg") == len(basis(t))
    for bq in _pairs(t):
        listed = relation_free_paths(bq)
        counted = count_relation_free_paths(bq.walk, _one, _one)
        assert counted == len(listed)
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
    vs = [f"v{i}" for i in range(n)]
    arrows = [Arrow(f"a{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    return SkewedGentleTriple(BoundQuiver(build_quiver(vs, arrows)), name=f"A{n}")


def _full_relation_cycle(n, k):
    vs = [f"v{i}" for i in range(n)]
    arrows = [Arrow(f"a{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    relations = frozenset((arrows[(i + 1) % n].name, arrows[i].name) for i in range(n))
    special = frozenset(vs[i] for i in range(0, n, k))
    return SkewedGentleTriple(BoundQuiver(build_quiver(vs, arrows), relations), special,
                              name=f"C{n}k{k}")


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
    for count in (lambda walk: count_relation_free_paths(walk, _one, _one),
                  longest_relation_free_length):
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
    out.sort(key=lambda b: (b.length, b.arrows, b.source, b.target))
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


def test_g_count_matches_the_constructed_q_g_and_the_oracle():
    # the count never builds Q^g; the constructed pair and the oracle do
    checked = 0
    for seed in range(300):
        pair = random_triple(seed, 8, 11).pair
        for special in admissible_special_sets(pair)[:8]:
            t = SkewedGentleTriple(pair, frozenset(special), name=f"R{seed}")
            g = t.g_pair.pair
            built = len(g.quiver.vertices) + count_relation_free_paths(g.walk, _one, _one)
            oracle = dimension_oracle(t, "g", cap=10 ** 6)
            assert dimension(t, "g") == built == oracle, (t.name, special)
            checked += 1
    assert checked == 1820


def test_report_catches_a_g_count_that_disagrees_with_q_g(fix_a2):
    # Q^g of the same pair without special vertices: 8 paths, not 9
    fix_a2.__dict__["g_pair"] = SkewedGentleTriple(fix_a2.pair, frozenset()).g_pair
    with pytest.raises(InternalInconsistency,
                       match="g dimension 9 disagrees with the constructed Q\\^g's 8"):
        build_invariant_report(fix_a2, with_dims=True)


def _reference_corner_data(t, a):
    """``corner_data`` as it was before it counted: every basis path listed
    and sorted into the corner, M, N and A by its endpoints at a-."""
    full = basis(t)
    minus = a + "-"
    t1, t2, middle = [], [], []
    for p in full:
        if p.source == minus:
            if not p.is_trivial:
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
