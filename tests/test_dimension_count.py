"""Dimensions counted over the arrow-successor graph agree with enumeration.

The reference is the enumeration itself: ``len(relation_free_paths(...))``,
``len(basis(t))`` and the longest enumerated path.  The closed forms for
lines and full-relation cycles are the ones stated in ``perfbench/README.md``.
"""

import pytest

from conftest import all_fixture_triples

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
    finite_dimensional_witness,
    random_triple,
    relation_free_paths,
)
from skewgentle.algebra import (
    _sp_length_bound,
    longest_relation_free_length,
)
from skewgentle.quiver import count_relation_free_paths


def _one(v):
    return 1


def _pairs(t):
    """The base pair, Q^sp, Q^g and the admissible pair of a valid triple."""
    return (t.pair, t.sp_pair, t.g_pair.pair, t.admissible_pair)


def _listed_corner_counts(t, a):
    s1 = s2 = 0
    for p in relation_free_paths(t.admissible_pair):
        if not p.is_trivial:
            s1 += p.source == a
            s2 += p.target == a
    return s1, s2


def _assert_counts_match_enumeration(t):
    assert dimension(t, "gentle") == len(relation_free_paths(t.pair))
    assert dimension(t, "g") == len(relation_free_paths(t.g_pair.pair))
    assert dimension(t, "sg") == len(basis(t))
    for bq in _pairs(t):
        listed = relation_free_paths(bq)
        assert len(bq.quiver.vertices) + count_relation_free_paths(bq, _one, _one) == len(listed)
        assert longest_relation_free_length(bq) == max(p.length for p in listed)
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
    assert longest_relation_free_length(t.pair) == n - 1


@pytest.mark.parametrize("n,k", [(4, 2), (12, 3), (60, 4), (2000, 4), (2000, 16)])
def test_full_relation_cycle_closed_forms(n, k):
    t = _full_relation_cycle(n, k)
    s = n // k
    assert dimension(t, "gentle") == 2 * n
    assert dimension(t, "sg") == 2 * n + 4 * s
    assert dimension(t, "g") == 4 * n + s


def test_counts_raise_with_the_finiteness_witness(fix_a):
    free = BoundQuiver(fix_a.pair.quiver, frozenset())
    witness = finite_dimensional_witness(free)
    for count in (lambda bq: count_relation_free_paths(bq, _one, _one),
                  longest_relation_free_length):
        with pytest.raises(InfiniteDimensional) as caught:
            count(free)
        assert caught.value.witness == witness


def test_sg_count_keeps_the_name_collision_guard():
    t = SkewedGentleTriple(BoundQuiver(build_quiver(["2", "2+"], [])), frozenset({"2"}))
    for op in (basis, lambda t: dimension(t, "sg")):
        with pytest.raises(NameCollision):
            op(t)


def test_special_cycle_in_admissible_pair_is_caught(fix_a2):
    # An admissible pair that wrongly keeps b*a, whose middle vertex 2 is
    # special, and drops a*b: the path "b, then a" runs from 2 back to 2.
    # The count reads that pair; the oracle never does, so the report's
    # cross-check catches the wrong count.
    fix_a2.__dict__["admissible_pair"] = BoundQuiver(fix_a2.pair.quiver, frozenset({("b", "a")}))
    assert dimension(fix_a2, "sg") == 11
    assert dimension_oracle(fix_a2, "sg") == 8
    with pytest.raises(InternalInconsistency, match="sg dimension 11 disagrees with oracle 8"):
        build_invariant_report(fix_a2, with_dims=True)


def _reference_basis(t):
    """``basis`` as it was before it read name tuples off the successor
    graph: the signed lifts of the listed ``Path`` objects of (Q, I1)."""
    def signs(v):
        return ("+", "-") if v in t.special else ("",)

    out = [BasisPath((), v + s, v + s) for v in t.pair.quiver.vertex_list for s in signs(v)]
    for p in relation_free_paths(t.admissible_pair):
        if not p.is_trivial:
            names = tuple(a.name for a in p.arrows)
            out += [BasisPath(names, p.source + s, p.target + u)
                    for s in signs(p.source) for u in signs(p.target)]
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


def test_basis_matches_the_listed_paths():
    for t in _special_set_cases():
        if t.validation.skewed_gentle:
            assert basis(t) == _reference_basis(t), t.name


def test_oracle_length_bound_is_the_longest_path_of_q_sp():
    checked = 0
    for t in _special_set_cases():
        if t.validation.skewed_gentle:
            assert _sp_length_bound(t) == longest_relation_free_length(t.sp_pair), t.name
            checked += bool(t.special)
    assert checked > 1000
