import itertools
import random
from fractions import Fraction

import pytest

from conftest import special_line
from reference import ZERO, admissible_base_pair, ends, multiply, relation_free_paths

from skewgentle import (
    Arrow,
    BasisPath,
    BoundQuiver,
    LimitExceeded,
    NotSpecial,
    SkewedGentleTriple,
    admissible_special_sets,
    algebra,
    basis,
    build_quiver,
    corner_data,
    dimension,
    dimension_oracle,
    random_triple,
)
from skewgentle.algebra import _degree_dimension, _oracle_presentation


def test_basis_fix_a2(fix_a2):
    elements = basis(fix_a2)
    assert len(elements) == 8
    assert set(elements) == {
        BasisPath((), "1", "1"),
        BasisPath((), "2+", "2+"),
        BasisPath((), "2-", "2-"),
        BasisPath(("a",), "1", "2+"),
        BasisPath(("a",), "1", "2-"),
        BasisPath(("b",), "2+", "1"),
        BasisPath(("b",), "2-", "1"),
        BasisPath(("b", "a"), "1", "1"),
    }


def test_basis_fix_c1(fix_c1):
    assert len(basis(fix_c1)) == 5


def test_basis_no_special_matches_relation_free_paths(fix_a, fix_b):
    for t in (fix_a, fix_b):
        assert len(basis(t)) == len(t.pair.quiver.vertices) + len(relation_free_paths(t.pair))


def test_multiply_through_special(fix_a2):
    b_plus = BasisPath(("b",), "2+", "1")
    a_plus = BasisPath(("a",), "1", "2+")
    assert multiply(fix_a2, b_plus, a_plus) == BasisPath(("b", "a"), "1", "1")


def test_multiply_zero_relation(fix_a2):
    a_plus = BasisPath(("a",), "1", "2+")
    b_plus = BasisPath(("b",), "2+", "1")
    assert multiply(fix_a2, a_plus, b_plus) is ZERO


def test_multiply_identity(fix_a2):
    a_minus = BasisPath(("a",), "1", "2-")
    assert multiply(fix_a2, a_minus, BasisPath((), "1", "1")) == a_minus
    assert multiply(fix_a2, BasisPath((), "2-", "2-"), a_minus) == a_minus


def test_multiply_orthogonal(fix_a2):
    a_plus = BasisPath(("a",), "1", "2+")
    b_minus = BasisPath(("b",), "2-", "1")
    assert multiply(fix_a2, a_plus, a_plus) is ZERO
    assert multiply(fix_a2, b_minus, a_plus) is ZERO  # 2+ vs 2-


def _composable_pairs(t):
    elements = basis(t)
    for p in elements:
        for q in elements:
            if p.source == q.target:
                yield p, q


def test_nonzero_junction_products(fix_a2, fix_b3, fix_c1):
    # a product over a non-relation junction is a basis path of added length
    for t in (fix_a2, fix_b3, fix_c1):
        elements = set(basis(t))
        for p, q in _composable_pairs(t):
            result = multiply(t, p, q)
            if not p.arrows or not q.arrows:
                continue
            junction = (p.arrows[-1], q.arrows[0])
            middle = t.pair.quiver.arrow_map[q.arrows[0]].target
            if middle not in t.special and junction in t.pair.relations:
                assert result is ZERO
            else:
                assert result is not ZERO
                assert result in elements
                assert len(result.arrows) == len(p.arrows) + len(q.arrows)


def test_cyclic_basis_paths_square_to_zero(fix_a2, fix_b3, fix_c1):
    for t in (fix_a2, fix_b3, fix_c1):
        for p in basis(t):
            if p.arrows and p.source == p.target:
                assert multiply(t, p, p) is ZERO


def test_multiply_associative_exhaustive(fix_a2, fix_b3):
    for t in (fix_a2, fix_b3):
        elements = basis(t)
        for p in elements:
            for q in elements:
                for r in elements:
                    left = multiply(t, multiply(t, p, q), r)
                    right = multiply(t, p, multiply(t, q, r))
                    assert left == right or (left is ZERO and right is ZERO)


def test_dimension_examples(fix_a2, fix_b3, fix_c1):
    assert dimension(fix_a2, "gentle") == 4
    assert dimension(fix_a2, "sg") == 8
    assert dimension(fix_a2, "g") == 9
    assert dimension(fix_b3, "gentle") == 6
    assert dimension(fix_b3, "sg") == 10
    assert dimension(fix_b3, "g") == 13
    assert dimension(fix_c1, "sg") == 5


def test_dimension_closed_form(fix_a2, fix_b3, fix_c1):
    for t in (fix_a2, fix_b3, fix_c1):
        total = len(t.pair.quiver.vertices) + len(t.special)
        pair = admissible_base_pair(t)
        for p in relation_free_paths(pair):
            source, target = ends(pair, p)
            total += 2 ** ((source in t.special) + (target in t.special))
        assert dimension(t, "sg") == total


def test_dimension_oracle_examples(fix_a2, fix_c1):
    assert dimension_oracle(fix_a2, "sg") == 8
    assert dimension_oracle(fix_c1, "sg") == 5
    assert dimension_oracle(fix_a2, "gentle") == 4
    assert dimension_oracle(fix_a2, "g") == 9


def test_dimension_oracle_no_special_equals_gentle(fix_a, fix_b):
    for t in (fix_a, fix_b):
        assert dimension_oracle(t, "sg") == dimension(t, "gentle")


def test_relation_free_count_equals_sg_rank_oracle(fix_a, fix_b, fix_c, fix_d):
    # the base-pair path count and the rank oracle over Sp = {} must agree
    for t in (fix_a, fix_b, fix_c, fix_d):
        base = SkewedGentleTriple(t.pair, frozenset(), name=t.name)
        paths = len(t.pair.quiver.vertices) + len(relation_free_paths(t.pair))
        assert paths == dimension_oracle(base, "sg")


def test_dimension_oracle_cap(fix_b3):
    with pytest.raises(LimitExceeded):
        dimension_oracle(fix_b3, "sg", cap=3)


def test_corner_data_fix_a2(fix_a2):
    data = corner_data(fix_a2, "2")
    assert (data.dim_gamma, data.dim_gamma_prime) == (8, 4)
    assert (data.dim_a, data.dim_m, data.dim_n, data.dim_im_phi) == (5, 1, 1, 1)
    assert data.identity_holds
    assert data.t1_basis == (BasisPath(("b",), "2-", "1"),)
    assert data.t2_basis == (BasisPath(("a",), "1", "2-"),)


def test_corner_data_fix_c1(fix_c1):
    data = corner_data(fix_c1, "1")
    assert (data.dim_gamma, data.dim_gamma_prime) == (5, 3)
    assert (data.dim_a, data.dim_m, data.dim_n, data.dim_im_phi) == (3, 1, 0, 0)
    assert data.identity_holds


def test_corner_data_isolated_vertex():
    t = SkewedGentleTriple(BoundQuiver(build_quiver(["1"], [])), frozenset({"1"}))
    data = corner_data(t, "1")
    assert data.dim_m == data.dim_n == 0
    assert data.dim_gamma == data.dim_gamma_prime + 1
    assert data.identity_holds


def test_corner_data_not_special(fix_a2):
    with pytest.raises(NotSpecial):
        corner_data(fix_a2, "1")


def _special_path_counts(t, a):
    """Independent S1/S2 tallies straight from the admissible base pair."""
    outs = {arr.name for arr in t.pair.quiver.outgoing[a]}
    ins = {arr.name for arr in t.pair.quiver.incoming[a]}
    s1 = s2 = s1_special_target = s2_special_source = 0
    pair = admissible_base_pair(t)
    for p in relation_free_paths(pair):
        source, target = ends(pair, p)
        if p[-1] in outs:
            s1 += 1
            if target in t.special:
                s1_special_target += 1
        if p[0] in ins:
            s2 += 1
            if source in t.special:
                s2_special_source += 1
    return s1, s2, s1_special_target, s2_special_source


def test_m_prime_counting_formula(fix_a2, fix_b3, fix_c1):
    triples = [fix_a2, fix_b3, fix_c1]
    triples += [random_triple(s, 6, 7) for s in range(40)]
    for t in triples:
        for a in t.special_list:
            data = corner_data(t, a)
            s1, s2, extra_m, extra_n = _special_path_counts(t, a)
            assert data.dim_m_prime == s1
            assert data.dim_n_prime == s2
            assert data.dim_m == s1 + extra_m
            assert data.dim_n == s2 + extra_n


def test_partition_identity(fix_a2, fix_b3, fix_c1):
    for t in (fix_a2, fix_b3, fix_c1):
        for a in t.special_list:
            data = corner_data(t, a)
            assert data.dim_gamma == data.dim_a + data.dim_m + data.dim_n + 1


def test_multiply_absorbs_zero(fix_a2):
    a_plus = BasisPath(("a",), "1", "2+")
    assert multiply(fix_a2, ZERO, a_plus) is ZERO
    assert multiply(fix_a2, a_plus, ZERO) is ZERO


def test_dimension_unknown_algebra(fix_a2):
    with pytest.raises(ValueError):
        dimension(fix_a2, "bogus")


def test_reduction_chain_orders(fix_b3):
    # removing special vertices in any order reaches the base dimension
    for order in (list(fix_b3.special_list), list(reversed(fix_b3.special_list))):
        t = fix_b3
        for a in order:
            data = corner_data(t, a)
            assert data.identity_holds
            t = SkewedGentleTriple(t.pair, t.special - {a}, name=t.name)
            assert dimension(t, "sg") == data.dim_gamma_prime
        assert dimension(t, "sg") == dimension(fix_b3, "gentle")


def test_multiply_associative_randomized():
    for seed in range(25):
        t = random_triple(seed, 6, 7)
        elements = basis(t)
        for p in elements:
            for q in elements:
                for r in elements:
                    left = multiply(t, multiply(t, p, q), r)
                    right = multiply(t, p, multiply(t, q, r))
                    assert left == right or (left is ZERO and right is ZERO)


def test_oracle_agrees_on_larger_triples():
    # beyond the acceptance sizes, and for all three algebras
    for seed in range(1000, 1025):
        t = random_triple(seed, 8, 12)
        for which in ("gentle", "sg", "g"):
            assert dimension(t, which) == dimension_oracle(t, which, cap=200000)


def test_reduction_chain_reversed_on_random():
    for seed in range(30):
        t = random_triple(seed, 6, 7)
        current = t
        for a in reversed(current.special_list):
            data = corner_data(current, a)
            assert data.identity_holds
            current = SkewedGentleTriple(current.pair, current.special - {a})
        assert dimension(current, "sg") == dimension(t, "gentle")


# dimension_oracle as it was before zero paths were counted instead of
# listed and before the flip graph's components replaced elimination: every
# path is listed, each one through a zero relation gets a unit row, each
# commutativity junction a row p - flip(p), and the rows are ranked by exact
# rational elimination.  It is the reference for the oracle, cap included.

def _rank(rows) -> int:
    """Rank of sparse rows (dict column -> Fraction) by exact elimination."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                rank += 1
                break
            piv = pivots[col]
            factor = row[col] / piv[col]
            for c, v in piv.items():
                new = row.get(c, Fraction(0)) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
    return rank


def _reference_dimension_oracle(t, which, cap):
    vertices, triples, zero_pairs, comm, bound = _oracle_presentation(t, which)
    starting = {v: [] for v in vertices}
    for name, src, _ in sorted(triples):
        starting[src].append(name)
    succ = {name: starting[tgt] for name, _, tgt in triples}
    total = dim = len(vertices)
    if total > cap:
        raise LimitExceeded("cap")
    current = [(name,) for name in sorted(succ)]
    degree = 1
    while degree <= bound and current:
        total += len(current)
        if total > cap:
            raise LimitExceeded("cap")
        index = {p: i for i, p in enumerate(current)}
        rows = []
        for p in current:
            factors = [(p[i], p[i + 1]) for i in range(len(p) - 1)]
            if any((later, first) in zero_pairs for first, later in factors):
                rows.append({index[p]: Fraction(1)})
                continue
            for i, factor in enumerate(factors):
                partner = comm.get(factor)
                if partner is not None:
                    flipped = p[:i] + partner + p[i + 2:]
                    rows.append({index[p]: Fraction(1), index[flipped]: Fraction(-1)})
        dim += len(current) - _rank(rows)
        if degree == bound:
            break
        current = [p + (nxt,) for p in current for nxt in succ[p[-1]]]
        degree += 1
    return dim


def _oracle_or_capped(oracle, t, which, cap):
    try:
        return oracle(t, which, cap=cap)
    except LimitExceeded:
        return "capped"


def test_oracle_matches_reference_on_random_triples():
    for seed, size in [*((s, (7, 9)) for s in range(60)), *((s, (12, 16)) for s in range(20))]:
        t = random_triple(seed, *size)
        for which in ("gentle", "sg", "g"):
            for cap in (10, 300, 20000):
                assert (_oracle_or_capped(dimension_oracle, t, which, cap)
                        == _oracle_or_capped(_reference_dimension_oracle, t, which, cap)), \
                    (seed, size, which, cap)


def _full_relation_cycle(n, k, offset):
    """Every composition a relation, and every k-th vertex from ``offset`` special."""
    vs = [f"v{i}" for i in range(n)]
    arrows = [Arrow(f"a{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    relations = frozenset((arrows[(i + 1) % n].name, arrows[i].name) for i in range(n))
    special = frozenset(vs[offset::k])
    return SkewedGentleTriple(BoundQuiver(build_quiver(vs, arrows), relations), special)


@pytest.mark.parametrize("n", range(2, 11))
def test_oracle_matches_reference_on_many_commutativity_relations(n):
    # each special vertex of a full-relation cycle gives a commutativity
    # relation; with every vertex special the pair is not admissible
    for k in range(2, n + 1):
        for offset in range(k):
            t = _full_relation_cycle(n, k, offset)
            for which in ("gentle", "sg", "g"):
                for cap in (10, 300, 20000):
                    got = _oracle_or_capped(dimension_oracle, t, which, cap)
                    assert got == _oracle_or_capped(_reference_dimension_oracle, t, which, cap), \
                        (n, k, offset, which, cap)
                    if got != "capped":
                        assert got == dimension(t, which), (n, k, offset, which, cap)


def test_oracle_matches_fraction_reference_with_commutativity_relations():
    # the first six admissible special sets of each generated pair; the
    # quotient by flip-graph components must agree with elimination
    with_comm = 0
    for seed in range(300):
        pair = random_triple(seed, 8, 11).pair
        for special in admissible_special_sets(pair)[:6]:
            t = SkewedGentleTriple(pair, frozenset(special))
            with_comm += bool(t.sg_presentation.comm_relations)
            for cap in (10, 300, 20000):
                assert (_oracle_or_capped(dimension_oracle, t, "sg", cap)
                        == _oracle_or_capped(_reference_dimension_oracle, t, "sg", cap)), \
                    (seed, special, cap)
    assert with_comm == 204


@pytest.mark.parametrize("n", range(8, 12))
def test_oracle_matches_fraction_reference_on_special_lines(n):
    t = special_line(n)
    for cap in (10, 300, 20000):
        assert (_oracle_or_capped(dimension_oracle, t, "sg", cap)
                == _oracle_or_capped(_reference_dimension_oracle, t, "sg", cap)), cap


def test_degree_quotient_matches_elimination_when_flips_leave_the_paths():
    # In a presentation built from a triple every flip stays among the listed
    # paths: a zero relation holds for both signs at a junction.  Here random
    # subsets of the words of length 4 are quotiented by an involution on
    # letter pairs, so some flips leave the subset and kill their component.
    comm = {(0, 1): (2, 3), (2, 3): (0, 1), (1, 2): (3, 0), (3, 0): (1, 2)}
    words = list(itertools.product(range(4), repeat=4))
    rng = random.Random(0)
    killed = 0
    for _ in range(200):
        paths = [w for w in words if rng.random() < rng.choice((0.5, 0.9, 0.97))]
        flips = [tuple(i for i in range(3) if p[i:i + 2] in comm) for p in paths]
        index = {p: j for j, p in enumerate(paths)}
        rows = []
        for j, (p, at) in enumerate(zip(paths, flips)):
            for i in at:
                flipped = index.get(p[:i] + comm[p[i:i + 2]] + p[i + 2:])
                rows.append({j: Fraction(1)} if flipped is None
                            else {j: Fraction(1), flipped: Fraction(-1)})
                killed += flipped is None
        assert _degree_dimension(paths, flips, comm) == len(paths) - _rank(rows)
    assert killed


def test_no_flip_leaves_the_paths_of_a_triple(monkeypatch):
    # A zero relation of Q^sg holds for every sign of its outer ends, so a
    # flip keeps a path's zero relations: the oracle never kills a path on
    # a presentation built from a triple.  Counted on the generated triples
    # of the differential test above and on L_3-L_11.
    junctions, killed = [], []

    def counted(paths, flips, comm):
        listed = set(paths)
        for p, at in zip(paths, flips):
            for i in at:
                junctions.append(p)
                if p[:i] + comm[p[i:i + 2]] + p[i + 2:] not in listed:
                    killed.append(p)
        return _degree_dimension(paths, flips, comm)

    monkeypatch.setattr(algebra, "_degree_dimension", counted)
    triples = 0
    for seed in range(300):
        pair = random_triple(seed, 8, 11).pair
        for special in admissible_special_sets(pair)[:6]:
            triples += 1
            dimension_oracle(SkewedGentleTriple(pair, frozenset(special)), "sg")
    assert (triples, len(junctions), killed) == (1430, 1778, [])
    for n in range(3, 12):
        dimension_oracle(special_line(n), "sg")
    assert (len(junctions), killed) == (1778 + 49794, [])


def _line_with_relations(n, offset, special_ends):
    """A_n with every 3rd 2-path from ``offset`` a relation: no commutativity
    relation, zero relations and long paths."""
    vs = [f"v{i}" for i in range(n)]
    arrows = [Arrow(f"a{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    relations = frozenset((arrows[i + 1].name, arrows[i].name) for i in range(offset, n - 2, 3))
    special = frozenset({vs[0], vs[-1]}) if special_ends else frozenset()
    return SkewedGentleTriple(BoundQuiver(build_quiver(vs, arrows), relations), special)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 19, 30])
def test_oracle_matches_reference_on_lines_without_commutativity(n):
    # the oracle keeps a comm-free path as its last arrow; the reference
    # lists whole paths.  Same value or both capped, around the cap each
    # presentation first exceeds.
    for offset in range(3):
        for special_ends in (False, True):
            t = _line_with_relations(n, offset, special_ends)
            for which in ("gentle", "sg", "g"):
                low, high = 1, 20000  # the least cap the reference does not exceed
                while low < high:
                    mid = (low + high) // 2
                    if _oracle_or_capped(_reference_dimension_oracle, t, which, mid) == "capped":
                        low = mid + 1
                    else:
                        high = mid
                for cap in range(max(1, low - 3), low + 3):
                    got = _oracle_or_capped(dimension_oracle, t, which, cap)
                    assert got == _oracle_or_capped(_reference_dimension_oracle, t, which, cap), \
                        (n, offset, special_ends, which, cap)
                    assert (got == "capped") == (cap < low)
                assert dimension_oracle(t, which, cap=low) == dimension(t, which)
