"""Laws that relate the outputs on one triple to those on another.

The opposite algebra: reversing every arrow of (Q, I) and reading each
relation x*y as y*x gives the bound quiver of the opposite algebra, with
the same special set.  Every notion the package decides is self-dual, so
the two triples agree on validity, the rules they break, their cycles, the
descriptors and gldim flags, the three dimensions, the sg oracle and the
admissible special sets, and the corner of a special vertex a
swaps the paths from a- with those to a-: M with N and M' with N'.  The law
compares outputs only, so it shares no code with any count.
"""

import random
from collections import Counter

from skewgentle import (
    Arrow,
    BoundQuiver,
    SkewedGentleTriple,
    admissible_special_sets,
    build_quiver,
    corner_data,
    descriptors,
    dimension_oracle,
    dimensions,
    gldim_flags,
    random_triple,
)


def opposite(t: SkewedGentleTriple) -> SkewedGentleTriple:
    """Every arrow reversed, each relation x*y read as y*x, the same special set."""
    q = t.pair.quiver
    arrows = [Arrow(a.name, a.target, a.source) for a in q.arrows]
    relations = frozenset((y, x) for x, y in t.pair.relations)
    return SkewedGentleTriple(BoundQuiver(build_quiver(q.vertex_list, arrows), relations),
                              t.special, t.name)


def _verdict(t):
    report = t.validation
    flags = (report.special_biserial, report.gentle, report.finite_dimensional,
             report.skewed_gentle)
    return flags, Counter(v.rule for v in report.violations)


def _invariants(t):
    found = descriptors(t)
    return (sorted((c.length, c.parity) for c in t.cycles), found, gldim_flags(found),
            dimensions(t), dimension_oracle(t, "sg"))


_SWAPPED = {"dim_m": "dim_n", "dim_n": "dim_m", "dim_m_prime": "dim_n_prime",
            "dim_n_prime": "dim_m_prime"}
_CORNER = ("dim_gamma", "dim_gamma_prime", "dim_a", "dim_m", "dim_n", "dim_im_phi",
           "dim_m_prime", "dim_n_prime", "identity_holds")


def _pairs():
    """The pairs of ``random_triple`` seeds 0-299 at (8, 11)."""
    for seed in range(300):
        yield seed, random_triple(seed, 8, 11).pair


def test_the_opposite_algebra_gives_the_same_outputs():
    # each pair under its first six admissible special sets and under six
    # random vertex sets, most of which are not admissible
    valid = invalid = swapped = 0
    for seed, pair in _pairs():
        rng = random.Random(seed)
        vertices = pair.quiver.vertex_list
        specials = [*admissible_special_sets(pair)[:6],
                    *(rng.sample(vertices, rng.randint(1, len(vertices))) for _ in range(6))]
        for special in specials:
            t = SkewedGentleTriple(pair, frozenset(special), name=f"R{seed}")
            op = opposite(t)
            assert _verdict(op) == _verdict(t), (t.name, t.special_list)
            if not t.validation.skewed_gentle:
                invalid += 1
                continue
            valid += 1
            assert _invariants(op) == _invariants(t), (t.name, t.special_list)
            for a in t.special_list:
                corner, op_corner = corner_data(t, a), corner_data(op, a)
                for field in _CORNER:
                    assert getattr(op_corner, _SWAPPED.get(field, field)) == \
                        getattr(corner, field), (t.name, t.special_list, a, field)
                swapped += ((corner.dim_m, corner.dim_m_prime)
                            != (corner.dim_n, corner.dim_n_prime))
    # the law meets both verdicts, and corners where the swap shows
    assert valid > 1900 and invalid > 1100 and swapped > 1400, (valid, invalid, swapped)


def test_the_opposite_pair_has_the_same_admissible_special_sets():
    for seed, pair in _pairs():
        op = opposite(SkewedGentleTriple(pair)).pair
        assert admissible_special_sets(op) == admissible_special_sets(pair), seed
