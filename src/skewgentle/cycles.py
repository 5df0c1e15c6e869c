"""Relation cycles, their signed lifts, and singularity descriptors.

A full repetition-free cycle of a gentle pair is a cyclic arrow sequence
a1 ... an, no arrow repeated, in which every consecutive pair (and the wrap
pair) is a relation.  Because each arrow has at most one relation partner
on each side, these cycles are the disjoint cycles of a partial injection
on arrows and every arrow lies on at most one of them, read off the
shared linear walk ``quiver._chain_cycles``.  A cycle holds what is
printed: its arrows and its parity, that of the number of special junction
vertices it passes, counted with multiplicity.

The singularity descriptor is the multiset of positive shift integers, one
factor D^b(k)/[n] per cycle of length n; the skewed-gentle algebra has the
base pair's (Chen-Lu).  Over the associated gentle pair, an even base cycle
contributes its length twice; an odd cycle contributes its doubled length
once.  ``descriptors`` checks this against the cycles of the lifted
relations of (Q^g, I^g), read with no arrow of Q^g made, and those cycles
against the sign lifts of the base cycles, whose rule ``lift_cycles`` holds;
the gldim flags are read off the checked descriptors.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import InternalInconsistency, NotGentle
from .quiver import BoundQuiver, Record, SkewedGentleTriple, _chain_cycles, _set


class CycleClass(Record):
    """A cycle in canonical rotation (least arrow first) and its parity, "even" or "odd"."""

    __slots__ = ("arrows", "parity")

    def __init__(self, arrows: tuple[str, ...], parity: str):
        _set(self, "arrows", arrows)
        _set(self, "parity", parity)

    @property
    def length(self) -> int:
        return len(self.arrows)


class SingularityDescriptor(Record):
    __slots__ = ("shifts",)

    def __init__(self, shifts: tuple[int, ...]):
        if tuple(sorted(shifts)) != shifts:
            raise ValueError("descriptor shifts must be sorted ascending")
        _set(self, "shifts", shifts)

    @staticmethod
    def of(values) -> "SingularityDescriptor":
        return SingularityDescriptor(tuple(sorted(values)))

    @property
    def is_trivial(self) -> bool:
        return not self.shifts


def _canonical_rotation(arrows: tuple[str, ...]) -> tuple[str, ...]:
    k = arrows.index(min(arrows))
    return arrows[k:] + arrows[:k]


def full_cycles(bq: BoundQuiver) -> set[CycleClass]:
    """All full repetition-free relation cycles of a gentle pair; a bare pair
    has no special vertex, so each is even.  A triple's, with their parities
    over its special set, are ``t.cycles``."""
    if bq.gentle_violations or bq.walk.cycle is not None:
        raise NotGentle("full_cycles needs a gentle finite-dimensional pair: "
                        f"{list(bq.gentle_violations)}")
    return set(_relation_cycles(bq, frozenset()))


def _relation_cycles(bq: BoundQuiver, special) -> tuple[CycleClass, ...]:
    """The cycles of a pair known gentle, by arrows: one linear walk of
    ``dict(relations)``, in which y follows x in the written sequence."""
    amap = bq.quiver.arrow_map
    cycles = [CycleClass(_canonical_rotation(tuple(arrows)),
                         "odd" if sum(amap[a].target in special for a in arrows) % 2 else "even")
              for arrows in _chain_cycles(dict(bq.relations))]
    return tuple(sorted(cycles, key=attrgetter("arrows")))


def lift_cycles(t: SkewedGentleTriple) -> set[tuple[str, ...]]:
    """Full cycles of (Q^g, I^g) as canonical arrow tuples, the sign lifts
    of the base cycles.  The sign s_i of a_i, i = 2..n, is "+" when t(a_2)
    ... t(a_i) hold an even number of special vertices, and t_i is the
    other sign.  An even base cycle a1 ... an yields the two cycles
    a1+ a2^s2 ... an^sn and a1- a2^t2 ... an^tn; an odd one yields the
    single doubled cycle a1+ a2^s2 ... an^sn a1- a2^t2 ... an^tn.
    """
    amap, special, signed = t.pair.quiver.arrow_map, t.special, t.g_arrow_names
    lifted = set()
    for cycle in t.cycles:
        first, *rest = cycle.arrows
        first_plus, first_minus = signed[first]
        plus, minus = [first_plus], [first_minus]
        odd = False
        for name in rest:
            odd ^= amap[name].target in special
            lifts = signed[name]  # (a+, a-): s_i is a+ past an even prefix
            plus.append(lifts[odd])
            minus.append(lifts[not odd])
        if cycle.parity == "even":
            lifted.add(_canonical_rotation(tuple(plus)))
            lifted.add(_canonical_rotation(tuple(minus)))
        else:
            lifted.add(_canonical_rotation(tuple(plus + minus)))
    return lifted


def descriptor_gentle(bq: BoundQuiver) -> SingularityDescriptor:
    return SingularityDescriptor.of(c.length for c in full_cycles(bq))


def descriptor_g(t: SkewedGentleTriple) -> SingularityDescriptor:
    """Descriptor of the associated gentle algebra, from base cycle parities."""
    shifts = []
    for cycle in t.cycles:
        if cycle.parity == "even":
            shifts.extend([cycle.length, cycle.length])
        else:
            shifts.append(2 * cycle.length)
    return SingularityDescriptor.of(shifts)


def descriptors(t: SkewedGentleTriple) -> dict[str, SingularityDescriptor]:
    """The singularity descriptors of the base, sg and g algebras.

    gentle and sg share the base cycles (Chen-Lu).  For g, the descriptor
    from cycle parities, ``descriptor_g``, must equal the one read off the
    full cycles of the relations of (Q^g, I^g), as ``lift_relations_to_g``
    writes them, and those cycles must be the sign lifts of the base
    cycles; a difference is an implementation bug.  Only the relations are
    read, and only their G1 is checked, by ``partner_maps``, so that their
    partner map is a partial injection: that (Q^g, I^g) is gentle and
    finite is checked where its arrows are read, by ``build_g_presentation``.
    """
    formula = descriptor_g(t)
    g_cycles = {_canonical_rotation(tuple(arrows)) for arrows in _chain_cycles(t.g_partners[0])}
    direct = SingularityDescriptor.of(map(len, g_cycles))
    if formula != direct:
        raise InternalInconsistency(
            f"g descriptor of {t.name!r} from cycle parities {list(formula.shifts)} "
            f"disagrees with (Q^g, I^g): {list(direct.shifts)}"
        )
    lifted = lift_cycles(t)
    if lifted != g_cycles:
        odd_one = min(lifted ^ g_cycles)
        where = ("a lift of a base cycle, not a cycle of (Q^g, I^g)" if odd_one in lifted
                 else "a cycle of (Q^g, I^g), not a lift of a base cycle")
        raise InternalInconsistency(f"g cycle {list(odd_one)} of {t.name!r} is {where}")
    base = SingularityDescriptor.of(c.length for c in t.cycles)
    return {"gentle": base, "sg": base, "g": formula}


def gldim_flags(found: dict[str, SingularityDescriptor]) -> dict[str, bool]:
    """Finiteness of the global dimension of each algebra of ``found``, as
    ``descriptors`` gives them: finite exactly when the descriptor is trivial."""
    return {which: d.is_trivial for which, d in found.items()}
