"""Relation cycles, their signed lifts, and singularity descriptors.

A full repetition-free cycle of a gentle pair is a cyclic arrow sequence
a1 ... an, no arrow repeated, in which every consecutive pair (and the wrap
pair) is a relation.  Because each arrow has at most one relation partner
on each side, these cycles are the disjoint cycles of a partial injection
on arrows and every arrow lies on at most one of them.

The singularity descriptor is the multiset of positive shift integers, one
factor D^b(k)/[n] per cycle of length n; the skewed-gentle algebra has the
base pair's (Chen-Lu).  Over the associated gentle pair, an even base cycle
(even number of special junction vertices, counted with multiplicity)
contributes its length twice; an odd cycle contributes its doubled length
once.  ``gldim_flags`` checks this against the cycles of (Q^g, I^g).
"""

from __future__ import annotations

from .construct import _require_valid
from .errors import InternalInconsistency, NotGentle
from .quiver import BoundQuiver, Quiver, Record, SkewedGentleTriple, _set


class CycleClass(Record):
    """One cycle in canonical rotation (lexicographically smallest sequence).

    ``parity`` is "even" or "odd" and ``sigma`` and ``tau`` are the signs for
    positions 2..n, all set when a special set is known.
    """

    __slots__ = ("arrows", "parity", "sigma", "tau")

    def __init__(self, arrows: tuple[str, ...], parity: str | None = None,
                 sigma: tuple[str, ...] | None = None, tau: tuple[str, ...] | None = None):
        _set(self, "arrows", arrows)
        _set(self, "parity", parity)
        _set(self, "sigma", sigma)
        _set(self, "tau", tau)

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

    @property
    def total(self) -> int:
        return sum(self.shifts)


def _canonical_rotation(arrows: tuple[str, ...]) -> tuple[str, ...]:
    k = arrows.index(min(arrows))
    return arrows[k:] + arrows[:k]


def sign_sequences(quiver: Quiver, arrows, special) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Prefix-parity signs (sigma, tau) for positions 2..n of a path.

    sigma_i is "+" when the prefix a1 ... ai passes through an even number
    of special vertices, where passing through counts the junctions t(a_j)
    for j = 2..i; tau_i is the opposite sign.
    """
    amap = quiver.arrow_map
    sigma, tau = [], []
    count = 0
    for name in list(arrows)[1:]:
        if amap[name].target in special:
            count += 1
        sigma.append("+" if count % 2 == 0 else "-")
        tau.append("-" if count % 2 == 0 else "+")
    return tuple(sigma), tuple(tau)


def full_cycles(bq: BoundQuiver, special=None) -> set[CycleClass]:
    """All full repetition-free relation cycles of a gentle pair."""
    if bq.gentle_violations or bq.fd_witness is not None:
        raise NotGentle("full_cycles needs a gentle finite-dimensional pair: "
                        f"{list(bq.gentle_violations)}")
    nxt = {x: y for x, y in bq.relations}  # y follows x in the written sequence
    cycles = set()
    placed = set()
    for start in bq.quiver.arrow_map:
        if start in placed:
            continue
        seq = [start]
        seen = {start}
        while seq[-1] in nxt:
            follower = nxt[seq[-1]]
            if follower == start:
                arrows = _canonical_rotation(tuple(seq))
                placed.update(arrows)
                cycles.add(_classify(bq.quiver, arrows, special))
                break
            if follower in seen:
                break  # entered a cycle not through its start; handled from there
            seq.append(follower)
            seen.add(follower)
    return cycles


def _classify(quiver, arrows, special):
    if special is None:
        return CycleClass(arrows)
    junctions = sum(1 for name in arrows if quiver.arrow_map[name].target in special)
    sigma, tau = sign_sequences(quiver, arrows, special)
    return CycleClass(arrows, "even" if junctions % 2 == 0 else "odd", sigma, tau)


def lift_cycles(t: SkewedGentleTriple) -> set[CycleClass]:
    """Full cycles of (Q^g, I^g), produced from the base cycles by sign lifts.

    An even base cycle a1 ... an yields the two cycles a1+ a2^s2 ... an^sn
    and a1- a2^t2 ... an^tn; an odd one yields the single doubled cycle
    a1+ a2^s2 ... an^sn a1- a2^t2 ... an^tn.
    """
    _require_valid(t)
    lifted = set()
    for cycle in t.cycles:
        names = cycle.arrows
        plus = [names[0] + "+"] + [n + s for n, s in zip(names[1:], cycle.sigma)]
        minus = [names[0] + "-"] + [n + s for n, s in zip(names[1:], cycle.tau)]
        if cycle.parity == "even":
            lifted.add(CycleClass(_canonical_rotation(tuple(plus))))
            lifted.add(CycleClass(_canonical_rotation(tuple(minus))))
        else:
            lifted.add(CycleClass(_canonical_rotation(tuple(plus + minus))))
    return lifted


def descriptor_gentle(bq: BoundQuiver) -> SingularityDescriptor:
    return SingularityDescriptor.of(c.length for c in full_cycles(bq))


def descriptor_g(t: SkewedGentleTriple) -> SingularityDescriptor:
    """Descriptor of the associated gentle algebra, from base cycle parities."""
    _require_valid(t)
    shifts = []
    for cycle in t.cycles:
        if cycle.parity == "even":
            shifts.extend([cycle.length, cycle.length])
        else:
            shifts.append(2 * cycle.length)
    return SingularityDescriptor.of(shifts)


def gldim_flags(t: SkewedGentleTriple) -> dict[str, bool]:
    """Finiteness of the global dimension for all three algebras: finite
    exactly when the descriptor is trivial.

    gentle and sg share the base cycles (Chen-Lu).  For g, the descriptor
    from cycle parities must equal the one read off (Q^g, I^g), and the
    cycles of (Q^g, I^g) must be the sign lifts of the base cycles; a
    difference is an implementation bug.
    """
    formula = descriptor_g(t)
    g_cycles = full_cycles(t.g_pair.pair)
    direct = SingularityDescriptor.of(c.length for c in g_cycles)
    if formula != direct:
        raise InternalInconsistency(
            f"g descriptor of {t.name!r} from cycle parities {list(formula.shifts)} "
            f"disagrees with (Q^g, I^g): {list(direct.shifts)}"
        )
    lifted = lift_cycles(t)
    if lifted != g_cycles:
        odd_one = min(lifted ^ g_cycles, key=lambda c: c.arrows)
        where = ("a lift of a base cycle, not a cycle of (Q^g, I^g)" if odd_one in lifted
                 else "a cycle of (Q^g, I^g), not a lift of a base cycle")
        raise InternalInconsistency(f"g cycle {list(odd_one.arrows)} of {t.name!r} is {where}")
    base = not t.cycles
    return {"gentle": base, "sg": base, "g": direct.is_trivial}
