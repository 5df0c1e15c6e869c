"""The three constructions attached to a skewed-gentle triple (Q, Sp, I).

* (Q^sp, I^sp): add a squared-zero loop at each special vertex.  The triple
  is skewed-gentle exactly when this pair is gentle and finite dimensional.
* (Q^sg, I^sg): split special vertices into v+, v- and lift every arrow to
  all signed endpoint choices; base relations become zero relations when
  their middle vertex is ordinary and commutativity relations (through-plus
  equals through-minus) when it is special.
* (Q^g, I^g): split ordinary vertices instead, double every arrow into a+,
  a-, and pair relation signs equal/opposite according to the middle vertex.
  This pair is gentle again, and swapping the signs is an involution of it.

Commutativity relations are stored sign-free: the minus-weighted term is
moved across the equation, so both stored sides carry coefficient +1.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .errors import InternalInconsistency, NameCollision, NotSkewedGentle
from .quiver import Arrow, BoundQuiver, Quiver, Record, SkewedGentleTriple, _set, build_quiver


class SignedVertex(Record):
    __slots__ = ("base", "sign")

    def __init__(self, base: str, sign: str):  # sign is "", "+", or "-"
        _set(self, "base", base)
        _set(self, "sign", sign)

    @property
    def name(self) -> str:
        return self.base + self.sign


def _sg_arrow_name(base: str, source: str, target: str) -> str:
    """The name of the lift of base arrow ``base`` from signed vertex ``source`` to ``target``."""
    return f"{base}@{source}@{target}"


class SgArrow(Record):
    """One lift (a, alpha, b) of a base arrow to signed endpoints."""

    __slots__ = ("base", "source", "target")

    def __init__(self, base: str, source: str, target: str):
        _set(self, "base", base)
        _set(self, "source", source)
        _set(self, "target", target)

    @property
    def name(self) -> str:
        return _sg_arrow_name(self.base, self.source, self.target)


class CommRelation(Record):
    """Equality of the through-plus and through-minus 2-paths.

    Each side is a pair of SgArrow names (later, first) sharing outer
    endpoints and differing only in the sign of the middle vertex.
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus: tuple[str, str], minus: tuple[str, str]):
        _set(self, "plus", plus)
        _set(self, "minus", minus)


class SgPresentation(Record):
    """Q^sg and I^sg.  ``arrow_map`` sends each arrow's name to the arrow, in
    ``arrows`` order; ``build_sg_presentation`` gives the map it made the
    names in, and otherwise it is made from ``arrows`` on first read."""

    __slots__ = ("vertices", "arrows", "zero_relations", "comm_relations", "__dict__")

    def __init__(self, vertices: tuple[SignedVertex, ...], arrows: tuple[SgArrow, ...],
                 zero_relations: frozenset[tuple[str, str]],
                 comm_relations: frozenset[CommRelation],
                 arrow_map: dict[str, SgArrow] | None = None):
        _set(self, "vertices", vertices)
        _set(self, "arrows", arrows)
        _set(self, "zero_relations", zero_relations)
        _set(self, "comm_relations", comm_relations)
        if arrow_map is not None:
            self.__dict__["arrow_map"] = arrow_map

    @cached_property
    def arrow_map(self) -> dict[str, SgArrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def vertex_names(self) -> tuple[str, ...]:
        return tuple(sorted(v.name for v in self.vertices))


class GPairLabels(Record, eq=False):
    """(Q^g, I^g) with ``lifts``, the lift table of its vertices
    (``vertex_lifts``), where only a special vertex has one name, its own:
    Q^g leaves it unsigned."""

    __slots__ = ("pair", "lifts")

    def __init__(self, pair: BoundQuiver, lifts: dict[str, tuple[str, ...]]):
        _set(self, "pair", pair)
        _set(self, "lifts", lifts)


def _fresh_loop_name(vertex, taken):
    """``sp_v``, or else ``sp_v_k`` for the least k >= 2 not in ``taken``.

    A taken ``sp_v_k`` is a name of this form for no other vertex, as k has
    no ``_``, so all the searches together read each taken name once.
    """
    name = f"sp_{vertex}"
    if name not in taken:
        return name
    k = 2
    while f"{name}_{k}" in taken:
        k += 1
    return f"{name}_{k}"


def build_sp_pair(t: SkewedGentleTriple) -> BoundQuiver:
    """Adjoin one squared-zero loop per special vertex."""
    q = t.pair.quiver
    arrows = list(q.arrows)
    taken = set(q.arrow_map)
    relations = set(t.pair.relations)
    for v in t.special_list:
        loop = _fresh_loop_name(v, taken)
        taken.add(loop)
        arrows.append(Arrow(loop, v, v))
        relations.add((loop, loop))
    return BoundQuiver(build_quiver(q.vertex_list, arrows), frozenset(relations))


def _require_valid(t):
    report = t.validation
    if not report.skewed_gentle:
        rules = sorted({v.rule for v in report.violations})
        raise NotSkewedGentle(f"triple {t.name!r} is not skewed-gentle (violations: {rules})")


def vertex_lifts(t: SkewedGentleTriple, split, what: str) -> dict[str, tuple[str, ...]]:
    """The lift table: the signed names of each base vertex, v+ and v- for v
    in ``split``, v itself otherwise, in ``vertex_list`` order.  Raises
    NameCollision for the least unsplit vertex named v+ or v- with v split:
    a split name ends in its sign, so no other two lifts can share a name."""
    q = t.pair.quiver
    clashes = [v + s for v in split for s in "+-" if v + s in q.vertices and v + s not in split]
    if clashes:
        name = min(clashes)
        raise NameCollision(f"{what} name {name!r} produced twice (from {name[:-1]!r} and {name!r})")
    return {v: (v + "+", v + "-") if v in split else (v,) for v in q.vertex_list}


def build_sg_presentation(t: SkewedGentleTriple) -> SgPresentation:
    _require_valid(t)
    base = t.pair
    q = base.quiver
    special = t.special
    signed = vertex_lifts(t, special, "Q^sg vertex")

    vertices = tuple(SignedVertex(v, name[len(v):])
                     for v, names in signed.items() for name in names)
    # each lift named once; lifted[a] holds a's lift names source-major
    arrow_map, lifted = {}, {}
    for a in q.arrows:
        names = lifted[a.name] = []
        for src in signed[a.source]:
            for tgt in signed[a.target]:
                name = _sg_arrow_name(a.name, src, tgt)
                arrow_map[name] = SgArrow(a.name, src, tgt)
                names.append(name)
    if len(arrow_map) != sum(map(len, lifted.values())):
        raise NameCollision("derived Q^sg arrow names are not distinct")

    # Every composition through a special vertex is a base relation, or
    # Q^sp would fail G1 or SB2 there, so these comm relations are all of them.
    zero = set()
    comm = set()
    amap = q.arrow_map
    for x, y in base.relations:
        into, out = lifted[y], lifted[x]
        if amap[y].target in special:
            # y's lifts alternate into plus and minus, per source; x's lifts
            # out of plus, one per target, come before those out of minus
            half = len(out) // 2
            for y_plus, y_minus in zip(into[::2], into[1::2]):
                for x_plus, x_minus in zip(out[:half], out[half:]):
                    comm.add(CommRelation(plus=(x_plus, y_plus), minus=(x_minus, y_minus)))
        else:
            for y_lift in into:
                for x_lift in out:
                    zero.add((x_lift, y_lift))
    return SgPresentation(vertices, tuple(arrow_map.values()), frozenset(zero), frozenset(comm),
                          arrow_map)


def build_g_pair(t: SkewedGentleTriple) -> GPairLabels:
    _require_valid(t)
    q = t.pair.quiver
    special = t.special
    signed = vertex_lifts(t, q.vertices - special, "Q^g vertex")
    # a+ ends at a vertex's first lift and a- at its last: v itself when special
    ends = {v: (names[0], names[-1]) for v, names in signed.items()}

    arrows = []
    doubled = {}  # base arrow -> (a+, a-)
    for a in q.arrows:
        (src_plus, src_minus), (tgt_plus, tgt_minus) = ends[a.source], ends[a.target]
        plus, minus = doubled[a.name] = a.name + "+", a.name + "-"
        arrows.append(Arrow(plus, src_plus, tgt_plus))
        arrows.append(Arrow(minus, src_minus, tgt_minus))

    relations = set()
    amap = q.arrow_map
    for x, y in t.pair.relations:
        (x_plus, x_minus), (y_plus, y_minus) = doubled[x], doubled[y]
        if amap[y].target in special:
            relations.add((x_plus, y_minus))
            relations.add((x_minus, y_plus))
        else:
            relations.add((x_plus, y_plus))
            relations.add((x_minus, y_minus))

    # Quiver, not build_quiver: vertex_lifts refuses a vertex named as a lift,
    # x+ and x- differ from y+ and y- for x != y, and so do a+ and a- from
    # b+ and b- for arrows a != b; every endpoint comes from the lift table.
    vertices = frozenset(chain.from_iterable(signed.values()))
    pair = BoundQuiver(Quiver(vertices, arrows), frozenset(relations))
    if pair.gentle_violations or pair.walk.cycle is not None:
        raise InternalInconsistency(
            f"associated pair of {t.name!r} is not gentle/finite: {list(pair.gentle_violations)}"
        )
    return GPairLabels(pair, signed)
