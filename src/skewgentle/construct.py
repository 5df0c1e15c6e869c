"""The three constructions attached to a skewed-gentle triple (Q, Sp, I).

* (Q^sp, I^sp): add a squared-zero loop at each special vertex.  The triple
  is skewed-gentle exactly when this pair is gentle and finite dimensional.
* (Q^sg, I^sg): split special vertices into v+, v- and lift every arrow to
  all signed endpoint choices; base relations become zero relations when
  their middle vertex is ordinary and commutativity relations (through-plus
  equals through-minus) when it is special.
* (Q^g, I^g): split ordinary vertices instead, double every arrow into a+,
  a-, and pair relation signs equal/opposite according to the middle vertex.
  This pair is gentle again and carries a canonical order-2 involution
  swapping the signs.

Commutativity relations are stored sign-free: the minus-weighted term is
moved across the equation, so both stored sides carry coefficient +1.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InternalInconsistency, NameCollision, NotSkewedGentle
from .quiver import Arrow, BoundQuiver, Record, SkewedGentleTriple, _set, build_quiver

_SUFFIX_BUDGET = 1000


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
    __slots__ = ("vertices", "arrows", "zero_relations", "comm_relations", "__dict__")

    def __init__(self, vertices: tuple[SignedVertex, ...], arrows: tuple[SgArrow, ...],
                 zero_relations: frozenset[tuple[str, str]],
                 comm_relations: frozenset[CommRelation]):
        _set(self, "vertices", vertices)
        _set(self, "arrows", arrows)
        _set(self, "zero_relations", zero_relations)
        _set(self, "comm_relations", comm_relations)

    @cached_property
    def arrow_map(self) -> dict[str, SgArrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def vertex_names(self) -> tuple[str, ...]:
        return tuple(sorted(v.name for v in self.vertices))


class GPairLabels(Record, eq=False):
    __slots__ = ("pair", "vertex_label", "arrow_label")

    def __init__(self, pair: BoundQuiver, vertex_label: dict[str, SignedVertex],
                 arrow_label: dict[str, tuple[str, str]]):
        _set(self, "pair", pair)
        _set(self, "vertex_label", vertex_label)
        _set(self, "arrow_label", arrow_label)


class Involution(Record, eq=False):
    __slots__ = ("vertex_map", "arrow_map")

    def __init__(self, vertex_map: dict[str, str], arrow_map: dict[str, str]):
        _set(self, "vertex_map", vertex_map)
        _set(self, "arrow_map", arrow_map)


def _fresh_loop_name(vertex, taken):
    name = f"sp_{vertex}"
    if name not in taken:
        return name
    for k in range(2, _SUFFIX_BUDGET):
        candidate = f"{name}_{k}"
        if candidate not in taken:
            return candidate
    raise NameCollision(f"no free loop name for special vertex {vertex!r}")


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


def _signed_vertices(lifts):
    """A SignedVertex per lifted name of a lift table, in its order."""
    return [(name, SignedVertex(v, name[len(v):])) for v, names in lifts.items() for name in names]


def build_sg_presentation(t: SkewedGentleTriple) -> SgPresentation:
    _require_valid(t)
    base = t.pair
    q = base.quiver
    special = t.special
    signed = vertex_lifts(t, special, "Q^sg vertex")

    vertices = tuple(sv for _, sv in _signed_vertices(signed))
    arrows, names = [], set()
    for a in q.arrows:
        for src in signed[a.source]:
            for tgt in signed[a.target]:
                arrows.append(SgArrow(a.name, src, tgt))
                names.add(_sg_arrow_name(a.name, src, tgt))
    if len(names) != len(arrows):
        raise NameCollision("derived Q^sg arrow names are not distinct")

    # Every composition through a special vertex is a base relation, or
    # Q^sp would fail G1 or SB2 there, so these comm relations are all of them.
    zero = set()
    comm = set()
    amap = q.arrow_map
    for x, y in base.relation_list:
        sources, middle, targets = signed[amap[y].source], amap[y].target, signed[amap[x].target]
        if middle in special:
            plus, minus = signed[middle]
            for src in sources:
                for tgt in targets:
                    comm.add(CommRelation(
                        plus=(_sg_arrow_name(x, plus, tgt), _sg_arrow_name(y, src, plus)),
                        minus=(_sg_arrow_name(x, minus, tgt), _sg_arrow_name(y, src, minus)),
                    ))
        else:
            for src in sources:
                for tgt in targets:
                    zero.add((_sg_arrow_name(x, middle, tgt), _sg_arrow_name(y, src, middle)))
    return SgPresentation(vertices, tuple(arrows), frozenset(zero), frozenset(comm))


def build_g_pair(t: SkewedGentleTriple) -> GPairLabels:
    _require_valid(t)
    q = t.pair.quiver
    special = t.special
    signed = vertex_lifts(t, q.vertices - special, "Q^g vertex")
    vertex_label = dict(_signed_vertices(signed))
    # a+ ends at a vertex's first lift and a- at its last: v itself when special
    ends = {v: (names[0], names[-1]) for v, names in signed.items()}

    arrows = []
    arrow_label = {}
    doubled = {}  # base arrow -> (a+, a-)
    for a in q.arrows:
        (src_plus, src_minus), (tgt_plus, tgt_minus) = ends[a.source], ends[a.target]
        plus, minus = doubled[a.name] = a.name + "+", a.name + "-"
        arrows.append(Arrow(plus, src_plus, tgt_plus))
        arrows.append(Arrow(minus, src_minus, tgt_minus))
        arrow_label[plus] = (a.name, "+")
        arrow_label[minus] = (a.name, "-")

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

    pair = BoundQuiver(build_quiver(sorted(vertex_label), arrows), frozenset(relations))
    if pair.gentle_violations or pair.fd_witness is not None:
        raise InternalInconsistency(
            f"associated pair of {t.name!r} is not gentle/finite: {list(pair.gentle_violations)}"
        )
    return GPairLabels(pair, vertex_label, arrow_label)


def canonical_involution(t: SkewedGentleTriple) -> Involution:
    """The sign swap on (Q^g, I^g): v+ <-> v-, a+ <-> a-, specials fixed."""
    g = t.g_pair
    flip = {"+": "-", "-": "+", "": ""}
    vertex_map = {
        name: sv.base + flip[sv.sign] for name, sv in sorted(g.vertex_label.items())
    }
    arrow_map = {
        name: base + flip[sign] for name, (base, sign) in sorted(g.arrow_label.items())
    }

    for m in (vertex_map, arrow_map):
        if any(m[m[k]] != k for k in m):
            raise InternalInconsistency("involution is not self-inverse")
    fixed = {v for v, w in vertex_map.items() if v == w}
    if fixed != set(t.special):
        raise InternalInconsistency("involution fixes the wrong vertex set")
    amap = g.pair.quiver.arrow_map
    for name, arrow in amap.items():
        image = amap[arrow_map[name]]
        if image.source != vertex_map[arrow.source] or image.target != vertex_map[arrow.target]:
            raise InternalInconsistency("involution is not a quiver morphism")
    mapped = {(arrow_map[x], arrow_map[y]) for x, y in g.pair.relations}
    if mapped != set(g.pair.relations):
        raise InternalInconsistency("involution does not preserve the relations")
    return Involution(vertex_map, arrow_map)
