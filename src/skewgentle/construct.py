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

from dataclasses import dataclass
from functools import cached_property

from .errors import InternalInconsistency, NameCollision, NotSkewedGentle
from .quiver import Arrow, BoundQuiver, SkewedGentleTriple, build_quiver

_SUFFIX_BUDGET = 1000


@dataclass(frozen=True)
class SignedVertex:
    base: str
    sign: str  # "", "+", or "-"

    @property
    def name(self) -> str:
        return self.base + self.sign


@dataclass(frozen=True)
class SgArrow:
    """One lift (a, alpha, b) of a base arrow to signed endpoints."""

    base: str
    source: str
    target: str

    @property
    def name(self) -> str:
        return f"{self.base}@{self.source}@{self.target}"


@dataclass(frozen=True)
class CommRelation:
    """Equality of the through-plus and through-minus 2-paths.

    Each side is a pair of SgArrow names (later, first) sharing outer
    endpoints and differing only in the sign of the middle vertex.
    """

    plus: tuple[str, str]
    minus: tuple[str, str]


@dataclass(frozen=True)
class SgPresentation:
    vertices: tuple[SignedVertex, ...]
    arrows: tuple[SgArrow, ...]
    zero_relations: frozenset[tuple[str, str]]
    comm_relations: frozenset[CommRelation]

    @cached_property
    def arrow_map(self) -> dict[str, SgArrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def vertex_names(self) -> tuple[str, ...]:
        return tuple(sorted(v.name for v in self.vertices))


@dataclass(frozen=True, eq=False)
class GPairLabels:
    pair: BoundQuiver
    vertex_label: dict[str, SignedVertex]
    arrow_label: dict[str, tuple[str, str]]


@dataclass(frozen=True, eq=False)
class Involution:
    vertex_map: dict[str, str]
    arrow_map: dict[str, str]


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


def vertex_lifts(t: SkewedGentleTriple, split, what: str) -> dict[str, tuple[SignedVertex, ...]]:
    """Signed lifts of each base vertex: v+ and v- for v in ``split``, v itself otherwise."""
    q = t.pair.quiver
    _require_distinct_lifts(q.vertices, split, what)
    return {
        v: (SignedVertex(v, "+"), SignedVertex(v, "-")) if v in split else (SignedVertex(v, ""),)
        for v in q.vertex_list
    }


def _require_distinct_lifts(vertices, split, what):
    """Raise NameCollision for the least unsplit vertex named v+ or v- with v split:
    a split name ends in its sign, so no other two lifts can share a name."""
    clashes = [v + s for v in split for s in "+-" if v + s in vertices and v + s not in split]
    if clashes:
        name = min(clashes)
        raise NameCollision(f"{what} name {name!r} produced twice (from {name[:-1]!r} and {name!r})")


def build_sg_presentation(t: SkewedGentleTriple) -> SgPresentation:
    _require_valid(t)
    base = t.pair
    q = base.quiver
    lifts = vertex_lifts(t, t.special, "Q^sg vertex")

    vertices = tuple(sv for v in q.vertex_list for sv in lifts[v])
    arrows = tuple(
        SgArrow(a.name, src.name, tgt.name)
        for a in sorted(q.arrows, key=lambda a: a.name)
        for src in lifts[a.source]
        for tgt in lifts[a.target]
    )
    if len({a.name for a in arrows}) != len(arrows):
        raise NameCollision("derived Q^sg arrow names are not distinct")

    # Every composition through a special vertex is a base relation, or
    # Q^sp would fail G1 or SB2 there, so these comm relations are all of them.
    zero = set()
    comm = set()
    amap = q.arrow_map
    for x, y in base.relation_list:
        ax, ay = amap[x], amap[y]
        middle = ay.target
        for outer_src in lifts[ay.source]:
            for outer_tgt in lifts[ax.target]:
                if middle in t.special:
                    plus, minus = lifts[middle]
                    comm.add(CommRelation(
                        plus=(SgArrow(x, plus.name, outer_tgt.name).name,
                              SgArrow(y, outer_src.name, plus.name).name),
                        minus=(SgArrow(x, minus.name, outer_tgt.name).name,
                               SgArrow(y, outer_src.name, minus.name).name),
                    ))
                else:
                    mid = lifts[middle][0]
                    zero.add((SgArrow(x, mid.name, outer_tgt.name).name,
                              SgArrow(y, outer_src.name, mid.name).name))
    return SgPresentation(vertices, arrows, frozenset(zero), frozenset(comm))


def _g_endpoint(v, sign, special):
    return v if v in special else v + sign


def build_g_pair(t: SkewedGentleTriple) -> GPairLabels:
    _require_valid(t)
    q = t.pair.quiver
    lifts = vertex_lifts(t, q.vertices - t.special, "Q^g vertex")
    vertex_label = {sv.name: sv for v in q.vertex_list for sv in lifts[v]}

    arrows = []
    arrow_label = {}
    for a in sorted(q.arrows, key=lambda a: a.name):
        for sign in ("+", "-"):
            name = a.name + sign
            arrows.append(Arrow(name,
                                _g_endpoint(a.source, sign, t.special),
                                _g_endpoint(a.target, sign, t.special)))
            arrow_label[name] = (a.name, sign)

    relations = set()
    for x, y in t.pair.relation_list:
        middle = q.arrow_map[y].target
        if middle in t.special:
            relations.add((x + "+", y + "-"))
            relations.add((x + "-", y + "+"))
        else:
            relations.add((x + "+", y + "+"))
            relations.add((x + "-", y + "-"))

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
