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

Each lift table, Q^sg's and Q^g's, is made once per triple by
``vertex_lifts`` and kept on it (``sg_lifts``, ``g_lifts``); the
constructions, dimensions, basis and corner data all read the kept one.
Q^g's lift rule is written once, in ``lift_to_g``, as plain names:
``build_g_pair`` makes the pair from its output, and ``invariants`` reads
that output as it is (``g_lift``), with no pair built.
Q^sg is held as plain names, with no record per vertex, arrow or relation:
an arrow is a (name, base, source, target) tuple, formatted once and
checked for distinctness, and a comm relation is its two sides as name
pairs.  The three renderers and the sg oracle read these tuples.
"""

from __future__ import annotations

from itertools import chain, starmap

from .errors import InternalInconsistency, NameCollision, NotSkewedGentle
from .quiver import Arrow, BoundQuiver, Quiver, Record, SkewedGentleTriple, _set, build_quiver


class SgPresentation(Record):
    """Q^sg and I^sg as plain names.  ``vertex_names`` holds the vertices'
    names, sorted, and ``split`` the names v+ and v- of the special
    vertices' lifts.  ``arrows`` holds one (name, base, source, target) per
    arrow: the lifts a@s@t of each base arrow a, in ``Quiver.arrows`` order,
    source lift major.  ``zero_relations`` holds name pairs (later, first),
    and ``comm_relations`` (plus side, minus side) pairs of them: the two
    sides share their outer ends and differ only in the sign of the middle
    vertex."""

    __slots__ = ("vertex_names", "split", "arrows", "zero_relations", "comm_relations")

    def __init__(self, vertex_names: tuple[str, ...], split: frozenset[str],
                 arrows: tuple[tuple[str, str, str, str], ...],
                 zero_relations: frozenset[tuple[str, str]],
                 comm_relations: frozenset[tuple[tuple[str, str], tuple[str, str]]]):
        _set(self, "vertex_names", vertex_names)
        _set(self, "split", split)
        _set(self, "arrows", arrows)
        _set(self, "zero_relations", zero_relations)
        _set(self, "comm_relations", comm_relations)


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
    a split name ends in its sign, so no other two lifts can share a name.
    The check reads each vertex name once and formats no lift, so it stays
    cheap when most vertices are split, as in Q^g."""
    q = t.pair.quiver
    clashes = [w for w in q.vertices
               if w.endswith(("+", "-")) and w[:-1] in split and w not in split]
    if clashes:
        name = min(clashes)
        raise NameCollision(f"{what} name {name!r} produced twice (from {name[:-1]!r} and {name!r})")
    return {v: (v + "+", v + "-") if v in split else (v,) for v in q.vertex_list}


def build_sg_presentation(t: SkewedGentleTriple) -> SgPresentation:
    _require_valid(t)
    base = t.pair
    q = base.quiver
    special = t.special
    signed = t.sg_lifts

    # each lift named once, a@s@t; lifted[a] holds a's lift names source-major
    arrows, lifted = [], {}
    for a in q.arrows:
        names = lifted[a.name] = []
        for src in signed[a.source]:
            for tgt in signed[a.target]:
                name = f"{a.name}@{src}@{tgt}"
                arrows.append((name, a.name, src, tgt))
                names.append(name)
    if len(set(chain.from_iterable(lifted.values()))) != len(arrows):
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
                    comm.add(((x_plus, y_plus), (x_minus, y_minus)))
        else:
            for y_lift in into:
                for x_lift in out:
                    zero.add((x_lift, y_lift))
    names = tuple(sorted(chain.from_iterable(signed.values())))
    split = frozenset(chain.from_iterable(map(signed.__getitem__, special)))
    return SgPresentation(names, split, tuple(arrows), frozenset(zero), frozenset(comm))


def lift_to_g(t: SkewedGentleTriple) -> tuple[list[tuple[str, str, str]],
                                               list[tuple[str, str]]]:
    """(Q^g, I^g) as plain names, the one place its lift rule is written:
    its arrows as (name, source, target), a+ then a- for each base arrow a
    in ``Quiver.arrows`` order, and its relations as name pairs, two per
    base relation.  ``build_g_pair`` makes the pair from them; the gldim
    flags and the ``--dims`` check of the g count read them as they are."""
    _require_valid(t)
    q = t.pair.quiver
    special = t.special
    # a+ ends at a vertex's first lift and a- at its last: v itself when special
    ends = {v: (names[0], names[-1]) for v, names in t.g_lifts.items()}

    arrows = []
    doubled = {}  # base arrow -> (a+, a-)
    for a in q.arrows:
        (src_plus, src_minus), (tgt_plus, tgt_minus) = ends[a.source], ends[a.target]
        plus, minus = doubled[a.name] = a.name + "+", a.name + "-"
        arrows.append((plus, src_plus, tgt_plus))
        arrows.append((minus, src_minus, tgt_minus))

    relations = []
    amap = q.arrow_map
    for x, y in t.pair.relations:
        (x_plus, x_minus), (y_plus, y_minus) = doubled[x], doubled[y]
        if amap[y].target in special:
            relations += ((x_plus, y_minus), (x_minus, y_plus))
        else:
            relations += ((x_plus, y_plus), (x_minus, y_minus))
    return arrows, relations


def build_g_pair(t: SkewedGentleTriple) -> GPairLabels:
    arrows, relations = lift_to_g(t)
    signed = t.g_lifts
    # Quiver, not build_quiver: vertex_lifts refuses a vertex named as a lift,
    # x+ and x- differ from y+ and y- for x != y, and so do a+ and a- from
    # b+ and b- for arrows a != b; every endpoint comes from the lift table.
    # BoundQuiver.unchecked, not BoundQuiver: each relation lifts a relation
    # (x, y) of the checked base pair, whose middle vertex m = t(y) = s(x).
    # Its arrows are x+ or x- and y+ or y-, and both sides meet at one lift
    # of m: y+ and x+ at m+ and y- and x- at m- when m is ordinary; y- and
    # x+, or y+ and x-, at m itself when m is special, its one lift.
    vertices = frozenset(chain.from_iterable(signed.values()))
    pair = BoundQuiver.unchecked(Quiver(vertices, starmap(Arrow, arrows)), frozenset(relations))
    if pair.gentle_violations or pair.walk.cycle is not None:
        raise InternalInconsistency(
            f"associated pair of {t.name!r} is not gentle/finite: {list(pair.gentle_violations)}"
        )
    return GPairLabels(pair, signed)
