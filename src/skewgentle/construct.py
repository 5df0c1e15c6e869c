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
Q^sg and Q^g are held as plain names, with no record per vertex, arrow or
relation.  A Q^sg arrow is a (name, base, source, target) tuple, formatted
once and checked for distinctness, and a comm relation is its two sides as
name pairs.  Q^g's relations (which the gldim flags read alone) and its
arrows are lifted by one rule each, as rows, with the arrows' signed names
read from the one table the triple keeps, ``g_arrow_names``.  The
relations become partner maps by ``quiver.partner_maps``, and
``build_g_presentation`` decides the rows gentle by
``quiver.gentle_decision``, the decision of the base pair and of Q^sp too,
and counts them off its successor graph, with no pair built.  Only a fault
builds Q^g as a pair, in ``_q_g_fault``, for the witnesses its message
names.
"""

from __future__ import annotations

from itertools import chain

from .errors import InternalInconsistency, NameCollision, NotSkewedGentle
from .quiver import (Arrow, BoundQuiver, Quiver, Record, SkewedGentleTriple, _first_bad_item,
                     _set, build_quiver, gentle_decision)


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


class GPresentation(Record, eq=False):
    """(Q^g, I^g) as its lift rows, checked gentle and finite: the lift
    table of its vertices (a special vertex keeps its one name, unsigned),
    its arrows, its relations as the map x -> y of each relation (x, y), the
    dimension of its algebra and the length of its longest relation-free
    path."""

    __slots__ = ("lifts", "arrows", "relations", "dimension", "longest")

    def __init__(self, lifts: dict[str, tuple[str, ...]], arrows: list[tuple[str, str, str]],
                 relations: dict[str, str], dimension: int, longest: int):
        _set(self, "lifts", lifts)
        _set(self, "arrows", arrows)
        _set(self, "relations", relations)
        _set(self, "dimension", dimension)
        _set(self, "longest", longest)


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


def lift_relations_to_g(t: SkewedGentleTriple) -> list[tuple[str, str]]:
    """I^g as name pairs, two per base relation (x, y): (x+, y+) and
    (x-, y-) when the middle vertex m = t(y) is ordinary, (x+, y-) and
    (x-, y+) when it is special.  Each is a composable 2-path of Q^g: both
    arrows meet at m+ or m- when m is ordinary, and at m, its one lift."""
    _require_valid(t)
    special = t.special
    amap = t.pair.quiver.arrow_map
    signed = t.g_arrow_names
    relations = []
    for x, y in t.pair.relations:
        (x_plus, x_minus), (y_plus, y_minus) = signed[x], signed[y]
        if amap[y].target in special:
            relations += ((x_plus, y_minus), (x_minus, y_plus))
        else:
            relations += ((x_plus, y_plus), (x_minus, y_minus))
    return relations


def lift_arrows_to_g(t: SkewedGentleTriple) -> list[tuple[str, str, str]]:
    """Q^g's arrows as (name, source, target): a+ between the first lifts of
    a's ends and a- between the last, for each base arrow a in
    ``Quiver.arrows`` order.  No two names clash, as ``vertex_lifts`` refuses
    a vertex named as a lift."""
    _require_valid(t)
    # a+ ends at a vertex's first lift and a- at its last: v itself when special
    ends = {v: (names[0], names[-1]) for v, names in t.g_lifts.items()}
    signed = t.g_arrow_names
    arrows = []
    for a in t.pair.quiver.arrows:
        (src_plus, src_minus), (tgt_plus, tgt_minus) = ends[a.source], ends[a.target]
        plus, minus = signed[a.name]
        arrows += ((plus, src_plus, tgt_plus), (minus, src_minus, tgt_minus))
    return arrows


def _q_g_fault(t: SkewedGentleTriple):
    """Raise InternalInconsistency for lift rows that are no gentle pair of
    finite dimension, naming why in the rules ``validate`` prints: Q^g is
    built as a ``BoundQuiver`` from its rows, and the message lists the
    witness pass's violations or, for a gentle pair, the cycle of its walk
    (FD).  A row that does not resolve is named by ``_first_bad_item``, so
    any rows get a message."""
    vertices = list(chain.from_iterable(t.g_lifts.values()))
    arrows = [Arrow(*row) for row in lift_arrows_to_g(t)]
    relations = lift_relations_to_g(t)
    bad = _first_bad_item(vertices, arrows, sorted(relations))
    if bad is not None:
        fault = str(bad[2])
    else:
        pair = BoundQuiver(Quiver(frozenset(vertices), arrows), frozenset(relations))
        witnesses = [(v.rule, v.items) for v in pair.gentle_violations] or [("FD", pair.walk.cycle)]
        fault = "; ".join(f"{rule}: {', '.join(items)}" for rule, items in witnesses)
    raise InternalInconsistency(f"associated pair of {t.name!r} is not gentle/finite: {fault}")


def build_g_presentation(t: SkewedGentleTriple) -> GPresentation:
    """(Q^g, I^g) from its lift rows, once they are shown a gentle pair of
    finite dimension, with its dimension and its longest relation-free path
    read off its maximal free threads; ``_q_g_fault`` names what fails
    otherwise.  ``gentle_decision``, the one decision of every pair, gives
    each arrow at most one free successor and no two arrows the same one,
    so the relation-free paths are the runs of the threads, L(L+1)/2 in a
    thread of L arrows, and an arrow on no thread lies on a cycle (FD).
    Shares no counting code with ``dimension``."""
    arrows = lift_arrows_to_g(t)
    before, after = t.g_partners
    index = gentle_decision(arrows, before, after)
    if index is None:
        _q_g_fault(t)
    succ = index[3]
    # a thread starts at each arrow without a free predecessor
    followed = set(chain.from_iterable(succ.values()))
    lifts = t.g_lifts
    dimension, longest, threaded = sum(map(len, lifts.values())), 0, 0
    for name, _, _ in arrows:
        if name in followed:
            continue
        length = 1
        out = succ[name]
        while out:
            out = succ[out[0]]
            length += 1
        threaded += length
        dimension += length * (length + 1) // 2
        if length > longest:
            longest = length
    if threaded < len(arrows):
        _q_g_fault(t)
    return GPresentation(lifts, arrows, before, dimension, longest)
