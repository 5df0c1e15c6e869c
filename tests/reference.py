"""Reference computations the tests check the package against.

Each one is written from the definition, reads no successor graph, walk or
count of the package, and is not part of it: no command needs it.

* ``relation_free_paths``: every nontrivial path of a bound quiver through
  no relation, listed one by one.
* ``admissible_base_pair``: (Q, I1), the base pair less the relations
  through special vertices, built as a pair that walks its own graph.
* ``multiply``: the product of two normal forms of the sg algebra.
* ``sign_swap``: the sign swap of (Q^g, I^g), named from the triple.
* ``walk``: the plain depth-first walk of a successor graph, an iterator
  per node on the trail, as ``quiver._walk`` must walk it.
* ``build_g_pair``: (Q^g, I^g) built as a bound quiver from its lift rows,
  which decides its own gentleness and walks its own graph.
* ``sign_sequences`` and ``lift_cycles``: the prefix-parity signs (sigma,
  tau) of a path, and the sign lifts of a triple's base cycles built from
  them, as the package once kept them on each cycle.
* ``construction_payload``: the JSON payload of a bound quiver, Q^g or
  Q^sg as a dict, which ``json.dumps(..., sort_keys=True, indent=2)``
  writes as ``report_json`` must write the object.
* ``first_unresolved_item``: the message and place of the first item of a
  well-formed text that does not resolve, each rule checked item by item in
  written order, as the reader once checked them after the model.
"""

from itertools import chain, starmap

from skewgentle import (
    Arrow,
    BasisPath,
    BoundQuiver,
    GPresentation,
    InfiniteDimensional,
    InternalInconsistency,
    Quiver,
    SgPresentation,
    construct,
)
from skewgentle.dsl import _Parser, _span


def relation_free_paths(bq):
    """The nontrivial relation-free paths of ``bq``, each as its arrow names
    in written order (last entry applied first), by length and then names.
    With the trivial paths, one per vertex, they span the monomial algebra.
    Raises InfiniteDimensional when a path can grow forever."""
    q = bq.quiver
    limit = len(q.arrows)  # a longer relation-free path repeats an arrow, so it can grow forever
    paths = []
    stack = [(a.name,) for a in q.arrows]
    while stack:
        p = stack.pop()
        if len(p) > limit:
            raise InfiniteDimensional(f"relation-free path {list(p)} repeats an arrow")
        paths.append(p)
        end = q.arrow_map[p[0]].target
        stack += [(g.name, *p) for g in q.outgoing[end] if (g.name, p[0]) not in bq.relations]
    paths.sort(key=lambda p: (len(p), p))
    return paths


def ends(bq, p):
    """The source and target vertex of the nontrivial path ``p`` of ``bq``."""
    amap = bq.quiver.arrow_map
    return amap[p[-1]].source, amap[p[0]].target


def admissible_base_pair(t):
    """(Q, I1): the base pair keeping only the relations whose middle vertex
    is ordinary."""
    amap = t.pair.quiver.arrow_map
    kept = frozenset((x, y) for x, y in t.pair.relations if amap[y].target not in t.special)
    return BoundQuiver(t.pair.quiver, kept)


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "Zero"


ZERO = _Zero()


def multiply(t, p, q):
    """Product p * q (q applied first) of normal forms of the sg algebra.

    Orthogonal endpoints give ZERO, and so does a junction on a zero
    relation (ordinary middle vertex); a junction at a split vertex is
    rewritten to the minus copy, which the normal form leaves implicit.
    """
    if p is ZERO or q is ZERO or p.source != q.target:
        return ZERO
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    later, first = p.arrows[-1], q.arrows[0]
    middle = t.pair.quiver.arrow_map[first].target
    if middle in t.special:
        if (later, first) not in t.pair.relations:
            raise InternalInconsistency(
                f"composition {later}*{first} through special vertex {middle!r} has no base relation")
    elif (later, first) in t.pair.relations:
        return ZERO
    return BasisPath(p.arrows + q.arrows, q.source, p.target)


def sign_swap(t):
    """The maps of vertex and arrow names of Q^g that swap the signs: v+ and
    v- for each ordinary vertex v, and a+ and a- for each base arrow a; a
    special vertex keeps its own name and is fixed."""
    flip = {"+": "-", "-": "+"}
    vertex_map = {v: v for v in t.special}
    for v in t.pair.quiver.vertices - t.special:
        vertex_map.update({v + s: v + flip[s] for s in "+-"})
    arrow_map = {a.name + s: a.name + flip[s] for a in t.pair.quiver.arrows for s in "+-"}
    return vertex_map, arrow_map


def build_g_pair(t):
    """(Q^g, I^g) as a bound quiver on the triple's lift rows, its arrows
    as ``construct.lift_arrows_to_g`` makes them and its relations as
    ``construct.lift_relations_to_g`` does, checked composable.  Its
    ``gentle_violations`` and ``walk.cycle`` say whether it is gentle and
    finite; it is not checked here."""
    arrows = construct.lift_arrows_to_g(t)
    vertices = frozenset(chain.from_iterable(t.g_lifts.values()))
    relations = frozenset(construct.lift_relations_to_g(t))
    return BoundQuiver(Quiver(vertices, starmap(Arrow, arrows)), relations)


def sign_sequences(quiver, arrows, special):
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


def _rotated(arrows):
    k = arrows.index(min(arrows))
    return arrows[k:] + arrows[:k]


def lift_cycles(t):
    """The full cycles of (Q^g, I^g) as sign lifts of the base cycles, each
    as its arrows in canonical rotation: an even base cycle a1 ... an gives
    a1+ a2^s2 ... an^sn and a1- a2^t2 ... an^tn, an odd one the doubled
    cycle a1+ a2^s2 ... an^sn a1- a2^t2 ... an^tn, (s, t) its signs.  The
    parity is counted here: that of the arrows of the cycle that end at a
    special vertex."""
    amap = t.pair.quiver.arrow_map
    lifted = set()
    for cycle in t.cycles:
        names = cycle.arrows
        sigma, tau = sign_sequences(t.pair.quiver, names, t.special)
        plus = [names[0] + "+"] + [n + s for n, s in zip(names[1:], sigma)]
        minus = [names[0] + "-"] + [n + s for n, s in zip(names[1:], tau)]
        if sum(amap[n].target in t.special for n in names) % 2 == 0:
            lifted |= {_rotated(tuple(plus)), _rotated(tuple(minus))}
        else:
            lifted.add(_rotated(tuple(plus + minus)))
    return lifted


def walk(graph):
    """``(cycle, [])`` for the first cycle an iterative depth-first walk of
    ``graph`` (node to successor tuple) meets, starts in name order and
    successors in the order given, else ``(None, order)`` with the nodes in
    the order they finish.  A node without successors finishes when reached."""
    state = dict.fromkeys(graph, 0)  # 0 unvisited, 1 on the trail, 2 done
    order = []
    for start in sorted(graph):
        if state[start]:
            continue
        state[start] = 1
        trail, pending = [start], [iter(graph[start])]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                done = trail.pop()
                state[done] = 2
                order.append(done)
                pending.pop()
            elif state[nxt] == 1:
                return tuple(trail[trail.index(nxt):]), []
            elif state[nxt] == 0:
                state[nxt] = 1
                trail.append(nxt)
                pending.append(iter(graph[nxt]))
    return None, order


def _relation(pair):
    return f"{pair[0]}*{pair[1]}"


def construction_payload(x, name="Q"):
    """The payload of a bound quiver, of Q^g (its pair) or of Q^sg: the
    vertices, the arrows by name and the relations, each relation written
    ``x*y``; a comm relation is its two sides, ordered by the plus side."""
    if isinstance(x, SgPresentation):
        return {
            "name": name,
            "vertices": list(x.vertex_names),
            "arrows": [{"name": n, "base": base, "source": src, "target": tgt}
                       for n, base, src, tgt in sorted(x.arrows, key=lambda a: a[0])],
            "zero_relations": [_relation(r) for r in sorted(x.zero_relations)],
            "comm_relations": [{"plus": _relation(plus), "minus": _relation(minus)}
                               for plus, minus in sorted(x.comm_relations, key=lambda c: c[0])],
        }
    if isinstance(x, GPresentation):
        vertices = chain.from_iterable(x.lifts.values())
        arrows, relations = x.arrows, x.relations.items()
    else:
        vertices = x.quiver.vertices
        arrows = [(a.name, a.source, a.target) for a in x.quiver.arrows]
        relations = x.relations
    return {
        "name": name,
        "vertices": sorted(vertices),
        "arrows": [{"name": n, "source": src, "target": tgt} for n, src, tgt in sorted(arrows)],
        "relations": [_relation(r) for r in sorted(relations)],
    }


def first_unresolved_item(text):
    """``(message, span)`` of the first item of the well-formed ``text``
    that does not resolve, or None when every item resolves.  Statements are
    checked in the order vertices, arrows, relations, special, and items in
    the order written."""
    parser = _Parser(text)
    _, stmts = parser.file()

    def error(message, kind, index):
        return message, _span(text, parser.firsts[kind][index])

    vertices = set()
    for i, v in enumerate(stmts["vertices"]):
        if v in vertices:
            return error(f"vertex {v!r} declared twice", "vertices", i)
        vertices.add(v)

    arrow_ends = {}
    for i, (a, src, tgt) in enumerate(stmts.get("arrows", ())):
        if a in arrow_ends:
            return error(f"arrow {a!r} declared twice", "arrows", i)
        if src not in vertices:
            return error(f"arrow {a!r} starts at unknown vertex {src!r}", "arrows", i)
        if tgt not in vertices:
            return error(f"arrow {a!r} ends at unknown vertex {tgt!r}", "arrows", i)
        arrow_ends[a] = (src, tgt)

    relations = set()
    for i, (x, y) in enumerate(stmts.get("relations", ())):
        for arrow in (x, y):
            if arrow not in arrow_ends:
                return error(f"relation names unknown arrow {arrow!r}", "relations", i)
        if arrow_ends[y][1] != arrow_ends[x][0]:
            return error(f"relation {x}*{y} is not composable: "
                         f"t({y}) = {arrow_ends[y][1]!r} but s({x}) = {arrow_ends[x][0]!r}",
                         "relations", i)
        if (x, y) in relations:
            return error(f"relation {x}*{y} declared twice", "relations", i)
        relations.add((x, y))

    special = set()
    for i, v in enumerate(stmts.get("special", ())):
        if v not in vertices:
            return error(f"special names unknown vertex {v!r}", "special", i)
        if v in special:
            return error(f"special vertex {v!r} declared twice", "special", i)
        special.add(v)
    return None
