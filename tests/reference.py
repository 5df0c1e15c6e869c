"""Reference computations the tests check the package against.

Each one is written from the definition, reads no successor graph, walk or
count of the package, and is not part of it: no command needs it.

* ``relation_free_paths``: every nontrivial path of a bound quiver through
  no relation, listed one by one.
* ``admissible_base_pair``: (Q, I1), the base pair less the relations
  through special vertices, built as a pair that walks its own graph.
* ``multiply``: the product of two normal forms of the sg algebra.
* ``sign_swap``: the sign swap of (Q^g, I^g), named from the triple.
"""

from skewgentle import BasisPath, BoundQuiver, InfiniteDimensional, InternalInconsistency


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
    if p.is_trivial:
        return q
    if q.is_trivial:
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
