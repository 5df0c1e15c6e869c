"""Special-biserial, gentle, and skewed-gentle checks with violation witnesses.

Rule identifiers are stable and part of the JSON contract:

* ``SB1`` - a vertex starts or ends more than two arrows
* ``SB2`` - an arrow has two relation-free composition partners on one side
* ``G1``  - an arrow has two relation partners on one side
* ``G2``  - a relation is not a length-2 zero relation (unreachable here:
  the data model admits nothing else, the id is reserved for the schema)
* ``FD``  - the presentation has relation-free cycles (infinite dimension)
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

from .errors import NotGentle
from .quiver import ArrowWalk, BoundQuiver, Record, SkewedGentleTriple, _chain_cycles, _set


class Violation(Record):
    __slots__ = ("rule", "items")

    def __init__(self, rule: str, items: tuple[str, ...]):
        _set(self, "rule", rule)
        _set(self, "items", items)


class ValidationReport(Record):
    __slots__ = ("special_biserial", "gentle", "finite_dimensional", "skewed_gentle",
                 "violations")

    def __init__(self, special_biserial: bool, gentle: bool, finite_dimensional: bool,
                 skewed_gentle: bool, violations: tuple[Violation, ...]):
        _set(self, "special_biserial", special_biserial)
        _set(self, "gentle", gentle)
        _set(self, "finite_dimensional", finite_dimensional)
        _set(self, "skewed_gentle", skewed_gentle)
        _set(self, "violations", violations)


def _gentle_witnesses(bq: BoundQuiver) -> list[Violation]:
    """One pass: SB1 over the vertices, then SB2 and G1 over the arrows;
    the violations come out SB1, then SB2 by arrow, then G1 by arrow.

    Every relation partner of an arrow is a composition partner on that
    side, so an arrow with k arrows in and j relation partners before it
    has k - j free ones, and they are listed only for a violation."""
    q = bq.quiver
    out, inc = q.outgoing, q.incoming
    violations = [Violation("SB1", (v,)) for v in q.vertex_list
                  if len(out[v]) > 2 or len(inc[v]) > 2]
    g1 = []
    succ, before, after = bq.successors, bq.relations_before, bq.relations_after
    for name, source, _ in q.arrows:
        nonrel_succ = succ[name]
        if len(nonrel_succ) > 1:
            violations.append(Violation("SB2", (name, *nonrel_succ)))
        rel_pred = before[name]
        ins = inc[source]
        if len(ins) - len(rel_pred) > 1:
            killed = set(rel_pred)
            violations.append(Violation("SB2", (name, *[b for b, _, _ in ins
                                                         if b not in killed])))
        if len(rel_pred) > 1:
            g1.append(Violation("G1", (name, *rel_pred)))
        rel_succ = after[name]
        if len(rel_succ) > 1:
            g1.append(Violation("G1", (name, *rel_succ)))
    violations += g1
    return violations


def validate_skewed_gentle(t: SkewedGentleTriple) -> ValidationReport:
    """Decide the triple: is (Q^sp, I^sp) gentle and finite dimensional?

    It is exactly when (Q, I) is gentle and finite dimensional, every special
    vertex passes the local rule, and ``successors`` plus the edge a -> b of
    each valency-2 special vertex stays acyclic (the proof is under
    ``admissible_special_sets``): one rule check per special vertex and one
    walk, ``t.admissible_walk``, since a graph acyclic with those edges is
    acyclic without them.  The base pair's own walk (``walk``) and
    Q^sp are made only when the answer is no, for the flags and the
    witnesses of the failure.

    The special_biserial / gentle / finite_dimensional flags describe the
    base pair (Q, I); skewed_gentle and the violations describe (Q^sp, I^sp),
    which subsumes every defect of the base pair.  ``t.validation`` keeps
    the report with the triple; every other check reads it from there.
    """
    if _is_skewed_gentle(t):
        # acyclic with the loops' edges, so acyclic without them: (Q, I) is finite too
        return ValidationReport(special_biserial=True, gentle=True, finite_dimensional=True,
                                skewed_gentle=True, violations=())
    base = t.pair
    gentle = not base.gentle_violations
    flags = {
        # the witnesses hold SB violations too: only G1 ones leave the pair special biserial
        "special_biserial": all(v.rule == "G1" for v in base.gentle_violations),
        "gentle": gentle,
        "finite_dimensional": base.walk.cycle is None,
    }
    sp = t.sp_pair
    violations = list(sp.gentle_violations)
    witness = sp.walk.cycle
    if witness is not None:
        violations.append(Violation("FD", witness))
    violations.sort(key=lambda v: (v.rule, v.items))
    return ValidationReport(**flags, skewed_gentle=not violations, violations=tuple(violations))


def _is_skewed_gentle(t: SkewedGentleTriple) -> bool:
    """The verdict of ``validate_skewed_gentle`` alone, from counts and one
    walk: the base pair is gentle by ``gentle_index``, every special vertex
    passes the local rule, and ``t.admissible_walk`` finds no cycle.  It
    builds no Q^sp, no walk of the base pair and no report."""
    if t.pair.gentle_index is None:
        return False
    walk = t.admissible_walk
    return walk is not None and walk.cycle is None


def admissible_walk(t: SkewedGentleTriple) -> ArrowWalk | None:
    """The walk that decides a triple with a gentle base pair: of
    ``successors`` plus the edge a -> b of each valency-2 special vertex;
    None, without a walk, when a special vertex fails the local rule.

    That graph is the arrow-successor graph of (Q, I1): b*a is the only
    relation through such a vertex, and I1 drops exactly these, so every sg
    and g count reads this walk, and (Q, I1) is not built as a pair.
    """
    # the edges leave distinct arrows, the one into each vertex: their order is no matter
    base = t.pair
    passing = _local_rule(base, t.special)
    if len(passing) < len(t.special):
        return None
    edges = [e for _, e in passing if e]
    if not edges:  # the graph of (Q, I1) is the base pair's: one walk for both
        return base.walk
    graph = dict(base.successors)
    for a, b in edges:
        graph[a] = (*graph[a], b)
    return ArrowWalk.of(base.quiver, graph)


def _local_rule(bq: BoundQuiver, vertices) -> list[tuple[str, tuple[str, str] | None]]:
    """The vertices of ``vertices`` that pass the local rule, each with the
    edge a -> b its loop in Q^sp adds to the arrow-successor graph, or None
    at valency <= 1 (see ``admissible_special_sets``).  Reads the counts of
    the gentle decision, so ``bq`` must be gentle: at one arrow a in and one
    arrow b out, b*a is zero exactly when b has a partner before it."""
    outs, ins, before, _ = bq.gentle_index
    passing = []
    for v in vertices:
        out = outs.get(v, ())
        valency = ins.get(v, 0) + len(out)
        if valency <= 1:
            passing.append((v, None))
        elif valency == 2 and len(out) == 1 and (b := out[0]) in before:
            passing.append((v, (before[b], b)))
    return passing


def admissible_special_sets(bq: BoundQuiver) -> list[tuple[str, ...]]:
    """All vertex subsets S making (Q, S, I) skewed-gentle, by size then lex.

    Lex is in ``vertex_list`` order.  Only admissible sets are built:

    *Local rule.*  Q^sp adds a loop e at each v in S, with e*e zero.  That
    changes the gentle conditions only at v: SB1 counts the arrows at v, and
    SB2 and G1 pair the arrows ending at v with those starting there.  The
    loop's only relation is e*e, so e's free partners are the arrows of Q at
    v, and each arrow at v gains e as a free partner.  With (Q, I) gentle,
    Q^sp is therefore gentle at v exactly when v has valency <= 1 (e then
    pairs freely with the one arrow at v, if any), or one incoming arrow a
    and one outgoing arrow b with b*a zero (a's free successor becomes e,
    b's free predecessor e).  Every other vertex fails: two arrows on one
    side break SB1 once e is added, and if b*a is free, a has two free
    successors, b and e (SB2).  The vertices that pass are the candidates.

    *Global rule.*  The arrow-successor graph of Q^sp (x -> y when y*x is
    free) keeps exactly the edges of Q's, since I^sp adds only e*e, and
    gains the edges into and out of each e.  At valency <= 1, e has edges
    on one side only, so it lies on no cycle.  At valency 2 its edges are
    a -> e -> b, so every cycle through e runs along the walk a -> e -> b.
    Hence Q^sp is finite dimensional exactly when ``bq.successors`` plus an
    edge a -> b for each valency-2 vertex of S stays acyclic.

    *Rings.*  In the gentle pair SB2 gives each arrow at most one free
    successor and at most one free predecessor, and ``bq.successors`` is
    acyclic, so it is a union of disjoint chains.  A valency-2 candidate v
    with arrows a -> v -> b and b*a zero has a as the only arrow into v and
    b as the only one out, so a ends a chain and b starts one; two
    candidates share neither a nor b.  With any set of these edges added,
    every arrow keeps at most one successor and one predecessor, so a cycle
    is whole chains joined end to start by candidate edges.  Let the next
    candidate of v be the one whose edge leaves the end of the chain that
    v's edge enters: the candidates form disjoint paths and cycles under
    "next", the rings, and the cycles of the graph with the edges of S are
    exactly the rings that S holds whole.  So S is admissible exactly when
    it holds no whole ring.  A ring of one (a loop a with a*a zero, or a
    chain whose own end the edge leaves) rules its candidate out.

    *Enumeration.*  Each admissible set of size k - 1, in lex order, is
    extended by each later candidate, so level k comes out in lex order.  As
    the candidates are passed in order, a ring is broken once one of its
    candidates is passed over, and an extension is skipped exactly when its
    candidate is the last of a ring not yet broken.  Once every ring with a
    candidate after position i is broken, the set extended by any choice of
    candidates from i on (from i + 1, if i is the last of its unbroken ring)
    is admissible: the set with that tail stands for all of its extensions,
    and at each size ``combinations`` of the set and its tail lists them,
    as its first C(tail, size - |set|) tuples are those keeping the whole
    set.  So every set built is returned, and past the empty set a pair
    with no ring of two or more candidates is listed by one
    ``combinations`` call per size.  A set
    built one at a time skips only extensions that would complete a ring,
    each ring with another candidate in the set, so at most as many as the
    set has candidates: the work is proportional to the size of the output,
    after the one pass over the arrows that finds the rings.
    """
    if bq.gentle_violations or bq.walk.cycle is not None:
        raise NotGentle("admissible_special_sets needs a gentle finite-dimensional pair")
    candidates = _local_rule(bq, bq.quiver.vertex_list)
    rings = _rings(bq.successors, candidates)
    ring_bit = {i: 1 << r for r, ring in enumerate(rings) if len(ring) > 1 for i in ring}
    lone = {ring[0] for ring in rings if len(ring) == 1}
    names = tuple(v for i, (v, _) in enumerate(candidates) if i not in lone)
    bits = [ring_bit.get(i, 0) for i in range(len(candidates)) if i not in lone]
    n = len(names)
    opens = [0] * n  # the rings with a candidate after each position
    for i in range(n - 1, 0, -1):
        opens[i - 1] = opens[i] | bits[i]
    closing = [bit & ~later for bit, later in zip(bits, opens)]  # the last of its ring
    # entries in lex order: (set, next position, rings broken) for a set that
    # a later candidate could still make fail, (set and its tail, set size)
    # for a set every extension of which is admissible
    admissible, level = [()], [((), 0, 0)]
    for size in range(1, n + 1):
        grown = []
        for entry in level:
            if len(entry) == 3:
                chosen, start, broken = entry
                entry = None
                for i in range(start, n):
                    closes = closing[i] & ~broken
                    if not opens[i] & ~broken:  # no ring can be made whole from here on
                        entry = ((*chosen, *names[i + 1 if closes else i:]), size - 1)
                        break
                    if not closes:
                        grown_set = (*chosen, names[i])
                        admissible.append(grown_set)
                        grown.append((grown_set, i + 1, broken))
                    broken |= bits[i]
                if entry is None:
                    continue
            pool, fixed = entry
            count = comb(len(pool) - fixed, size - fixed)
            if count:
                admissible += islice(combinations(pool, size), count)
                grown.append(entry)
        level = grown
    return admissible


def _rings(succ, candidates) -> list[list[int]]:
    """The rings of the candidates' edges a -> b (see
    ``admissible_special_sets``), each as positions in ``candidates`` along
    the ring.  One pass over the arrows: each chain is walked from its start
    at most once, as only one candidate's edge enters it."""
    leaving = {edge[0]: i for i, (_, edge) in enumerate(candidates) if edge}
    following = {}
    for i, (_, edge) in enumerate(candidates):
        if edge:
            end = edge[1]
            while succ[end]:
                end = succ[end][0]
            if end in leaving:
                following[i] = leaving[end]
    return _chain_cycles(following)
