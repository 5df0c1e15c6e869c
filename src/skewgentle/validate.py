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

from .errors import NotGentle
from .quiver import ArrowWalk, BoundQuiver, Record, SkewedGentleTriple, _set


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


def is_special_biserial(bq: BoundQuiver) -> tuple[bool, list[Violation]]:
    q = bq.quiver
    out, inc = q.outgoing, q.incoming
    violations = [Violation("SB1", (v,)) for v in q.vertex_list
                  if len(out[v]) > 2 or len(inc[v]) > 2]
    succ, before = bq.successors, bq.relations_before
    for a in q.arrows:
        nonrel_succ = succ[a.name]
        if len(nonrel_succ) > 1:
            violations.append(Violation("SB2", (a.name, *nonrel_succ)))
        ins = inc[a.source]
        if len(ins) > 1:  # a single arrow in is a single partner at most
            killed = before[a.name]
            nonrel_pred = [b.name for b in ins if b.name not in killed]
            if len(nonrel_pred) > 1:
                violations.append(Violation("SB2", (a.name, *nonrel_pred)))
    return not violations, violations


def is_gentle(bq: BoundQuiver) -> tuple[bool, list[Violation]]:
    ok, violations = is_special_biserial(bq)
    before, after = bq.relations_before, bq.relations_after
    for name in bq.quiver.arrow_map:
        rel_pred = before[name]
        if len(rel_pred) > 1:
            violations.append(Violation("G1", (name, *rel_pred)))
        rel_succ = after[name]
        if len(rel_succ) > 1:
            violations.append(Violation("G1", (name, *rel_succ)))
    return not violations, violations


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
    base = t.pair
    gentle = not base.gentle_violations
    if gentle:
        walk = t.admissible_walk
        # acyclic with the loops' edges, so acyclic without them: (Q, I) is finite too
        if walk is not None and walk.cycle is None:
            return ValidationReport(special_biserial=True, gentle=True, finite_dimensional=True,
                                    skewed_gentle=True, violations=())
    flags = {
        # is_gentle reports the SB violations too: only G1 ones leave the pair special biserial
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


def admissible_walk(t: SkewedGentleTriple) -> ArrowWalk | None:
    """The walk that decides a triple with a gentle base pair: of
    ``successors`` plus the edge a -> b of each valency-2 special vertex;
    None, without a walk, when a special vertex fails the local rule.

    That graph is the arrow-successor graph of (Q, I1): b*a is the only
    relation through such a vertex, and I1 drops exactly these, so every sg
    and g count reads this walk, and (Q, I1) is not built as a pair.
    """
    passing = _local_rule(t.pair, t.special_list)
    if len(passing) < len(t.special):
        return None
    return t.pair.walk_with([e for _, e in passing if e])


def _local_rule(bq: BoundQuiver, vertices) -> list[tuple[str, tuple[str, str] | None]]:
    """The vertices of ``vertices`` that pass the local rule, each with the
    edge a -> b its loop in Q^sp adds to the arrow-successor graph, or None
    at valency <= 1 (see ``admissible_special_sets``)."""
    q = bq.quiver
    passing = []
    for v in vertices:
        ins, outs = q.incoming[v], q.outgoing[v]
        if len(ins) + len(outs) <= 1:
            passing.append((v, None))
        elif len(ins) == len(outs) == 1 and (outs[0].name, ins[0].name) in bq.relations:
            passing.append((v, (ins[0].name, outs[0].name)))
    return passing


def admissible_special_sets(bq: BoundQuiver) -> list[tuple[str, ...]]:
    """All vertex subsets S making (Q, S, I) skewed-gentle, by size then lex.

    Lex is in ``vertex_list`` order.  Only admissible sets are visited:

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
    successors, b and e (SB2).

    *Global rule.*  The arrow-successor graph of Q^sp (x -> y when y*x is
    free) keeps exactly the edges of Q's, since I^sp adds only e*e, and
    gains the edges into and out of each e.  At valency <= 1, e has edges
    on one side only, so it lies on no cycle.  At valency 2 its edges are
    a -> e -> b, so every cycle through e runs along the walk a -> e -> b.
    Hence Q^sp is finite dimensional exactly when ``bq.successors`` plus an
    edge a -> b for each valency-2 vertex of S stays acyclic.  A loop a = b
    with a*a zero passes the local rule, and its edge a -> a is a cycle.

    Sets grow level by level: each admissible set of size k - 1, in lex
    order, is extended by each later candidate, whose edge a -> b may join
    only when b does not reach a.  So no superset of a failing set is
    visited, and level k comes out in lex order.
    """
    if bq.gentle_violations or bq.walk.cycle is not None:
        raise NotGentle("admissible_special_sets needs a gentle finite-dimensional pair")
    candidates = _local_rule(bq, bq.quiver.vertex_list)
    succ = bq.successors
    admissible = [()]
    level = [((), 0, {})]  # (admissible set, next candidate, its edges a -> b)
    while level:
        grown = []
        for chosen, start, added in level:
            for i in range(start, len(candidates)):
                v, edge = candidates[i]
                if edge is None:
                    grown.append(((*chosen, v), i + 1, added))
                elif not _reaches(succ, added, edge[1], edge[0]):
                    grown.append(((*chosen, v), i + 1, {**added, edge[0]: edge[1]}))
        admissible += [chosen for chosen, _, _ in grown]
        level = grown
    return admissible


def _reaches(succ, added, start, goal) -> bool:
    """Whether ``goal`` is reachable from ``start`` along ``succ`` plus the
    edges a -> b in ``added``.  Such an a has no successor in ``succ``: b is
    the only arrow out of its target, and b*a is zero."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        if x == goal:
            return True
        for y in (added[x],) if x in added else succ[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False
