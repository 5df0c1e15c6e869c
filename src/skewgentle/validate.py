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

from dataclasses import dataclass
from itertools import combinations

from .errors import NotGentle
from .quiver import BoundQuiver, SkewedGentleTriple, valency


@dataclass(frozen=True)
class Violation:
    rule: str
    items: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    special_biserial: bool
    gentle: bool
    finite_dimensional: bool
    skewed_gentle: bool
    violations: tuple[Violation, ...]


def is_special_biserial(bq: BoundQuiver) -> tuple[bool, list[Violation]]:
    violations = []
    q = bq.quiver
    for v in q.vertex_list:
        if len(q.outgoing[v]) > 2 or len(q.incoming[v]) > 2:
            violations.append(Violation("SB1", (v,)))
    for a in sorted(q.arrows, key=lambda a: a.name):
        nonrel_succ = bq.successors[a.name]
        if len(nonrel_succ) > 1:
            violations.append(Violation("SB2", (a.name, *nonrel_succ)))
        killed = bq.relations_before[a.name]
        nonrel_pred = [b.name for b in q.incoming[a.source] if b.name not in killed]
        if len(nonrel_pred) > 1:
            violations.append(Violation("SB2", (a.name, *nonrel_pred)))
    return not violations, violations


def is_gentle(bq: BoundQuiver) -> tuple[bool, list[Violation]]:
    ok, violations = is_special_biserial(bq)
    for name in sorted(bq.quiver.arrow_map):
        rel_pred = bq.relations_before[name]
        if len(rel_pred) > 1:
            violations.append(Violation("G1", (name, *rel_pred)))
        rel_succ = bq.relations_after[name]
        if len(rel_succ) > 1:
            violations.append(Violation("G1", (name, *rel_succ)))
    return not violations, violations


def validate_skewed_gentle(t: SkewedGentleTriple) -> ValidationReport:
    """Decide the triple by the definition: (Q^sp, I^sp) gentle and finite.

    The special_biserial / gentle / finite_dimensional flags describe the
    base pair (Q, I); skewed_gentle and the violations describe (Q^sp, I^sp),
    which subsumes every defect of the base pair.  ``t.validation`` keeps
    the report with the triple; every other check reads it from there.
    """
    base = t.pair
    sp = t.sp_pair
    violations = list(sp.gentle_violations)
    witness = sp.fd_witness
    if witness is not None:
        violations.append(Violation("FD", witness))
    violations.sort(key=lambda v: (v.rule, v.items))
    # is_gentle reports the SB violations too: only G1 ones leave the pair special biserial
    return ValidationReport(
        special_biserial=all(v.rule == "G1" for v in base.gentle_violations),
        gentle=not base.gentle_violations,
        finite_dimensional=base.fd_witness is None,
        skewed_gentle=not sp.gentle_violations and witness is None,
        violations=tuple(violations),
    )


def admissible_special_sets(bq: BoundQuiver) -> list[tuple[str, ...]]:
    """All vertex subsets S making (Q, S, I) skewed-gentle, by size then lex.

    Each subset is checked through the definition; the only shortcut is that
    vertices of valency >= 3 are skipped, since adding a loop there always
    breaks the at-most-two-arrows condition.
    """
    if bq.gentle_violations or bq.fd_witness is not None:
        raise NotGentle("admissible_special_sets needs a gentle finite-dimensional pair")
    candidates = [v for v in bq.quiver.vertex_list if valency(bq.quiver, v) <= 2]
    admissible = []
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            report = validate_skewed_gentle(SkewedGentleTriple(bq, frozenset(subset)))
            if report.skewed_gentle:
                admissible.append(subset)
    return admissible
