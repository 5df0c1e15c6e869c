"""Normal-form arithmetic for the skewed-gentle algebra K Q^sg / <I^sg>.

A nonzero element has a unique basis representative: a lifted path whose
internal junctions at split vertices all use the minus copy (the sign at a
special source or target stays free).  Such a lift exists exactly for the
sg-admissible base paths, i.e. the relation-free paths of (Q, I1) where I1
keeps only the relations with an ordinary middle vertex; a relation with a
special middle vertex turns into the commutativity rewrite that pins the
junction to minus with coefficient +1.

``dimension`` counts without listing paths: one dynamic programme over the
arrow-successor graph of the pair (see ``count_relation_free_paths``), in
time linear in arrows plus relations; for sg a special endpoint weighs 2,
one per sign.  ``basis`` lists the normal forms one by one, and so does the
independent check, dimension_oracle: enumerate every lifted path up to the
length bound given by (Q^sp, I^sp), impose all embedded zero and
commutativity relations, and compute the rank of the relation span by
exact rational elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construct import _require_distinct_lifts, _require_valid
from .errors import InternalInconsistency, LimitExceeded, NotSpecial
from .quiver import (
    BoundQuiver,
    SkewedGentleTriple,
    count_relation_free_paths,
    relation_free_paths,
    relation_text,
    successor_order,
)

DEFAULT_ORACLE_CAP = 20000


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "Zero"


ZERO = _Zero()


@dataclass(frozen=True)
class BasisPath:
    """Normal form of a nonzero element: base arrows plus signed endpoints.

    ``arrows`` holds base arrow names in written order (last entry applied
    first); ``source`` and ``target`` are signed vertex names such as "2-".
    Internal split junctions are implicitly at the minus copy.
    """

    arrows: tuple[str, ...]
    source: str
    target: str

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __repr__(self):
        if self.is_trivial:
            return f"e({self.source})"
        return f"{''.join(self.arrows)}[{self.source}->{self.target}]"


def admissible_base_pair(t: SkewedGentleTriple) -> BoundQuiver:
    """(Q, I1): the base pair keeping only ordinary-middle relations."""
    amap = t.pair.quiver.arrow_map
    kept = frozenset(
        (x, y) for x, y in t.pair.relations if amap[y].target not in t.special
    )
    return BoundQuiver(t.pair.quiver, kept)


def _endpoint_signs(vertex, special):
    return ("+", "-") if vertex in special else ("",)


def _sg_admissible_pair(t: SkewedGentleTriple) -> BoundQuiver:
    """(Q, I1) once the triple is valid and its signed vertex names are distinct."""
    _require_valid(t)
    _require_distinct_lifts(t.pair.quiver.vertices, t.special, "Q^sg vertex")
    return t.admissible_pair


def basis(t: SkewedGentleTriple) -> list[BasisPath]:
    """All normal forms: trivial paths plus signed lifts of admissible paths."""
    admissible = _sg_admissible_pair(t)
    out = []
    for v in t.pair.quiver.vertex_list:
        for sign in _endpoint_signs(v, t.special):
            out.append(BasisPath((), v + sign, v + sign))
    for p in relation_free_paths(admissible):
        if p.is_trivial:
            continue
        names = tuple(a.name for a in p.arrows)
        for ssign in _endpoint_signs(p.source, t.special):
            for tsign in _endpoint_signs(p.target, t.special):
                out.append(BasisPath(names, p.source + ssign, p.target + tsign))
    out.sort(key=lambda b: (b.length, b.arrows, b.source, b.target))
    return out


def multiply(t: SkewedGentleTriple, p, q):
    """Product p * q (q applied first) of basis paths, as a normal form.

    Orthogonal endpoints give Zero; a junction on a zero relation (ordinary
    middle vertex) gives Zero; a junction at a split vertex is rewritten to
    the minus copy, which the endpoint-sign representation makes implicit.
    """
    if p is ZERO or q is ZERO:
        return ZERO
    if p.source != q.target:
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
                f"composition {relation_text(later, first)} through special vertex {middle!r}"
                " has no base relation"
            )
    elif (later, first) in t.pair.relations:
        return ZERO
    return BasisPath(p.arrows + q.arrows, q.source, p.target)


def longest_relation_free_length(bq: BoundQuiver) -> int:
    """Length of the longest relation-free path, from one pass over the
    arrow-successor graph: L(a) = 1 + the largest L(g) over successors g."""
    succ = bq.successors
    depth: dict[str, int] = {}
    for a in successor_order(bq):
        depth[a.name] = 1 + max((depth[g] for g in succ[a.name]), default=0)
    return max(depth.values(), default=0)


def _one(vertex) -> int:
    return 1


def _counted_dimension(bq: BoundQuiver, weight) -> int:
    """Trivial paths weigh ``weight(v)``, a nontrivial path p ``weight(s(p)) * weight(t(p))``."""
    trivial = sum(weight(v) for v in bq.quiver.vertex_list)
    return trivial + count_relation_free_paths(bq, weight, weight)


def dimension(t: SkewedGentleTriple, which: str) -> int:
    """K-dimension of the chosen algebra: "gentle", "sg", or "g".

    Counted, not listed: for sg every special endpoint weighs 2, one per
    sign, which is what ``basis`` lists.
    """
    _require_valid(t)
    if which == "gentle":
        return _counted_dimension(t.pair, _one)
    if which == "g":
        return _counted_dimension(t.g_pair.pair, _one)
    if which == "sg":
        return _counted_dimension(_sg_admissible_pair(t), lambda v: 2 if v in t.special else 1)
    raise ValueError(f"unknown algebra {which!r}")


def _rank(rows) -> int:
    """Rank of sparse rows (dict column -> Fraction) by exact elimination."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                rank += 1
                break
            piv = pivots[col]
            factor = row[col] / piv[col]
            for c, v in piv.items():
                new = row.get(c, Fraction(0)) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
    return rank


def _oracle_presentation(t, which):
    """Vertices, arrows (name, source, target), relations, and length bound."""
    if which in ("gentle", "g"):
        bq = t.pair if which == "gentle" else t.g_pair.pair
        triples = [(a.name, a.source, a.target) for a in bq.quiver.arrows]
        return (bq.quiver.vertex_list, triples, set(bq.relations), {},
                longest_relation_free_length(bq))
    if which == "sg":
        pres = t.sg_presentation
        triples = [(a.name, a.source, a.target) for a in pres.arrows]
        # in application order a comm factor reads (first, later)
        comm = {}
        for rel in pres.comm_relations:
            comm[(rel.plus[1], rel.plus[0])] = (rel.minus[1], rel.minus[0])
            comm[(rel.minus[1], rel.minus[0])] = (rel.plus[1], rel.plus[0])
        return (pres.vertex_names, triples,
                set(pres.zero_relations), comm,
                longest_relation_free_length(t.sp_pair))
    raise ValueError(f"unknown algebra {which!r}")


def dimension_oracle(t: SkewedGentleTriple, which: str, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Brute-force dimension: span of all bounded paths modulo all relations.

    Enumerates every path of the presentation up to the length bound, one
    sparse relation row per embedded zero relation or commutativity flip,
    and returns (number of paths) - (rank of the relation rows), degree by
    degree; the relations are homogeneous so degrees do not mix.
    """
    _require_valid(t)
    vertices, triples, zero_pairs, comm, bound = _oracle_presentation(t, which)

    succ: dict[str, list[str]] = {}
    by_name = {name: (src, tgt) for name, src, tgt in triples}
    starting: dict[str, list[str]] = {v: [] for v in vertices}
    for name, src, tgt in sorted(triples):
        starting[src].append(name)
    for name, (_, tgt) in by_name.items():
        succ[name] = starting[tgt]

    total = len(vertices)
    if total > cap:
        raise LimitExceeded(f"oracle path count exceeded cap {cap}")
    dim = len(vertices)  # trivial paths, always independent
    current: list[tuple[str, ...]] = [(name,) for name in sorted(by_name)]
    degree = 1
    while degree <= bound and current:
        total += len(current)
        if total > cap:
            raise LimitExceeded(f"oracle path count exceeded cap {cap}")
        index = {p: i for i, p in enumerate(current)}
        rows = []
        for p in current:
            factors = [(p[i], p[i + 1]) for i in range(len(p) - 1)]
            if any((later, first) in zero_pairs for first, later in factors):
                rows.append({index[p]: Fraction(1)})
                continue
            for i, factor in enumerate(factors):
                partner = comm.get(factor)
                if partner is not None:
                    flipped = p[:i] + partner + p[i + 2:]
                    rows.append({index[p]: Fraction(1), index[flipped]: Fraction(-1)})
        dim += len(current) - _rank(rows)
        if degree == bound:
            break
        current = [p + (nxt,) for p in current for nxt in succ[p[-1]]]
        degree += 1
    return dim


@dataclass(frozen=True)
class CornerData:
    """Dimension bookkeeping for removing one split vertex a-.

    The basis partitions by endpoints at a-: the corner itself (one trivial
    path), M (source a-), N (target a-), and A (neither endpoint).  The
    reduced triple drops a from the special set; its dimension must equal
    dim A - dim M * dim N.
    """

    special_vertex: str
    dim_gamma: int
    dim_gamma_prime: int
    dim_a: int
    dim_m: int
    dim_n: int
    dim_im_phi: int
    dim_m_prime: int
    dim_n_prime: int
    t1_basis: tuple[BasisPath, ...]
    t2_basis: tuple[BasisPath, ...]
    identity_holds: bool


def corner_data(t: SkewedGentleTriple, a: str) -> CornerData:
    _require_valid(t)
    if a not in t.special:
        raise NotSpecial(f"vertex {a!r} is not special in {t.name!r}")
    full = basis(t)
    minus = a + "-"
    # The trivial path is the only one from a- to a-: a longer one would be
    # relation-free through special a, so its square would be too, and
    # `basis` would have raised InfiniteDimensional.
    t1, t2, middle = [], [], []
    for p in full:
        if p.source == minus:
            if not p.is_trivial:
                t1.append(p)
        elif p.target == minus:
            t2.append(p)
        else:
            middle.append(p)

    reduced = SkewedGentleTriple(t.pair, t.special - {a}, name=t.name)
    dim_gamma_prime = dimension(reduced, "sg")
    dim_im_phi = len(t1) * len(t2)

    out_first, in_last = _corner_prime_counts(t, a)
    return CornerData(
        special_vertex=a,
        dim_gamma=len(full),
        dim_gamma_prime=dim_gamma_prime,
        dim_a=len(middle),
        dim_m=len(t1),
        dim_n=len(t2),
        dim_im_phi=dim_im_phi,
        dim_m_prime=out_first,
        dim_n_prime=in_last,
        t1_basis=tuple(t1),
        t2_basis=tuple(t2),
        identity_holds=dim_gamma_prime == len(middle) - dim_im_phi,
    )


def _corner_prime_counts(t, a):
    """Sizes of S1 / S2: admissible base paths leaving / entering vertex a."""
    admissible = t.admissible_pair

    def at_a(v):
        return int(v == a)

    return (count_relation_free_paths(admissible, at_a, _one),
            count_relation_free_paths(admissible, _one, at_a))
