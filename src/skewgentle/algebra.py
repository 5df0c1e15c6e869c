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
time linear in arrows plus relations; for sg an endpoint weighs its number
of signed names in the lift table (``vertex_lifts``).  ``basis`` lists the
normal forms one by one, and so does the independent check,
dimension_oracle: go through every lifted path up to the length bound given
by (Q^sp, I^sp), read off the walk of (Q, I1) without building Q^sp, count
those through an embedded zero relation, list the others, and compute the
rank of the commutativity relations among them by exact rational
elimination.  Each listed path carries the positions of its commutativity
junctions, found once as it grows, so the oracle's work per degree is the
paths it lists plus their junctions; a degree without a junction is not
ranked at all.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .construct import _require_valid, vertex_lifts
from .errors import InternalInconsistency, LimitExceeded, NotSpecial
from .quiver import (
    BoundQuiver,
    Record,
    SkewedGentleTriple,
    _set,
    count_relation_free_paths,
    relation_text,
    successor_order,
)

DEFAULT_ORACLE_CAP = 20000


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "Zero"


ZERO = _Zero()


class BasisPath(Record):
    """Normal form of a nonzero element: base arrows plus signed endpoints.

    ``arrows`` holds base arrow names in written order (last entry applied
    first); ``source`` and ``target`` are signed vertex names such as "2-".
    Internal split junctions are implicitly at the minus copy.
    """

    __slots__ = ("arrows", "source", "target")

    def __init__(self, arrows: tuple[str, ...], source: str, target: str):
        _set(self, "arrows", arrows)
        _set(self, "source", source)
        _set(self, "target", target)

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


def basis(t: SkewedGentleTriple) -> list[BasisPath]:
    """All normal forms: trivial paths plus signed lifts of admissible paths.

    The admissible paths are read as name tuples straight off the
    arrow-successor graph of (Q, I1): each path from its first arrow, grown
    by one successor at a time.
    """
    _require_valid(t)
    signed = vertex_lifts(t, t.special, "Q^sg vertex")
    admissible = t.admissible_pair
    successor_order(admissible)  # raises InfiniteDimensional with its witness
    succ = admissible.successors
    out = [BasisPath((), v, v) for lifts in signed.values() for v in lifts]
    amap = admissible.quiver.arrow_map
    for first in admissible.quiver.arrows:
        sources = signed[first.source]
        stack = [((first.name,), first.target)]  # written order: last entry applied first
        while stack:
            names, end = stack.pop()
            for source in sources:
                for target in signed[end]:
                    out.append(BasisPath(names, source, target))
            for g in succ[names[0]]:
                stack.append(((g, *names), amap[g].target))
    out.sort(key=lambda b: (len(b.arrows), b.arrows, b.source, b.target))
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


def _sp_length_bound(t: SkewedGentleTriple) -> int:
    """``longest_relation_free_length(t.sp_pair)`` of a valid triple, read
    off the walk of (Q, I1) without building Q^sp.

    Q^sp's arrow-successor graph is (Q, I1)'s with a loop node e_v on the
    edge a -> b at each valency-2 special vertex v (b*a is in I, not in I1);
    at a valency-1 special vertex e_v hangs after the one arrow in or before
    the one arrow out, and at a valency-0 one it is isolated.  So the longest
    path applying a first has length d(a) = 1 + [t(a) in Sp] + max d(g) over
    the successors g of a, and the longest of all is the largest
    d(a) + [s(a) in Sp], or a lone e_v.
    """
    special = t.special
    succ = t.admissible_pair.successors
    depth: dict[str, int] = {}
    longest = 1 if special else 0
    for a in successor_order(t.admissible_pair):
        d = 1 + (a.target in special) + max((depth[g] for g in succ[a.name]), default=0)
        depth[a.name] = d
        longest = max(longest, d + (a.source in special))
    return longest


def _one(vertex) -> int:
    return 1


def _counted_dimension(bq: BoundQuiver, weight) -> int:
    """Trivial paths weigh ``weight(v)``, a nontrivial path p ``weight(s(p)) * weight(t(p))``."""
    trivial = sum(weight(v) for v in bq.quiver.vertex_list)
    return trivial + count_relation_free_paths(bq, weight, weight)


def dimension(t: SkewedGentleTriple, which: str) -> int:
    """K-dimension of the chosen algebra: "gentle", "sg", or "g".

    Counted, not listed: for sg an endpoint weighs its number of signed
    names, which is what ``basis`` lists.
    """
    _require_valid(t)
    if which == "gentle":
        return _counted_dimension(t.pair, _one)
    if which == "g":
        return _counted_dimension(t.g_pair.pair, _one)
    if which == "sg":
        lifts = vertex_lifts(t, t.special, "Q^sg vertex")
        return _counted_dimension(t.admissible_pair, lambda v: len(lifts[v]))
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
                set(pres.zero_relations), comm, _sp_length_bound(t))
    raise ValueError(f"unknown algebra {which!r}")


def _degree_dimension(paths, flips, comm) -> int:
    """Dimension of the span of ``paths``, all of one degree and through no
    zero relation, modulo the commutativity relations.

    ``flips[j]`` holds the positions i at which ``paths[j][i:i + 2]`` is a
    commutativity junction.  Each such flip gives one sparse row; the flipped
    path's entry vanishes when it is not in ``paths``, i.e. when it runs
    through a zero relation and so is zero itself.  Without a flip the
    paths are independent.
    """
    if not any(flips):
        return len(paths)
    index = {p: i for i, p in enumerate(paths)}
    rows = []
    for col, (p, at) in enumerate(zip(paths, flips)):
        for i in at:
            row = {col: Fraction(1)}
            flipped = index.get(p[:i] + comm[p[i:i + 2]] + p[i + 2:])
            if flipped is not None:
                row[flipped] = Fraction(-1)
            rows.append(row)
    return len(paths) - _rank(rows)


def dimension_oracle(t: SkewedGentleTriple, which: str, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Brute-force dimension: span of all bounded paths modulo all relations.

    Goes through every path of the presentation up to the length bound and
    returns (number of paths) - (rank of the relation span), degree by
    degree; the relations are homogeneous so degrees do not mix.  A path
    through an embedded zero relation spans a relation by itself, and so
    does every longer path through it: those paths are counted by their
    last arrow, for the cap, and only the others are listed and ranked
    (``_degree_dimension``).  Each listed path keeps the positions of its
    commutativity junctions; a path grown by one arrow can gain only the new
    junction, so the work per degree is the listed paths plus their
    junctions.
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
    flips: list[tuple[int, ...]] = [()] * len(current)  # junction positions
    zero: Counter[str] = Counter()  # last arrow -> paths through a zero relation
    degree = 1
    while degree <= bound and (current or zero):
        total += len(current) + sum(zero.values())
        if total > cap:
            raise LimitExceeded(f"oracle path count exceeded cap {cap}")
        dim += _degree_dimension(current, flips, comm)
        if degree == bound:
            break
        grown, grown_flips, grown_zero = [], [], Counter()
        for last, count in zero.items():
            for nxt in succ[last]:
                grown_zero[nxt] += count
        for p, at in zip(current, flips):
            last = p[-1]
            for nxt in succ[last]:
                if (nxt, last) in zero_pairs:
                    grown_zero[nxt] += 1
                else:
                    grown.append(p + (nxt,))
                    # only the new junction, at position degree - 1, can add a flip
                    grown_flips.append(at + (degree - 1,) if (last, nxt) in comm else at)
        current, flips, zero = grown, grown_flips, grown_zero
        degree += 1
    return dim


class CornerData(Record):
    """Dimension bookkeeping for removing one split vertex a-.

    The basis partitions by endpoints at a-: the corner itself (one trivial
    path), M (source a-), N (target a-), and A (neither endpoint).  The
    reduced triple drops a from the special set; its dimension must equal
    dim A - dim M * dim N.
    """

    __slots__ = ("special_vertex", "dim_gamma", "dim_gamma_prime", "dim_a", "dim_m", "dim_n",
                 "dim_im_phi", "dim_m_prime", "dim_n_prime", "t1_basis", "t2_basis",
                 "identity_holds")

    def __init__(self, special_vertex: str, dim_gamma: int, dim_gamma_prime: int, dim_a: int,
                 dim_m: int, dim_n: int, dim_im_phi: int, dim_m_prime: int, dim_n_prime: int,
                 t1_basis: tuple[BasisPath, ...], t2_basis: tuple[BasisPath, ...],
                 identity_holds: bool):
        _set(self, "special_vertex", special_vertex)
        _set(self, "dim_gamma", dim_gamma)
        _set(self, "dim_gamma_prime", dim_gamma_prime)
        _set(self, "dim_a", dim_a)
        _set(self, "dim_m", dim_m)
        _set(self, "dim_n", dim_n)
        _set(self, "dim_im_phi", dim_im_phi)
        _set(self, "dim_m_prime", dim_m_prime)
        _set(self, "dim_n_prime", dim_n_prime)
        _set(self, "t1_basis", t1_basis)
        _set(self, "t2_basis", t2_basis)
        _set(self, "identity_holds", identity_holds)


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

    return CornerData(
        special_vertex=a,
        dim_gamma=len(full),
        dim_gamma_prime=dim_gamma_prime,
        dim_a=len(middle),
        dim_m=len(t1),
        dim_n=len(t2),
        dim_im_phi=dim_im_phi,
        # S1 / S2: the admissible base paths leaving / entering a
        dim_m_prime=len({p.arrows for p in t1}),
        dim_n_prime=len({p.arrows for p in t2}),
        t1_basis=tuple(t1),
        t2_basis=tuple(t2),
        identity_holds=dim_gamma_prime == len(middle) - dim_im_phi,
    )

