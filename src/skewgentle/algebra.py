"""Dimensions, normal-form basis, brute-force oracle and corner data of the
base, sg and g algebras.  A command's counts, the dimensions of
``invariants --dims`` or the corner numbers of ``reduce``, come from one
pass, ``quiver.path_sums``, over ``t.admissible_walk``, the walk of (Q, I1):
the base pair less its relations through special vertices, which is never
built as a pair.  The base pair's paths are counted in the same pass, along
its own successors, with no walk of their own.  The g oracle reads Q^g's
lift rows, checked gentle and finite, and no pair either."""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import mul

from .construct import _require_valid
from .errors import LimitExceeded, NotSpecial
from .quiver import (
    ArrowWalk,
    Record,
    SkewedGentleTriple,
    _set,
    _source,
    path_sums,
    successor_order,
)

DEFAULT_ORACLE_CAP = 20000


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

    def __repr__(self):
        if not self.arrows:
            return f"e({self.source})"
        return f"{''.join(self.arrows)}[{self.source}->{self.target}]"


def _basis_order(b: BasisPath):
    return len(b.arrows), b.arrows, b.source, b.target


def basis(t: SkewedGentleTriple) -> list[BasisPath]:
    """All normal forms: trivial paths plus signed lifts of admissible paths.

    The admissible paths are read as name tuples straight off the
    arrow-successor graph of (Q, I1): each path from its first arrow, grown
    by one successor at a time.
    """
    _require_valid(t)
    signed = t.sg_lifts
    walk = t.admissible_walk
    successor_order(walk)  # raises InfiniteDimensional with its witness
    out = [BasisPath((), v, v) for lifts in signed.values() for v in lifts]
    for first in walk.quiver.arrows:
        sources = signed[first[1]]
        for names, end in _paths_from(walk, (first,)):
            out += [BasisPath(names, source, target)
                    for source in sources for target in signed[end]]
    out.sort(key=_basis_order)
    return out


def _paths_from(walk: ArrowWalk, firsts):
    """Each relation-free path of the walk's graph that applies an arrow of
    ``firsts`` first, as its arrow names in written order (last entry applied
    first) and its target, grown by one successor at a time."""
    succ, amap = walk.successors, walk.quiver.arrow_map
    stack = [((name,), end) for name, _, end in firsts]
    while stack:
        names, end = stack.pop()
        yield names, end
        stack += [((g, *names), amap[g][2]) for g in succ[names[0]]]


def longest_relation_free_length(walk: ArrowWalk, special=frozenset()) -> int:
    """Length of the longest relation-free path of the walk's graph, from one
    pass over it: L(a) = 1 + the largest L(g) over successors g.

    With ``special`` the special vertices of a valid triple and ``walk`` its
    ``admissible_walk``, the walk of (Q, I1), it is the longest of
    (Q^sp, I^sp), and Q^sp is not built.  Q^sp's arrow-successor graph is
    (Q, I1)'s with a loop node e_v on the edge a -> b at each valency-2
    special vertex v (b*a is in I, not in I1); at a valency-1 special vertex
    e_v hangs after the one arrow in or before the one arrow out, and at a
    valency-0 one it is isolated.  So the longest path applying a first has
    length L(a) = 1 + [t(a) in Sp] + max L(g) over the successors g of a,
    and the longest of all is the largest L(a) + [s(a) in Sp], or a lone e_v.
    """
    succ = walk.successors
    depth: dict[str, int] = {}
    longest = 1 if special else 0
    for name, source, target in successor_order(walk):
        d = 0
        for g in succ[name]:
            if depth[g] > d:
                d = depth[g]
        d += 1 + (target in special)
        depth[name] = d
        d += source in special
        if d > longest:
            longest = d
    return longest


def _dot(weight, arrows, column) -> int:
    """The sum of ``weight[s(a)] * column[a]`` over ``arrows``, the order
    ``path_sums`` lists its columns in; with ``weight`` None, every source
    weighs 1."""
    if weight is None:
        return sum(column.values())
    return sum(map(mul, map(weight.__getitem__, map(_source, arrows)), column.values()))


def dimensions(t: SkewedGentleTriple, algebras=("gentle", "sg", "g")) -> dict[str, int]:
    """K-dimensions of the chosen algebras, "gentle", "sg" or "g", counted
    in one pass, ``path_sums``, over the verdict's walk of (Q, I1), which
    reads only the chosen algebras' columns and lift tables.  Each is its
    trivial paths, one per vertex of the algebra, plus a weighted count of
    the relation-free paths of a graph:
    - gentle: the base pair's, each path once.  Its graph is (Q, I1)'s less
      the edge a -> b at each two-arrow special vertex;
    - sg: (Q, I1)'s, each end weighing its number of signed names, which is
      what ``basis`` lists;
    - g: (Q, I1)'s, each path twice.  Q^g is the sign lift of (Q, I1) and
      is not built: its arrow-successor graph is two copies of that of
      (Q, I1), one per sign, since at an ordinary vertex a+ continues only
      to g+ and a- only to g-, and at a two-arrow special vertex the
      relations (b+, a-) and (b-, a+) leave only a+ -> b+ and a- -> b-.
    """
    _require_valid(t)
    walk = t.admissible_walk
    vertices = walk.quiver.vertex_list
    # each algebra's graph with its paths' weights at the target, and its
    # trivial paths with its paths' weights at the source (None: 1 at each)
    columns, ends = [], []
    for which in algebras:
        if which == "gentle":
            columns.append((t.pair.successors, dict.fromkeys(vertices, 1)))
            ends.append((len(vertices), None))
        elif which == "sg":
            signed = {v: len(names) for v, names in t.sg_lifts.items()}
            columns.append((walk.successors, signed))
            ends.append((sum(signed.values()), signed))
        elif which == "g":
            columns.append((walk.successors, dict.fromkeys(vertices, 2)))
            ends.append((sum(map(len, t.g_lifts.values())), None))
        else:
            raise ValueError(f"unknown algebra {which!r}")
    arrows = walk.arrows
    return {which: trivial + _dot(source, arrows, column)
            for which, (trivial, source), column in zip(algebras, ends, path_sums(walk, columns))}


def dimension(t: SkewedGentleTriple, which: str) -> int:
    """K-dimension of the chosen algebra: "gentle", "sg", or "g"; see ``dimensions``."""
    return dimensions(t, (which,))[which]


def _oracle_presentation(t, which):
    """Vertices, arrows (name, source, target), relations, and length bound."""
    if which == "gentle":
        bq = t.pair
        return (bq.quiver.vertex_list, bq.quiver.arrows, set(bq.relations), {},
                longest_relation_free_length(bq.walk))
    if which == "g":
        g = t.g_presentation  # its longest relation-free path is its longest free thread
        vertices = list(chain.from_iterable(g.lifts.values()))
        return vertices, g.arrows, set(g.relations.items()), {}, g.longest
    if which == "sg":
        pres = t.sg_presentation
        triples = [(name, src, tgt) for name, _, src, tgt in pres.arrows]
        # in application order a comm factor reads (first, later)
        comm = {}
        for (plus_later, plus_first), (minus_later, minus_first) in pres.comm_relations:
            comm[(plus_first, plus_later)] = (minus_first, minus_later)
            comm[(minus_first, minus_later)] = (plus_first, plus_later)
        return (pres.vertex_names, triples, pres.zero_relations, comm,
                longest_relation_free_length(t.admissible_walk, t.special))
    raise ValueError(f"unknown algebra {which!r}")


def _find(parent: list[int], j: int) -> int:
    """The root of path j's component, each path on the way re-pointed at it."""
    root = parent[j]
    if root != j:
        root = parent[j] = _find(parent, root)
    return root


def _degree_dimension(paths, flips, comm) -> int:
    """Dimension of the span of ``paths``, all of one degree and through no
    zero relation, modulo the commutativity relations.

    ``flips[j]`` holds the positions i at which ``paths[j][i:i + 2]`` is a
    commutativity junction.  Each such flip gives the relation p - flip(p),
    or p alone (p is killed) when flip(p) is not in ``paths``, i.e. when it
    runs through a zero relation and so is zero itself.  So no relation
    joins two components of the flip graph, and over any field a component
    C spans relations of rank |C| - 1, the differences along a spanning
    tree, or |C| once a path of C is killed: a killed path's coordinates
    sum to 1, every difference's to 0.  The dimension is the number of
    components without a killed path, found by one union-find: each flip is
    met at both of its ends and joined from the later one, by one find.
    Without a flip the paths are independent.

    On a presentation built from a triple no path is killed: a zero
    relation of Q^sg holds for every sign of its outer ends, so a flip
    keeps every zero relation of the path, and flip(p) is listed with p.
    The kill is the general rule of the quotient, kept for any other
    presentation.
    """
    if not any(flips):
        return len(paths)
    index = {p: j for j, p in enumerate(paths)}
    parent = list(range(len(paths)))
    size = [1] * len(paths)
    killed = []
    components = len(paths)
    for j, (p, at) in enumerate(zip(paths, flips)):
        root = j  # j is joined only here, so it starts alone
        for i in at:
            k = index.get(p[:i] + comm[p[i:i + 2]] + p[i + 2:])
            if k is None:
                killed.append(j)
            elif k < j:
                other = _find(parent, k)
                if other != root:
                    if size[root] < size[other]:
                        root, other = other, root
                    parent[other] = root
                    size[root] += size[other]
                    components -= 1
    return components - len({_find(parent, j) for j in killed})


def dimension_oracle(t: SkewedGentleTriple, which: str, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Brute-force dimension: span of all bounded paths modulo all relations.

    Goes through every path of the presentation up to the length bound and
    returns (number of paths) - (rank of the relation span), degree by
    degree; the relations are homogeneous so degrees do not mix.  A path
    through an embedded zero relation spans a relation by itself, and so
    does every longer path through it: those paths are counted by their
    last arrow, for the cap, and only the others are listed.

    Without commutativity relations the listed paths are independent, so
    each is kept as its last arrow alone and a degree's dimension is the
    number of entries: the work per degree is one entry per listed path.
    With them, each listed path is the tuple of its arrows plus the
    positions of its commutativity junctions, and a degree's dimension is
    the number of live components of its flip graph (``_degree_dimension``);
    a path grown by one arrow can gain only the new junction, so the work
    per degree is the listed paths times their length, plus their
    junctions.  So the cap bounds the time as well as the paths counted.
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
        raise LimitExceeded(f"oracle path count exceeded cap {cap} ({total} paths counted"
                            f" through degree 0 of at most {bound})")
    dim = len(vertices)  # trivial paths, always independent
    if comm:
        current: list = [(name,) for name in sorted(by_name)]
        flips: list[tuple[int, ...]] = [()] * len(current)  # junction positions
    else:
        current = sorted(by_name)  # each listed path as its last arrow
        free = {a: [b for b in after if (b, a) not in zero_pairs] for a, after in succ.items()}
        into_zero = {a: [b for b in after if (b, a) in zero_pairs] for a, after in succ.items()}
    zero: dict[str, int] = {}  # last arrow -> paths through a zero relation
    degree = 1
    while degree <= bound and (current or zero):
        total += len(current) + sum(zero.values())
        if total > cap:
            raise LimitExceeded(f"oracle path count exceeded cap {cap} ({total} paths counted"
                                f" through degree {degree} of at most {bound})")
        dim += _degree_dimension(current, flips, comm) if comm else len(current)
        if degree == bound:
            break
        grown_zero: dict[str, int] = {}
        for last, count in zero.items():
            for nxt in succ[last]:
                grown_zero[nxt] = grown_zero.get(nxt, 0) + count
        if comm:
            grown, grown_flips = [], []
            for p, at in zip(current, flips):
                last = p[-1]
                for nxt in succ[last]:
                    if (nxt, last) in zero_pairs:
                        grown_zero[nxt] = grown_zero.get(nxt, 0) + 1
                    else:
                        grown.append(p + (nxt,))
                        # only the new junction, at position degree - 1, can add a flip
                        grown_flips.append(at + (degree - 1,) if (last, nxt) in comm else at)
            current, flips = grown, grown_flips
        else:
            if zero_pairs:
                for last in current:
                    for nxt in into_zero[last]:
                        grown_zero[nxt] = grown_zero.get(nxt, 0) + 1
            current = [nxt for last in current for nxt in free[last]]
        zero = grown_zero
        degree += 1
    return dim


class CornerData(Record):
    """Dimension bookkeeping for removing one split vertex a-.

    The basis partitions by endpoints at a-: the corner itself (one trivial
    path), M (source a-), N (target a-), and A (neither endpoint).  The
    reduced triple drops a from the special set; its dimension must equal
    dim A - dim M * dim N.  The bases of M and N, ``t1_basis`` and
    ``t2_basis``, are listed from ``triple`` when first read.
    """

    __slots__ = ("special_vertex", "dim_gamma", "dim_gamma_prime", "dim_a", "dim_m", "dim_n",
                 "dim_im_phi", "dim_m_prime", "dim_n_prime", "identity_holds", "triple",
                 "__dict__")

    def __init__(self, special_vertex: str, dim_gamma: int, dim_gamma_prime: int, dim_a: int,
                 dim_m: int, dim_n: int, dim_im_phi: int, dim_m_prime: int, dim_n_prime: int,
                 identity_holds: bool, triple: SkewedGentleTriple):
        _set(self, "special_vertex", special_vertex)
        _set(self, "dim_gamma", dim_gamma)
        _set(self, "dim_gamma_prime", dim_gamma_prime)
        _set(self, "dim_a", dim_a)
        _set(self, "dim_m", dim_m)
        _set(self, "dim_n", dim_n)
        _set(self, "dim_im_phi", dim_im_phi)
        _set(self, "dim_m_prime", dim_m_prime)
        _set(self, "dim_n_prime", dim_n_prime)
        _set(self, "identity_holds", identity_holds)
        _set(self, "triple", triple)

    @cached_property
    def t1_basis(self) -> tuple[BasisPath, ...]:
        """The basis paths from a-, in ``basis`` order."""
        return _corner_basis(self.triple, self.special_vertex, leaving=True)

    @cached_property
    def t2_basis(self) -> tuple[BasisPath, ...]:
        """The basis paths to a-, in ``basis`` order."""
        return _corner_basis(self.triple, self.special_vertex, leaving=False)


def _corner_basis(t: SkewedGentleTriple, a: str, leaving: bool) -> tuple[BasisPath, ...]:
    """The nontrivial basis paths from a- (``leaving``) or to a-: the
    admissible paths from or to a, grown one arrow at a time from a's own
    arrows, each with every signed name of its other end.  Output-sized."""
    walk = t.admissible_walk
    q = walk.quiver
    signed = t.sg_lifts
    minus = a + "-"
    out = []
    if leaving:
        for names, end in _paths_from(walk, q.outgoing[a]):
            out += [BasisPath(names, minus, v) for v in signed[end]]
    else:  # grown at the end applied first, names[-1]
        succ = walk.successors
        stack = [((name,), start) for name, start, _ in q.incoming[a]]
        while stack:
            names, start = stack.pop()
            out += [BasisPath(names, v, minus) for v in signed[start]]
            stack += [((*names, x), source) for x, source, _ in q.incoming[start]
                      if names[-1] in succ[x]]
    out.sort(key=_basis_order)
    return tuple(out)


def corner_data(t: SkewedGentleTriple, a: str) -> CornerData:
    """The corner numbers of special vertex ``a``, counted without listing a path.

    Gamma, M, N and their base-path counts M' and N' come from one counting
    pass over (Q, I1), ``path_sums``, with three columns over the paths that
    apply each arrow first: their number, their targets' signed names, and
    their number that end at a.  Over the arrows out of a, the first sums to
    M' and the second to M; over all arrows, each source weighing its signed
    names, the second sums to Gamma less the trivial paths and the third to
    N; the third sums plainly to N'.  The trivial path is the only one from a- to
    a-: a longer one would be relation-free through special a, so its
    square would be too, and (Q, I1) would have a cycle.  So
    dim A = dim Gamma - 1 - dim M - dim N.  Gamma' is the reduced triple's
    own count, over its own verdict and walk, the independent side of the
    identity.
    """
    _require_valid(t)
    if a not in t.special:
        raise NotSpecial(f"vertex {a!r} is not special in {t.name!r}")
    walk = t.admissible_walk
    vertices = walk.quiver.vertex_list
    succ = walk.successors
    at_a = dict.fromkeys(vertices, 0)
    at_a[a] = 1
    signed = {v: len(names) for v, names in t.sg_lifts.items()}
    paths, weighed, to_a = path_sums(walk, [(succ, dict.fromkeys(vertices, 1)), (succ, signed),
                                            (succ, at_a)])
    arrows = walk.arrows
    dim_gamma = sum(signed.values()) + _dot(signed, arrows, weighed)
    dim_m = _dot(at_a, arrows, weighed)
    dim_n = _dot(signed, arrows, to_a)
    dim_a = dim_gamma - 1 - dim_m - dim_n
    reduced = SkewedGentleTriple(t.pair, t.special - {a}, name=t.name)
    dim_gamma_prime = dimension(reduced, "sg")
    return CornerData(
        special_vertex=a,
        dim_gamma=dim_gamma,
        dim_gamma_prime=dim_gamma_prime,
        dim_a=dim_a,
        dim_m=dim_m,
        dim_n=dim_n,
        dim_im_phi=dim_m * dim_n,
        # S1 / S2: the admissible base paths leaving / entering a
        dim_m_prime=_dot(at_a, arrows, paths),
        dim_n_prime=sum(to_a.values()),
        identity_holds=dim_gamma_prime == dim_a - dim_m * dim_n,
        triple=t,
    )
