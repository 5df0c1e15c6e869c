"""Immutable quivers, paths, and bound quivers with length-2 zero relations.

Path convention: a path ``p = a1 a2 ... ar`` is written with the rightmost
arrow applied first, so ``t(a_i) = s(a_{i-1})`` for i = 2..r, the source of
``p`` is ``s(ar)`` and its target is ``t(a1)``.  A relation pair ``(x, y)``
(serialized as ``x*y``) declares the length-2 path "y, then x" to be zero.

Bound quivers and triples are immutable, so what is derived from them is
kept on them as cached properties: a bound quiver's relation index, its
arrow-successor graph with the one walk of it that decides finiteness and
orders it for counting, and its gentle check; a triple's validation, its
three constructions and its cycles.  Each is computed at most once per
object and dies with it.

Every value type of the package is a ``Record``: a plain class that lists
its fields in ``__slots__`` (plus ``"__dict__"`` when it keeps cached
properties) and sets them in an explicit ``__init__``, which also holds the
defaults and the checks.  The base guarantees that a record is immutable
(assigning or deleting any attribute raises ``AttributeError``; a cached
property writes to the instance ``__dict__`` directly); that two
records are equal exactly when they are of the same class with equal fields
(``NotImplemented`` against any other class) and that equal records hash
equal; that ``repr`` gives ``Name(field=value, ...)``, the form error
messages quote; and that ``copy`` and ``pickle`` rebuild a record through
its ``__init__``.  A class made with ``eq=False`` keeps identity equality
and hashing instead.  Unlike ``dataclasses``, the base generates no code,
so importing the package compiles nothing beyond its own source.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .errors import (
    DanglingEndpoint,
    DuplicateName,
    InfiniteDimensional,
    NotComposable,
    UnknownVertex,
)

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from .construct import GPairLabels, SgPresentation
    from .cycles import CycleClass
    from .validate import ValidationReport, Violation

VertexId = str
ArrowId = str


def relation_text(x: ArrowId, y: ArrowId) -> str:
    """The written form ``x*y`` of the relation pair (x, y), in every message and output."""
    return f"{x}*{y}"


_set = object.__setattr__  # how a record's __init__ sets its fields


class Record:
    """Base of the immutable value types; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        get = attrgetter(*cls._fields)
        # the field values as a tuple, also for a single field
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class Arrow(Record):
    __slots__ = ("name", "source", "target")

    def __init__(self, name: ArrowId, source: VertexId, target: VertexId):
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "target", target)

    def __repr__(self):
        return f"{self.name}: {self.source} -> {self.target}"


class Quiver(Record):
    """A quiver; ``arrows`` is kept sorted by name, whatever order it is given in."""

    __slots__ = ("vertices", "arrows", "__dict__")

    def __init__(self, vertices: frozenset[VertexId], arrows):
        _set(self, "vertices", vertices)
        _set(self, "arrows", tuple(sorted(arrows, key=attrgetter("name"))))

    @cached_property
    def vertex_list(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def arrow_map(self) -> dict[ArrowId, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def outgoing(self) -> dict[VertexId, tuple[Arrow, ...]]:
        return _group(self.vertex_list, ((a.source, a) for a in self.arrows))

    @cached_property
    def incoming(self) -> dict[VertexId, tuple[Arrow, ...]]:
        return _group(self.vertex_list, ((a.target, a) for a in self.arrows))


def build_quiver(vertices, arrows) -> Quiver:
    """Validate and freeze a quiver."""
    seen_v = set()
    for v in vertices:
        if not v:
            raise DuplicateName("empty vertex id")
        if v in seen_v:
            raise DuplicateName(f"vertex {v!r} declared twice")
        seen_v.add(v)
    seen_a = set()
    for a in arrows:
        if a.name in seen_a:
            raise DuplicateName(f"arrow {a.name!r} declared twice")
        seen_a.add(a.name)
        if a.source not in seen_v:
            raise DanglingEndpoint(f"arrow {a.name!r} starts at unknown vertex {a.source!r}")
        if a.target not in seen_v:
            raise DanglingEndpoint(f"arrow {a.name!r} ends at unknown vertex {a.target!r}")
    return Quiver(frozenset(seen_v), arrows)


class Path(Record):
    """Either a trivial path at ``vertex`` or a nonempty arrow sequence.

    ``arrows`` is kept in written order: ``arrows[-1]`` is applied first.
    """

    __slots__ = ("arrows", "vertex")

    def __init__(self, arrows: tuple[Arrow, ...] = (), vertex: VertexId | None = None):
        if arrows:
            if vertex is not None:
                raise ValueError("nontrivial path must not carry a base vertex")
            for i in range(1, len(arrows)):
                if arrows[i].target != arrows[i - 1].source:
                    raise NotComposable(
                        f"arrows {arrows[i].name!r} and {arrows[i - 1].name!r} do not compose"
                    )
        elif vertex is None:
            raise ValueError("trivial path needs a vertex")
        _set(self, "arrows", arrows)
        _set(self, "vertex", vertex)

    @staticmethod
    def trivial(vertex: VertexId) -> "Path":
        return Path((), vertex)

    @staticmethod
    def of(arrows) -> "Path":
        return Path(tuple(arrows), None)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    @property
    def source(self) -> VertexId:
        return self.vertex if self.is_trivial else self.arrows[-1].source

    @property
    def target(self) -> VertexId:
        return self.vertex if self.is_trivial else self.arrows[0].target

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __repr__(self):
        if self.is_trivial:
            return f"e({self.vertex})"
        return "".join(a.name for a in self.arrows)


def compose(p: Path, q: Path) -> Path:
    """Concatenate ``p`` after ``q`` (q applied first); trivial paths are units."""
    if p.source != q.target:
        raise NotComposable(f"source of {p!r} is {p.source!r}, target of {q!r} is {q.target!r}")
    if p.is_trivial:
        return q
    if q.is_trivial:
        return p
    return Path(p.arrows + q.arrows)


def valency(q: Quiver, v: VertexId) -> int:
    """Number of arrow endpoints at ``v``; a loop contributes twice."""
    if v not in q.vertices:
        raise UnknownVertex(f"vertex {v!r} not in quiver")
    return len(q.outgoing[v]) + len(q.incoming[v])


def _group(keys, pairs) -> dict:
    """Map each key to the values paired with it, in the order of ``pairs``."""
    index: dict = {k: [] for k in keys}
    for k, v in pairs:
        index[k].append(v)
    return {k: tuple(values) for k, values in index.items()}


class BoundQuiver(Record):
    """A quiver bound by length-2 zero relations.

    ``relations`` holds pairs of arrow names ``(x, y)`` meaning the 2-path
    "y, then x" is zero.
    """

    __slots__ = ("quiver", "relations", "__dict__")

    def __init__(self, quiver: Quiver,
                 relations: frozenset[tuple[ArrowId, ArrowId]] = frozenset()):
        _set(self, "quiver", quiver)
        _set(self, "relations", relations)
        amap = quiver.arrow_map
        for x, y in self.relation_list:  # name order, whatever the hash seed
            if x not in amap or y not in amap:
                raise UnknownVertex(f"relation {relation_text(x, y)} names an unknown arrow")
            if amap[y].target != amap[x].source:
                raise NotComposable(f"relation {relation_text(x, y)} is not a composable 2-path")

    @cached_property
    def relation_list(self) -> tuple[tuple[ArrowId, ArrowId], ...]:
        return tuple(sorted(self.relations))

    @cached_property
    def relations_before(self) -> dict[ArrowId, tuple[ArrowId, ...]]:
        """For each arrow x, the arrows y with (x, y) a relation, in name order."""
        return _group(self.quiver.arrow_map, self.relation_list)

    @cached_property
    def relations_after(self) -> dict[ArrowId, tuple[ArrowId, ...]]:
        """For each arrow y, the arrows x with (x, y) a relation, in name order."""
        return _group(self.quiver.arrow_map, ((y, x) for x, y in self.relation_list))

    @cached_property
    def successors(self) -> dict[ArrowId, tuple[ArrowId, ...]]:
        """The arrow-successor graph: for each arrow a, the arrows g with
        s(g) = t(a) and (g, a) not a relation, in name order."""
        out = self.quiver.outgoing
        after = self.relations_after
        return {
            a.name: tuple([g.name for g in out[a.target] if g.name not in after[a.name]])
            for a in self.quiver.arrows
        }

    @cached_property
    def arrow_dag(self) -> tuple[tuple[ArrowId, ...] | None, tuple[Arrow, ...]]:
        """``_walk`` of the arrow-successor graph, successors in name order:
        ``(cycle, ())`` when it has a relation-free cycle, else
        ``(None, order)`` with every arrow placed after all its successors."""
        cycle, order = _walk(self.successors)
        if cycle is not None:
            return cycle, ()
        amap = self.quiver.arrow_map
        return None, tuple(amap[a] for a in order)

    def acyclic_with(self, edges) -> bool:
        """Whether the arrow-successor graph stays acyclic once each edge
        a -> b in ``edges`` is added to it."""
        if not edges:
            return self.fd_witness is None
        graph = dict(self.successors)
        for a, b in edges:
            graph[a] = (*graph[a], b)
        return _walk(graph)[0] is None

    @cached_property
    def fd_witness(self) -> tuple[ArrowId, ...] | None:
        """The relation-free cycle ``arrow_dag`` found, or None when there is none."""
        return self.arrow_dag[0]

    @cached_property
    def gentle_violations(self) -> tuple[Violation, ...]:
        """The violations ``is_gentle`` reports, found once; empty when gentle."""
        from .validate import is_gentle  # deferred: validate imports this module

        return tuple(is_gentle(self)[1])


def _walk(graph) -> tuple[tuple[ArrowId, ...] | None, list[ArrowId]]:
    """One iterative depth-first walk of a graph given as successor tuples.

    Gives ``(cycle, [])`` when the graph has a cycle, else ``(None, order)``
    with every node placed after all its successors, as nodes are recorded
    when they finish.  Starts are taken in name order and successors in the
    order given, so the cycle found is always the same one.  Each node's
    successors are read once.
    """
    state = dict.fromkeys(graph, 0)  # 0 unvisited, 1 on the trail, 2 done
    order: list[ArrowId] = []
    for start in sorted(graph):
        if state[start]:
            continue
        state[start] = 1
        trail = [start]
        pending = [iter(graph[start])]
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


class SkewedGentleTriple(Record):
    """A bound quiver together with a (candidate) set of special vertices."""

    __slots__ = ("pair", "special", "name", "__dict__")

    def __init__(self, pair: BoundQuiver, special: frozenset[VertexId] = frozenset(),
                 name: str = "Q"):
        unknown = special - pair.quiver.vertices
        if unknown:
            raise UnknownVertex(f"special vertices {sorted(unknown)} not in quiver")
        _set(self, "pair", pair)
        _set(self, "special", special)
        _set(self, "name", name)

    @cached_property
    def special_list(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.special))

    # Everything below is derived from the triple once and kept with it, so
    # it dies with the triple.  The modules that compute these import this
    # one, hence the deferred imports.

    @cached_property
    def validation(self) -> ValidationReport:
        """The report of ``validate_skewed_gentle``: the one decision on the triple."""
        from .validate import validate_skewed_gentle

        return validate_skewed_gentle(self)

    @cached_property
    def sp_pair(self) -> BoundQuiver:
        """(Q^sp, I^sp), as ``build_sp_pair`` makes it."""
        from .construct import build_sp_pair

        return build_sp_pair(self)

    @cached_property
    def sg_presentation(self) -> SgPresentation:
        """Q^sg, as ``build_sg_presentation`` makes it; needs a valid triple."""
        from .construct import build_sg_presentation

        return build_sg_presentation(self)

    @cached_property
    def g_pair(self) -> GPairLabels:
        """(Q^g, I^g) with its labels, as ``build_g_pair`` makes it; needs a valid triple."""
        from .construct import build_g_pair

        return build_g_pair(self)

    @cached_property
    def admissible_pair(self) -> BoundQuiver:
        """(Q, I1), as ``admissible_base_pair`` makes it."""
        from .algebra import admissible_base_pair

        return admissible_base_pair(self)

    @cached_property
    def cycles(self) -> tuple[CycleClass, ...]:
        """Full relation cycles of the base pair with their parities, by arrows."""
        from .cycles import full_cycles

        return tuple(sorted(full_cycles(self.pair, self.special), key=lambda c: c.arrows))


def finite_dimensional_witness(bq: BoundQuiver) -> tuple[ArrowId, ...] | None:
    """Return a relation-free arrow cycle if one exists, else None.

    Works on the arrow-successor graph: one node per arrow, an edge b -> a
    whenever t(b) = s(a) and (a, b) is not a relation.  The quotient algebra
    is finite dimensional exactly when this graph is acyclic.
    """
    return bq.fd_witness


def is_finite_dimensional(bq: BoundQuiver) -> bool:
    return bq.fd_witness is None


def successor_order(bq: BoundQuiver) -> tuple[Arrow, ...]:
    """Every arrow after all its successors; raises when the algebra is infinite."""
    witness, order = bq.arrow_dag
    if witness is not None:
        raise InfiniteDimensional(
            f"relation-free cycle {list(witness)} makes the algebra infinite dimensional",
            witness=witness,
        )
    return order


def count_relation_free_paths(bq: BoundQuiver, source_weight, target_weight) -> int:
    """Sum of ``source_weight(s(p)) * target_weight(t(p))`` over the nontrivial
    relation-free paths p, without building any of them.

    One pass over the arrow-successor graph, successors first: the paths
    that apply arrow a first weigh F(a) = target_weight(t(a)) plus the sum
    of F(g) over the successors g of a.
    """
    succ = bq.successors
    weight: dict[ArrowId, int] = {}
    total = 0
    for a in successor_order(bq):
        f = target_weight(a.target)
        for g in succ[a.name]:
            f += weight[g]
        weight[a.name] = f
        total += source_weight(a.source) * f
    return total


def relation_free_paths(bq: BoundQuiver) -> list[Path]:
    """All paths avoiding every relation pair, including one trivial per vertex.

    Their number is the dimension of the monomial algebra presented by ``bq``;
    ``count_relation_free_paths`` gives it without listing them.
    """
    successor_order(bq)  # raises InfiniteDimensional with its witness
    amap = bq.quiver.arrow_map
    paths = [Path.trivial(v) for v in bq.quiver.vertex_list]
    for v in bq.quiver.vertex_list:
        # walk in application order, first arrow at index 0
        stack = [[a] for a in reversed(bq.quiver.outgoing[v])]
        while stack:
            walk = stack.pop()
            paths.append(Path(tuple(reversed(walk))))
            for g in reversed(bq.successors[walk[-1].name]):
                stack.append(walk + [amap[g]])
    paths.sort(key=lambda p: (p.length, tuple(a.name for a in p.arrows), p.source))
    return paths
