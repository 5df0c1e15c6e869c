"""Immutable quivers and bound quivers with length-2 zero relations.

Path convention: a path ``p = a1 a2 ... ar`` is written with the rightmost
arrow applied first, so ``t(a_i) = s(a_{i-1})`` for i = 2..r, the source of
``p`` is ``s(ar)`` and its target is ``t(a1)``.  A relation pair ``(x, y)``
(serialized as ``x*y``) declares the length-2 path "y, then x" to be zero.

Bound quivers and triples are immutable, so what is derived from them is
kept on them as cached properties: a bound quiver's relation index, its
arrow-successor graph with the one walk of it that decides finiteness and
orders it for counting, and its gentle check; a triple's validation with
its one walk of the arrow-successor graph of (Q, I1), its three
constructions and its cycles.  Each is computed at most once per object
and dies with it.  Relation-free paths are counted and listed off a walk
(``ArrowWalk``), not off a pair: the base pair's or Q^g's own, or the
verdict's walk for (Q, I1), which is never built as a pair.

A bound quiver reads its relations as the set gives them: its check, its
arrow-successor graph and each side of its relation index (``_grouped``,
which also groups a quiver's arrows by end) are one linear pass each, also
when one arrow has many relation partners.  The relations are sorted only
to name the first bad one and where an output lists them.  Full relation
cycles and spset's rings are read off one linear walk, ``_chain_cycles``.

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
_by_name = attrgetter("name")


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
        _set(self, "arrows", tuple(sorted(arrows, key=_by_name)))

    @cached_property
    def vertex_list(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def arrow_map(self) -> dict[ArrowId, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def outgoing(self) -> dict[VertexId, tuple[Arrow, ...]]:
        return _grouped(self.vertex_list, ((a.source, a) for a in self.arrows), _by_name)

    @cached_property
    def incoming(self) -> dict[VertexId, tuple[Arrow, ...]]:
        return _grouped(self.vertex_list, ((a.target, a) for a in self.arrows), _by_name)


def _grouped(keys, pairs, order=None) -> dict:
    """Each key of ``keys`` with a tuple of the values ``pairs`` gives it,
    sorted by ``order``, in one pass over the pairs in any order.  A first
    value is kept as a 1-tuple and a second makes a list, so only keys with
    two or more values are sorted, and the pass stays linear."""
    index = dict.fromkeys(keys, ())
    many = []
    for key, value in pairs:
        values = index[key]
        if not values:
            index[key] = (value,)
        elif len(values) == 1:
            index[key] = [values[0], value]
            many.append(key)
        else:
            values.append(value)
    for key in many:
        index[key] = tuple(sorted(index[key], key=order))
    return index


def _chain_cycles(follower: dict) -> list[list]:
    """The cycles of ``follower``, a map in which no two keys share a value,
    each as its keys in walk order.  Each key is read once: as no two keys
    share a value, a walk meets a key seen before only at its own start,
    closing a cycle, or on an earlier walk, and then its start is on none."""
    cycles, seen = [], set()
    for start in follower:
        if start in seen:
            continue
        chain, key = [], start
        while key is not None and key not in seen:
            seen.add(key)
            chain.append(key)
            key = follower.get(key)
        if key == start:
            cycles.append(chain)
    return cycles


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
        for x, y in relations:
            if x not in amap or y not in amap or amap[y].target != amap[x].source:
                self._raise_first_bad_relation()

    def _raise_first_bad_relation(self):
        """Raise for the first relation in name order, whatever the hash
        seed, that names an unknown arrow or is no composable 2-path."""
        amap = self.quiver.arrow_map
        for x, y in self.relation_list:
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
        return _grouped(self.quiver.arrow_map, self.relations)

    @cached_property
    def relations_after(self) -> dict[ArrowId, tuple[ArrowId, ...]]:
        """For each arrow y, the arrows x with (x, y) a relation, in name order."""
        return _grouped(self.quiver.arrow_map, [(y, x) for x, y in self.relations])

    @cached_property
    def successors(self) -> dict[ArrowId, tuple[ArrowId, ...]]:
        """The arrow-successor graph: for each arrow a, the arrows g with
        s(g) = t(a) and (g, a) not a relation, in name order.

        Every relation partner after a starts at t(a), so a keeps all the
        arrows there when it has no partner and none when it has as many."""
        out = self.quiver.outgoing
        after = self.relations_after
        succ = {}
        for a in self.quiver.arrows:
            outs, killed = out[a.target], after[a.name]
            if not killed:
                succ[a.name] = tuple([g.name for g in outs])
            elif len(killed) == len(outs):
                succ[a.name] = ()
            else:
                if len(killed) > 1:
                    killed = set(killed)
                succ[a.name] = tuple([g.name for g in outs if g.name not in killed])
        return succ

    @cached_property
    def walk(self) -> ArrowWalk:
        """The one walk of the arrow-successor graph, successors in name order."""
        return ArrowWalk.of(self.quiver, self.successors)

    def walk_with(self, edges) -> ArrowWalk:
        """The walk of the arrow-successor graph once each edge a -> b in
        ``edges`` is added to it; this pair's own ``walk`` when there is none."""
        if not edges:
            return self.walk
        graph = dict(self.successors)
        for a, b in edges:
            graph[a] = (*graph[a], b)
        return ArrowWalk.of(self.quiver, graph)

    @cached_property
    def gentle_violations(self) -> tuple[Violation, ...]:
        """The violations ``is_gentle`` reports, found once; empty when gentle."""
        from .validate import is_gentle  # deferred: validate imports this module

        return tuple(is_gentle(self)[1])


class ArrowWalk(Record, eq=False):
    """One ``_walk`` of an arrow-successor graph ``successors`` (arrow name
    to successor names) on the arrows of ``quiver``: ``cycle`` is the cycle
    it found, or None, and then ``order`` holds every arrow after all its
    successors.  Every count and listing of relation-free paths reads one."""

    __slots__ = ("quiver", "successors", "cycle", "order", "__dict__")

    def __init__(self, quiver: Quiver, successors: dict[ArrowId, tuple[ArrowId, ...]],
                 cycle: tuple[ArrowId, ...] | None, order: tuple[ArrowId, ...]):
        _set(self, "quiver", quiver)
        _set(self, "successors", successors)
        _set(self, "cycle", cycle)
        _set(self, "order", order)

    @staticmethod
    def of(quiver: Quiver, successors) -> "ArrowWalk":
        cycle, order = _walk(successors)
        return ArrowWalk(quiver, successors, cycle, tuple(order))

    @cached_property
    def arrows(self) -> tuple[Arrow, ...]:
        """``order`` as arrows, made when a count first reads it."""
        amap = self.quiver.arrow_map
        return tuple([amap[a] for a in self.order])


def _walk(graph) -> tuple[tuple[ArrowId, ...] | None, list[ArrowId]]:
    """One iterative depth-first walk of a graph given as successor tuples.

    Gives ``(cycle, [])`` when the graph has a cycle, else ``(None, order)``
    with every node placed after all its successors, as nodes are recorded
    when they finish.  Starts are taken in name order and successors in the
    order given, so the cycle found is always the same one.  Each node's
    successors are read once.  A node without successors lies on no cycle:
    it finishes as soon as it is reached, as a start or as a successor,
    without a trail entry or an iterator, in the place in ``order`` that
    pushing and popping it would give.
    """
    state = dict.fromkeys(graph, 0)  # 0 unvisited, 1 on the trail, 2 done
    order: list[ArrowId] = []
    for start in sorted(graph):
        if state[start]:
            continue
        succ = graph[start]
        if not succ:
            state[start] = 2
            order.append(start)
            continue
        state[start] = 1
        trail = [start]
        pending = [iter(succ)]
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
                succ = graph[nxt]
                if succ:
                    state[nxt] = 1
                    trail.append(nxt)
                    pending.append(iter(succ))
                else:
                    state[nxt] = 2
                    order.append(nxt)
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
        """(Q^g, I^g) with its lift table, as ``build_g_pair`` makes it; needs a valid triple."""
        from .construct import build_g_pair

        return build_g_pair(self)

    @cached_property
    def admissible_walk(self) -> ArrowWalk | None:
        """The walk that decides the triple, of the arrow-successor graph of
        (Q, I1), as ``admissible_walk`` makes it; None when a special vertex
        fails the local rule."""
        from .validate import admissible_walk

        return admissible_walk(self)

    @cached_property
    def cycles(self) -> tuple[CycleClass, ...]:
        """Full relation cycles of the base pair with their parities, by arrows."""
        from .cycles import full_cycles

        return tuple(sorted(full_cycles(self.pair, self.special), key=lambda c: c.arrows))


def successor_order(walk: ArrowWalk) -> tuple[Arrow, ...]:
    """Every arrow after all its successors; raises when the algebra is infinite."""
    if walk.cycle is not None:
        raise InfiniteDimensional(
            f"relation-free cycle {list(walk.cycle)} makes the algebra infinite dimensional",
            witness=walk.cycle,
        )
    return walk.arrows


def count_relation_free_paths(walk: ArrowWalk, source_weight, target_weight) -> int:
    """Sum of ``source_weight(s(p)) * target_weight(t(p))`` over the nontrivial
    relation-free paths p of the walk's graph, without building any of them.

    One pass over the arrow-successor graph, successors first: the paths
    that apply arrow a first weigh F(a) = target_weight(t(a)) plus the sum
    of F(g) over the successors g of a.
    """
    succ = walk.successors
    weight: dict[ArrowId, int] = {}
    total = 0
    for a in successor_order(walk):
        f = target_weight(a.target)
        for g in succ[a.name]:
            f += weight[g]
        weight[a.name] = f
        total += source_weight(a.source) * f
    return total
