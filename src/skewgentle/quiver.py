"""Immutable quivers and bound quivers with length-2 zero relations.

Path convention: a path ``p = a1 a2 ... ar`` is written with the rightmost
arrow applied first, so ``t(a_i) = s(a_{i-1})`` for i = 2..r, the source of
``p`` is ``s(ar)`` and its target is ``t(a1)``.  A relation pair ``(x, y)``
(serialized as ``x*y``) declares the length-2 path "y, then x" to be zero.

Every rule that names and endpoints resolve, with its message, lives in
``_first_bad_item``; the constructors raise its error, ``dsl.parse`` places it.
The constructors first check the whole input (names distinct, endpoints
among the vertices, each relation composable, special vertices among the
vertices) and run ``_first_bad_item`` only on a fault, to name it.

Bound quivers and triples are immutable, so what is derived from them is
kept on them as cached properties: a bound quiver's relation index, its
arrow-successor graph with the one walk of it that decides finiteness and
orders it for counting, and its gentle check; a triple's validation with
its one walk of the arrow-successor graph of (Q, I1), its two lift tables,
Q^g's signed arrow names, Q^g's relations as their partner maps, its three
constructions and its cycles.  The constructions of Q^sg and Q^g, the
cycles and the counts need a valid triple, whose verdict has decided the
base pair gentle and finite, so none of them walks the base pair.
Each is computed at most once per object and dies with it.  Relation-free
paths are counted in one pass, ``path_sums``, over the verdict's walk of
(Q, I1), which is never built as a pair: the base pair's graph is a
subgraph of (Q, I1)'s, so its paths are counted in the same pass, along its
own successors.  They are listed off a walk (``ArrowWalk``) too.  Q^g is no
pair either: it is held as its lift rows, and its paths are read off its
free threads.

Every pair, the base pair and Q^sp over ``Quiver.arrows`` and Q^g over its
lift rows, is decided gentle from counts by ``gentle_decision``: G1 by the
sizes of its ``partner_maps``, SB1 from the arrows out of and into each
vertex, and SB2 in one pass over the rows, which also builds the
arrow-successor graph, as each arrow of a gentle pair has at most one
successor.  So a gentle pair builds no index of arrows by end and no
relation index.  Only a pair the decision rejects runs the witness pass,
``validate._gentle_witnesses``, on that general index (``_grouped``), which
stays linear also when one arrow has many relation partners.  The relations
are sorted only to name the first bad one and where an output lists them.
The walk of a successor graph follows a run of single successors without a
stack entry per arrow, and finishes an arrow without successors as soon as
it reaches it.  Full relation cycles and spset's rings are read off one
linear walk, ``_chain_cycles``.

``Arrow`` is the one value type that is a tuple and not a ``Record``: it
equals its ``(name, source, target)`` row, so a quiver's arrows are the
parser's rows, and every pass over them unpacks them.  Every other value
type is a record: a plain class that lists its fields in ``__slots__``
(plus ``"__dict__"`` when it keeps cached properties) and sets them in an
explicit ``__init__``, which also holds the defaults and the checks.  The
base guarantees that a record is immutable (assigning or deleting any
attribute raises ``AttributeError``; a cached property writes to the
instance ``__dict__`` directly); that two records are equal exactly when
they are of the same class with equal fields (``NotImplemented`` against
any other class) and that equal records hash equal; that ``repr`` gives
``Name(field=value, ...)``, the form error messages quote; and that
``copy`` and ``pickle`` rebuild a record through its ``__init__``.  A
class made with ``eq=False`` keeps identity equality and hashing instead.
Unlike ``dataclasses`` and ``namedtuple``, neither generates code, so
importing the package compiles nothing beyond its own source.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import attrgetter, itemgetter

from .errors import (
    DanglingEndpoint,
    DuplicateName,
    InfiniteDimensional,
    NotComposable,
    UnknownVertex,
)

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from .construct import GPresentation, SgPresentation
    from .cycles import CycleClass
    from .validate import ValidationReport, Violation

VertexId = str
ArrowId = str


def relation_text(x: ArrowId, y: ArrowId) -> str:
    """The written form ``x*y`` of the relation pair (x, y), in every message and output."""
    return f"{x}*{y}"


_set = object.__setattr__  # how a record's __init__ sets its fields
_by_name, _source, _target = itemgetter(0), itemgetter(1), itemgetter(2)  # of an arrow's row


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


class Arrow(tuple):
    """An arrow as the ``(name, source, target)`` row it equals; the package
    reads it by position.  The class and its field names stay for their
    reader outside the package, ``perfbench/workloads.py``: ``to_triple``
    calls ``Arrow(a, s, t)`` and ``spec_of`` reads the three fields."""

    __slots__ = ()

    def __new__(cls, name: ArrowId, source: VertexId, target: VertexId):
        return tuple.__new__(cls, (name, source, target))

    name, source, target = property(_by_name), property(_source), property(_target)

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{self[0]}: {self[1]} -> {self[2]}"


class Quiver(Record):
    """A quiver; ``arrows``, any rows of distinct names, is kept in name order."""

    __slots__ = ("vertices", "arrows", "__dict__")

    def __init__(self, vertices: frozenset[VertexId], arrows):
        _set(self, "vertices", vertices)
        _set(self, "arrows", tuple(sorted(arrows, key=_by_name)))

    @cached_property
    def vertex_list(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def arrow_map(self) -> dict[ArrowId, Arrow]:
        return dict(zip(map(_by_name, self.arrows), self.arrows))

    @cached_property
    def outgoing(self) -> dict[VertexId, tuple[Arrow, ...]]:
        return _grouped(self.vertex_list, zip(map(_source, self.arrows), self.arrows), _by_name)

    @cached_property
    def incoming(self) -> dict[VertexId, tuple[Arrow, ...]]:
        return _grouped(self.vertex_list, zip(map(_target, self.arrows), self.arrows), _by_name)


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


def _first_bad_item(vertices, arrows, relations=(), special=()):
    """``(statement, index, error)`` for the first item that does not
    resolve, or None: statements in the order vertices, arrows (``(name,
    source, target)`` rows), relations (name pairs), special, and items in
    the order given, each good one kept, so a bad one's index is the count
    kept.  Each integrity rule and its message is written here only."""
    seen = set()
    for v in vertices:
        if not v:
            return "vertices", len(seen), DuplicateName("empty vertex id")
        if v in seen:
            return "vertices", len(seen), DuplicateName(f"vertex {v!r} declared twice")
        seen.add(v)
    names = set()
    for name, source, target in arrows:
        if name in names:
            return "arrows", len(names), DuplicateName(f"arrow {name!r} declared twice")
        if source not in seen:
            return "arrows", len(names), DanglingEndpoint(
                f"arrow {name!r} starts at unknown vertex {source!r}")
        if target not in seen:
            return "arrows", len(names), DanglingEndpoint(
                f"arrow {name!r} ends at unknown vertex {target!r}")
        names.add(name)
    amap = {a[0]: a for a in arrows} if relations else {}  # none for build_quiver
    pairs = set()
    for x, y in relations:
        i = len(pairs)
        for arrow in (x, y):
            if arrow not in amap:
                return "relations", i, UnknownVertex(f"relation names unknown arrow {arrow!r}")
        if amap[y][2] != amap[x][1]:
            return "relations", i, NotComposable(
                f"relation {relation_text(x, y)} is not composable: "
                f"t({y}) = {amap[y][2]!r} but s({x}) = {amap[x][1]!r}")
        if (x, y) in pairs:
            return "relations", i, DuplicateName(f"relation {relation_text(x, y)} declared twice")
        pairs.add((x, y))
    chosen = set()
    for v in special:
        if v not in seen:
            return "special", len(chosen), UnknownVertex(f"special names unknown vertex {v!r}")
        if v in chosen:
            return "special", len(chosen), DuplicateName(f"special vertex {v!r} declared twice")
        chosen.add(v)
    return None


def build_quiver(vertices, arrows) -> Quiver:
    """Validate and freeze a quiver; raises for the first bad item in the order given."""
    vertices, arrows = tuple(vertices), tuple(arrows)  # each is read twice
    vertex_set = frozenset(vertices)
    if (len(vertex_set) < len(vertices) or "" in vertex_set
            or len(set(map(_by_name, arrows))) < len(arrows)
            or not vertex_set.issuperset(map(_source, arrows))
            or not vertex_set.issuperset(map(_target, arrows))):
        raise _first_bad_item(vertices, arrows)[2]
    return Quiver(vertex_set, arrows)


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
            if x not in amap or y not in amap or amap[y][2] != amap[x][1]:
                # the first bad relation in name order, whatever the hash seed
                raise _first_bad_item(quiver.vertex_list, quiver.arrows, self.relation_list)[2]

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
    def gentle_index(self) -> tuple[dict, Counter, dict, dict] | None:
        """``gentle_decision`` over the arrows and partner maps; None if not gentle."""
        partners = partner_maps(self.relations)
        return partners and gentle_decision(self.quiver.arrows, *partners)

    @cached_property
    def successors(self) -> dict[ArrowId, tuple[ArrowId, ...]]:
        """The arrow-successor graph: for each arrow a, the arrows g with
        s(g) = t(a) and (g, a) not a relation, in name order; the counted
        decision's when the pair is gentle."""
        index = self.gentle_index
        return _successors(self) if index is None else index[3]

    @cached_property
    def walk(self) -> ArrowWalk:
        """The one walk of the arrow-successor graph, successors in name order."""
        return ArrowWalk.of(self.quiver, self.successors)

    @cached_property
    def gentle_violations(self) -> tuple[Violation, ...]:
        """The gentle violations, found once: empty when the counted decision
        accepts the pair, else the witness pass ``validate._gentle_witnesses``."""
        if self.gentle_index is not None:
            return ()
        from .validate import _gentle_witnesses  # deferred: validate imports this module

        return tuple(_gentle_witnesses(self))


def partner_maps(relations) -> tuple[dict[ArrowId, ArrowId], dict[ArrowId, ArrowId]] | None:
    """``before`` (x to y) and ``after`` (y to x) for each relation pair (x,
    y); None when an arrow lies on one side of two pairs (G1), as a map is
    then smaller than the pairs."""
    before = dict(relations)
    after = dict(zip(before.values(), before))
    return (before, after) if len(after) == len(relations) else None


def gentle_decision(rows, before, after) -> tuple[dict, Counter, dict, dict] | None:
    """The counted decision of every pair, over its ``(name, source, target)``
    rows and its partner maps: ``(outs, ins, before, successors)`` when it
    is gentle, else None, with each vertex's arrows out in row order and its
    number of arrows in, and the arrow-successor graph.

    Given G1, an arrow a has as many free successors as arrows out of t(a),
    less one for its partner after it, and as many free predecessors as
    arrows into s(a), less one for its partner before it.  SB1 reads the
    counts; one pass over the rows checks SB2 on the successor side and
    keeps a's one free successor, if any, with no partner the tuple of
    ``outs`` itself; a vertex with two arrows in needs, for each arrow out,
    a partner before it that the pass met.  A partner off its arrow's end
    fails the pair, so any rows with distinct names are decided."""
    ins = Counter(map(_target, rows))
    if max(ins.values(), default=0) > 2:
        return None
    outs = {}
    for name, source, _ in rows:
        out = outs.get(source)
        if out is None:
            outs[source] = (name,)
        elif len(out) == 1:
            outs[source] = (out[0], name)
        else:
            return None
    succ = {}
    for name, _, target in rows:
        out = outs.get(target, ())
        x = after.get(name)
        if x is None:
            if len(out) == 2:
                return None
            succ[name] = out
        elif out and out[0] == x:
            succ[name] = out[1:]
        elif len(out) == 2 and out[1] == x:
            succ[name] = out[:1]
        else:
            return None
    for v, k in ins.items():
        if k == 2:
            for g in outs.get(v, ()):
                if before.get(g) not in succ:
                    return None
    return outs, ins, before, succ


def _successors(bq: BoundQuiver) -> dict[ArrowId, tuple[ArrowId, ...]]:
    """The arrow-successor graph of any pair, off the general index.

    Every relation partner after a starts at t(a), so a keeps all the
    arrows there when it has no partner and none when it has as many."""
    out = bq.quiver.outgoing
    after = bq.relations_after
    succ = {}
    for name, _, target in bq.quiver.arrows:
        outs, killed = out[target], after[name]
        if not killed:
            succ[name] = tuple(map(_by_name, outs))
        elif len(killed) == len(outs):
            succ[name] = ()
        else:
            if len(killed) > 1:
                killed = set(killed)
            succ[name] = tuple([g for g, _, _ in outs if g not in killed])
    return succ


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
    successors are read once.  The trail holds the nodes being walked, and
    only a node with two or more successors keeps an iterator: a run of
    single successors is followed directly and, once its end is done,
    finishes at once, last node first.  A node without successors lies on
    no cycle and finishes as soon as it is reached, without a trail entry.
    The trail and the forks are empty between starts, so they are made once
    for the whole walk, and a start without successors costs no list.
    """
    state = dict.fromkeys(graph, 0)  # 0 unvisited, 1 on the trail, 2 done
    order: list[ArrowId] = []
    trail, forks = [], []  # forks: (trail length after a fork, its iterator)
    for start in sorted(graph):
        if state[start]:
            continue
        node = start
        while node is not None:
            mark = state[node]
            if not mark:
                succ = graph[node]
                if succ:
                    state[node] = 1
                    trail.append(node)
                    if len(succ) == 1:
                        node = succ[0]
                    else:
                        rest = iter(succ)
                        forks.append((len(trail), rest))
                        node = next(rest)
                    continue
                state[node] = 2
                order.append(node)
            elif mark == 1:
                return tuple(trail[trail.index(node):]), []
            # node is done: finish the trail back to the last fork with a successor left
            node = None
            while trail and node is None:
                at, rest = forks[-1] if forks else (0, None)
                done = trail[at:]
                del trail[at:]
                done.reverse()
                order += done
                for done_node in done:
                    state[done_node] = 2
                if rest is not None:
                    node = next(rest, None)
                    if node is None:
                        forks.pop()
    return None, order


class SkewedGentleTriple(Record):
    """A bound quiver together with a (candidate) set of special vertices."""

    __slots__ = ("pair", "special", "name", "__dict__")

    def __init__(self, pair: BoundQuiver, special: frozenset[VertexId] = frozenset(),
                 name: str = "Q"):
        _set(self, "pair", pair)
        _set(self, "special", special)
        _set(self, "name", name)
        if not special <= pair.quiver.vertices:
            # the first unknown special vertex in name order
            raise _first_bad_item(pair.quiver.vertex_list, (), (), self.special_list)[2]

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
    def sg_lifts(self) -> dict[VertexId, tuple[VertexId, ...]]:
        """The lift table of Q^sg, special vertices split, as ``vertex_lifts`` makes it."""
        from .construct import vertex_lifts

        return vertex_lifts(self, self.special, "Q^sg vertex")

    @cached_property
    def g_lifts(self) -> dict[VertexId, tuple[VertexId, ...]]:
        """The lift table of Q^g, ordinary vertices split, as ``vertex_lifts`` makes it."""
        from .construct import vertex_lifts

        return vertex_lifts(self, self.pair.quiver.vertices - self.special, "Q^g vertex")

    @cached_property
    def g_arrow_names(self) -> dict[ArrowId, tuple[str, str]]:
        """The names a+ and a- of Q^g's two lifts of each base arrow a, made
        once: every lift rule of Q^g and of its cycles reads them here."""
        return {name: (name + "+", name + "-") for name in map(_by_name, self.pair.quiver.arrows)}

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
    def g_partners(self) -> tuple[dict[ArrowId, ArrowId], dict[ArrowId, ArrowId]]:
        """I^g as its ``partner_maps``; needs a valid triple.  A G1 fault
        is a fault of Q^g, which ``construct._q_g_fault`` names."""
        from .construct import _q_g_fault, lift_relations_to_g

        partners = partner_maps(lift_relations_to_g(self))
        if partners is None:
            _q_g_fault(self)
        return partners

    @cached_property
    def g_presentation(self) -> GPresentation:
        """(Q^g, I^g) as its lift rows, checked gentle and finite, as
        ``build_g_presentation`` makes it; needs a valid triple."""
        from .construct import build_g_presentation

        return build_g_presentation(self)

    @cached_property
    def admissible_walk(self) -> ArrowWalk | None:
        """The walk that decides the triple, of the arrow-successor graph of
        (Q, I1), as ``admissible_walk`` makes it; None when a special vertex
        fails the local rule.  Needs a gentle base pair."""
        from .validate import admissible_walk

        return admissible_walk(self)

    @cached_property
    def cycles(self) -> tuple[CycleClass, ...]:
        """Full relation cycles of the base pair with their parities, by arrows;
        needs a valid triple, whose verdict has decided the base pair gentle and finite."""
        from .construct import _require_valid
        from .cycles import _relation_cycles

        _require_valid(self)
        return _relation_cycles(self.pair, self.special)


def successor_order(walk: ArrowWalk) -> tuple[Arrow, ...]:
    """Every arrow after all its successors; raises when the algebra is infinite."""
    if walk.cycle is not None:
        raise InfiniteDimensional(
            f"relation-free cycle {list(walk.cycle)} makes the algebra infinite dimensional",
            witness=walk.cycle,
        )
    return walk.arrows


def path_sums(walk: ArrowWalk, columns) -> list[dict[ArrowId, int]]:
    """The one counting pass over relation-free paths: for each column
    ``(successors, weight)``, a graph and a table of vertex weights, the map
    from each arrow a to F(a) = weight[t(a)] plus F(g) over the successors g
    of a, the sum of ``weight[t(p)]`` over the paths p of that graph that
    apply a first.  The walk's order, successors first, is read once and
    each column is one loop over it, so a column's graph must be the walk's
    or a subgraph of it, as the base pair's is of (Q, I1)'s.  Each map lists
    the arrows in that order, so a sum of ``w[s(p)] * weight[t(p)]`` is the
    dot product of ``w`` at their sources with the map's values.
    """
    order = successor_order(walk)
    filled = []
    for succ, weight in columns:
        value = {}
        for name, _, target in order:
            f = weight[target]
            for g in succ[name]:
                f += value[g]
            value[name] = f
        filled.append(value)
    return filled
