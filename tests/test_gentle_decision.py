"""The counted gentle decision and the chain walk against the code they spare.

``quiver.gentle_decision`` decides every pair from its counts, over its
``(name, source, target)`` rows and its partner maps, and builds its
arrow-successor graph in the same pass, so only a pair it rejects runs the
witness pass and the general successor builder.  A bound quiver reads it as
``gentle_index``, over ``Quiver.rows``; ``build_g_presentation`` calls it on
Q^g's lift rows.  ``quiver._walk`` follows a run of single successors
without a stack entry per node.  Each is checked against the general code on
the same inputs: the decision against the witness pass, its graph and counts
against the general index, the decision on Q^g's lift rows against the one
on the pair built from them, and the walk against the plain depth-first
walk of ``reference.walk``.
"""

import random
from collections import Counter

import pytest

from conftest import crossing, in_star, out_star
from reference import build_g_pair
from reference import walk as reference_walk

from skewgentle import BoundQuiver, SkewedGentleTriple, build_sp_pair, parse, random_triple
from skewgentle import construct, quiver, validate


def _witnesses(bq):
    """The witness pass on the general index, as for a pair the counted
    decision rejects, on a copy of ``bq`` that has not decided itself."""
    general = BoundQuiver(bq.quiver, bq.relations)
    general.__dict__["gentle_index"] = None
    return validate._gentle_witnesses(general)


def _parallel(k):
    """k arrows x_i: p -> q and k arrows y_i: q -> p, with every y_i*x_i zero."""
    xs = ", ".join(f"x{i}: p -> q" for i in range(k))
    ys = ", ".join(f"y{i}: q -> p" for i in range(k))
    relations = ", ".join(f"y{i}*x{i}" for i in range(k))
    return parse(f"quiver P {{ vertices: p, q; arrows: {xs}, {ys}; relations: {relations}; }}").pair


def _random_pairs():
    """The generator's pairs with their Q^sp and Q^g, all gentle, and three
    variants that mostly are not: Q^sp with every vertex special, and the
    pair with every 2-path zero or with one relation dropped."""
    for seed in range(300):
        t = random_triple(seed, 8, 11)
        q = t.pair.quiver
        every_zero = frozenset((x.name, y.name) for y in q.arrows for x in q.outgoing[y.target])
        yield f"{seed}", t.pair
        yield f"{seed} Q^sp", t.sp_pair
        yield f"{seed} Q^g", build_g_pair(t)
        yield f"{seed} every special", build_sp_pair(SkewedGentleTriple(t.pair, q.vertices))
        yield f"{seed} every 2-path zero", BoundQuiver(q, every_zero)
        if t.pair.relations:
            yield f"{seed} one dropped", BoundQuiver(q, t.pair.relations - {t.pair.relation_list[0]})


def _shaped_pairs():
    for k in (1, 2, 3, 5):
        for name, text in (("in_star", in_star(k)), ("out_star", out_star(k)),
                           ("crossing", crossing(k))):
            yield f"{name} {k}", parse(text).pair
        yield f"parallel {k}", _parallel(k)
    yield "loop a*a", parse("quiver O { vertices: v; arrows: a: v -> v; relations: a*a; }").pair
    # SB1 alone: three arrows into a sink or out of a source, with no arrow to pair them with
    yield "into a sink", parse("quiver F { vertices: p, q, r, s;"
                               " arrows: a: p -> s, b: q -> s, c: r -> s; }").pair
    yield "out of a source", parse("quiver F { vertices: p, q, r, s;"
                                   " arrows: a: s -> p, b: s -> q, c: s -> r; }").pair
    yield "free loop", parse("quiver O { vertices: v; arrows: a: v -> v; }").pair


def _all_pairs():
    yield from _random_pairs()
    yield from _shaped_pairs()


def test_the_decision_is_the_witness_pass_verdict():
    verdicts = Counter()
    for name, bq in _all_pairs():
        gentle = bq.gentle_index is not None
        assert gentle == (not _witnesses(bq)), name
        assert bq.gentle_violations == tuple(_witnesses(bq)), name
        verdicts[gentle] += 1
    # both verdicts are well represented
    assert verdicts[True] > 1000 and verdicts[False] > 500, verdicts


def test_the_decision_indexes_as_the_general_index():
    for name, bq in _all_pairs():
        index = bq.gentle_index
        if index is None:
            continue
        q = bq.quiver
        outs, ins, before, successors = index
        assert successors == quiver._successors(bq), name
        assert bq.successors is successors, name
        assert outs == {v: tuple(a for a, _, _ in arrows)
                        for v, arrows in q.outgoing.items() if arrows}, name
        assert all(ins[v] == len(q.incoming[v]) for v in q.vertex_list), name
        assert before == {x: ys[0] for x, ys in bq.relations_before.items() if ys}, name


def test_the_decision_on_q_g_lift_rows_matches_the_built_pair():
    # Q^g is decided over its lift rows and partner maps, and the reference
    # pair built on those rows over its own: the same counts, and the graph
    # of the general builder
    for seed in range(300):
        t = random_triple(seed, 8, 11)
        rows = construct.lift_arrows_to_g(t)
        index = quiver.gentle_decision(rows, *t.g_partners)
        built = build_g_pair(t)
        assert index == built.gentle_index, seed
        assert index[3] == quiver._successors(built), seed


def _walked_graphs():
    """Each pair's successor graph, from the decision or the general
    builder, and the graph of each triple's walk with its loops' edges."""
    for name, bq in _all_pairs():
        yield name, bq.successors
    for seed in range(300):
        t = random_triple(seed, 8, 11)
        yield f"{seed} (Q, I1)", t.admissible_walk.successors


def _random_digraph(rng):
    """A digraph on up to 12 nodes with up to three successors each, in a
    random order, so most have a cycle and many a fork."""
    nodes = [f"n{i}" for i in range(rng.randint(1, 12))]
    return {v: tuple(rng.sample(nodes, min(len(nodes), rng.choice((0, 1, 1, 1, 2, 3)))))
            for v in nodes}


@pytest.mark.parametrize("source", ["pairs", "digraphs"])
def test_the_chain_walk_is_the_depth_first_walk(source):
    if source == "pairs":
        graphs = list(_walked_graphs())
    else:
        rng = random.Random(20)
        graphs = [(f"digraph {i}", _random_digraph(rng)) for i in range(3000)]
    cycles = forks = 0
    for name, graph in graphs:
        got = quiver._walk(graph)
        assert got == reference_walk(graph), name
        cycles += got[0] is not None
        forks += any(len(succ) > 1 for succ in graph.values())
    assert cycles > len(graphs) // 10 and forks > len(graphs) // 10, (cycles, forks)
