"""Cross-check of the arrow-successor walk and the relation cycles against networkx.

Both graphs are built here from the arrows and relations alone, without
``BoundQuiver.successors`` or the relation index, and networkx decides
acyclicity and lists the cycles.  The pairs are the base pair, Q^sp and Q^g
of generated triples; for the finiteness witness also the same quivers with
every relation dropped, which have relation-free cycles whenever the quiver
has an oriented cycle.
"""

import pytest

from reference import build_g_pair

from skewgentle import BoundQuiver, full_cycles, random_triple

nx = pytest.importorskip("networkx")

SEEDS = range(300)


def _pairs(seed):
    t = random_triple(seed, 9, 12)
    return t.pair, t.sp_pair, build_g_pair(t)


def _successor_graph(bq):
    """An edge a -> g when g starts where a ends and g*a is not a relation."""
    graph = nx.DiGraph()
    arrows = bq.quiver.arrows
    graph.add_nodes_from(a for a, _, _ in arrows)
    graph.add_edges_from((a, g) for a, _, end in arrows for g, start, _ in arrows
                         if start == end and (g, a) not in bq.relations)
    return graph


def _rotations_of_least(cycle):
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def test_fd_witness_is_a_cycle_exactly_when_networkx_finds_one():
    cyclic = 0
    for seed in SEEDS:
        for bq in _pairs(seed):
            for pair in (bq, BoundQuiver(bq.quiver)):
                graph = _successor_graph(pair)
                witness = pair.walk.cycle
                assert (witness is None) == nx.is_directed_acyclic_graph(graph), seed
                if witness is not None:
                    cyclic += 1
                    assert len(set(witness)) == len(witness)
                    for a, g in zip(witness, witness[1:] + witness[:1]):
                        assert graph.has_edge(a, g), (seed, witness)
    assert cyclic > 100


def test_full_cycles_are_the_simple_cycles_of_the_relation_graph():
    found = 0
    for seed in SEEDS:
        for bq in _pairs(seed):
            relation_graph = nx.DiGraph()
            relation_graph.add_nodes_from(bq.quiver.arrow_map)
            relation_graph.add_edges_from(bq.relations)  # x -> y: y follows x in a cycle
            expected = {_rotations_of_least(c) for c in nx.simple_cycles(relation_graph)}
            assert {c.arrows for c in full_cycles(bq)} == expected, seed
            found += len(expected)
    assert found > 100
