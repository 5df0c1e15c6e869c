import json
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path as FsPath

import pytest

import skewgentle

from conftest import crossing, in_star, out_star
from reference import ends, relation_free_paths

from skewgentle import (
    Arrow,
    BoundQuiver,
    DanglingEndpoint,
    DuplicateName,
    InfiniteDimensional,
    build_quiver,
    parse,
    random_triple,
)


def test_build_quiver_fix_a(fix_a):
    q = fix_a.pair.quiver
    assert q.vertices == {"1", "2"}
    assert len(q.arrows) == 2
    assert q.arrow_map["a"] == Arrow("a", "1", "2")


def test_build_quiver_single_vertex():
    q = build_quiver(["1"], [])
    assert q.vertices == {"1"} and q.arrows == ()


def test_build_quiver_reads_iterators():
    a = Arrow("a", "1", "2")
    assert build_quiver(iter(["1", "2"]), iter([a])) == build_quiver(["1", "2"], [a])


def test_build_quiver_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        build_quiver(["1", "2"], [Arrow("x", "1", "3")])


def test_build_quiver_duplicates():
    with pytest.raises(DuplicateName):
        build_quiver(["1", "1"], [])
    with pytest.raises(DuplicateName):
        build_quiver(["1"], [Arrow("a", "1", "1"), Arrow("a", "1", "1")])


def test_valency_examples(fix_a, fix_c):
    # the valency of v, a loop counted at both ends, as the generator counts it
    def valency(q, v):
        return len(q.outgoing[v]) + len(q.incoming[v])

    assert valency(fix_a.pair.quiver, "1") == 2
    assert valency(fix_c.pair.quiver, "2") == 1
    loop = build_quiver(["v"], [Arrow("l", "v", "v")])
    assert valency(loop, "v") == 2
    with pytest.raises(KeyError):
        valency(fix_a.pair.quiver, "9")


def test_finite_dimensional_fix_a(fix_a, fix_c):
    assert fix_a.pair.walk.cycle is None
    assert fix_c.pair.walk.cycle is None


def test_infinite_without_relations(fix_a):
    free = BoundQuiver(fix_a.pair.quiver, frozenset())
    witness = free.walk.cycle
    assert witness is not None
    assert set(witness) == {"a", "b"}
    # the witness really is a closed relation-free walk
    amap = free.quiver.arrow_map
    for i, name in enumerate(witness):
        follower = witness[(i + 1) % len(witness)]
        assert amap[name].target == amap[follower].source


def test_relation_free_paths_fix_a(fix_a):
    paths = relation_free_paths(fix_a.pair)
    assert {(p, ends(fix_a.pair, p)) for p in paths} == {(("a",), ("1", "2")),
                                                         (("b",), ("2", "1"))}


def test_relation_free_paths_fix_c(fix_c):
    assert len(relation_free_paths(fix_c.pair)) == 1


def test_relation_free_paths_dropped_relation(fix_a):
    smaller = BoundQuiver(fix_a.pair.quiver, frozenset({("a", "b")}))
    paths = relation_free_paths(smaller)
    assert paths == [("a",), ("b",), ("b", "a")]


def test_relation_free_paths_infinite(fix_a):
    with pytest.raises(InfiniteDimensional):
        relation_free_paths(BoundQuiver(fix_a.pair.quiver, frozenset()))


def test_path_length_bound(fix_a, fix_b):
    # no relation-free path can repeat an arrow in the finite case
    for t in (fix_a, fix_b):
        top = max(map(len, relation_free_paths(t.pair)))
        assert top < len(t.pair.quiver.arrows) + 1


_BAD_RELATIONS = """
from skewgentle import Arrow, BoundQuiver, SkewedGentleTriple, build_quiver
q = build_quiver("1234", [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                          Arrow("c", "3", "4"), Arrow("d", "4", "1")])
try:
    BoundQuiver(q, frozenset({("c", "d"), ("z", "a"), ("b", "c"), ("a", "q"), ("a", "b")}))
except Exception as e:
    print(type(e).__name__, e)
try:
    SkewedGentleTriple(BoundQuiver(q), frozenset({"x", "9", "1", "y", "10"}))
except Exception as e:
    print(type(e).__name__, e)
"""


def test_first_bad_relation_in_name_order_whatever_the_hash_seed():
    # three non-composable relations and two with an unknown arrow, then four
    # unknown special vertices: a set's iteration order follows the string
    # hash, the report must not
    src = str(FsPath(skewgentle.__file__).parents[1])
    messages = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _BAD_RELATIONS], env=env,
                              capture_output=True, text=True, check=True)
        messages.add(done.stdout)
    assert messages == {"NotComposable relation a*b is not composable: t(b) = '3' but s(a) = '1'\n"
                        "UnknownVertex special names unknown vertex '10'\n"}


_VALIDATE_JSON = """
import io, json, sys
from skewgentle.cli import run
results = []
for path in sys.argv[1:]:
    out = io.StringIO()
    results.append((run(["validate", path, "--json"], out=out, err=io.StringIO()), out.getvalue()))
print(json.dumps(results))
"""


def test_witnesses_in_name_order_whatever_the_hash_seed(tmp_path):
    # the relation index is built from the relation set as it iterates, in
    # the order of the string hash; the witnesses must come out the same
    golden_dir = FsPath(__file__).parent / "golden"
    golden = json.loads((golden_dir / "bad_g1.json").read_text(encoding="utf-8"))
    expected = [golden["validate FILE --json"]["exit"], golden["validate FILE --json"]["stdout"]]
    wide = tmp_path / "wide.q"
    wide.write_text(crossing(12), encoding="utf-8")  # 12 relation partners on each side
    src = str(FsPath(skewgentle.__file__).parents[1])
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _VALIDATE_JSON, str(golden_dir / "bad_g1.q"), str(wide)],
            env=env, capture_output=True, text=True, check=True)
        bad_g1, wide_result = json.loads(done.stdout)
        assert bad_g1 == expected, seed
        outputs.add(tuple(wide_result))
    [(code, stdout)] = outputs
    assert code == 1
    g1 = [v["items"] for v in json.loads(stdout)["violations"] if v["rule"] == "G1"]
    assert g1 == [["m", *sorted(f"y{i}" for i in range(12))],
                  ["m", *sorted(f"z{i}" for i in range(12))]]


def _index_cases():
    yield from (random_triple(seed, 8, 11).pair for seed in range(100))
    for text in (in_star(7), out_star(7), crossing(12),
                 "quiver X { vertices: 1; arrows: x: 1 -> 1; relations: x*x; }"):
        yield parse(text).pair


def test_indexes_are_sorted_filters_of_arrows_and_relations():
    name = attrgetter("name")
    for bq in _index_cases():
        q, rels = bq.quiver, bq.relations
        assert q.outgoing == {v: tuple(sorted([a for a in q.arrows if a.source == v], key=name))
                              for v in q.vertices}
        assert q.incoming == {v: tuple(sorted([a for a in q.arrows if a.target == v], key=name))
                              for v in q.vertices}
        assert bq.relations_before == {a.name: tuple(sorted([y for x, y in rels if x == a.name]))
                                       for a in q.arrows}
        assert bq.relations_after == {a.name: tuple(sorted([x for x, y in rels if y == a.name]))
                                      for a in q.arrows}
