import json
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path as FsPath

import pytest

import skewgentle

from conftest import crossing, in_star, out_star

from skewgentle import (
    Arrow,
    BoundQuiver,
    DanglingEndpoint,
    DuplicateName,
    InfiniteDimensional,
    NotComposable,
    Path,
    UnknownVertex,
    build_quiver,
    compose,
    finite_dimensional_witness,
    is_finite_dimensional,
    parse,
    random_triple,
    relation_free_paths,
    valency,
)


def path_names(p):
    return tuple(a.name for a in p.arrows)


def test_build_quiver_fix_a(fix_a):
    q = fix_a.pair.quiver
    assert q.vertices == {"1", "2"}
    assert len(q.arrows) == 2
    assert q.arrow_map["a"] == Arrow("a", "1", "2")


def test_build_quiver_single_vertex():
    q = build_quiver(["1"], [])
    assert q.vertices == {"1"} and q.arrows == ()


def test_build_quiver_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        build_quiver(["1", "2"], [Arrow("x", "1", "3")])


def test_build_quiver_duplicates():
    with pytest.raises(DuplicateName):
        build_quiver(["1", "1"], [])
    with pytest.raises(DuplicateName):
        build_quiver(["1"], [Arrow("a", "1", "1"), Arrow("a", "1", "1")])


def test_compose_fix_a(fix_a):
    amap = fix_a.pair.quiver.arrow_map
    a, b = Path.of([amap["a"]]), Path.of([amap["b"]])
    ab = compose(a, b)
    assert path_names(ab) == ("a", "b")
    assert ab.length == 2 and ab.source == "2" and ab.target == "2"


def test_compose_identities(fix_a):
    amap = fix_a.pair.quiver.arrow_map
    a = Path.of([amap["a"]])
    assert compose(Path.trivial("2"), a) == a
    assert compose(a, Path.trivial("1")) == a


def test_compose_not_composable(fix_a):
    amap = fix_a.pair.quiver.arrow_map
    a = Path.of([amap["a"]])
    with pytest.raises(NotComposable):
        compose(a, a)


def test_compose_associative_and_additive(fix_b):
    amap = fix_b.pair.quiver.arrow_map
    a, b, g = (Path.of([amap[n]]) for n in "abg")
    left = compose(compose(g, b), a)
    right = compose(g, compose(b, a))
    assert left == right
    assert left.length == 3 and left.source == "1" and left.target == "1"


def test_valency_examples(fix_a, fix_c):
    assert valency(fix_a.pair.quiver, "1") == 2
    assert valency(fix_c.pair.quiver, "2") == 1
    loop = build_quiver(["v"], [Arrow("l", "v", "v")])
    assert valency(loop, "v") == 2
    with pytest.raises(UnknownVertex):
        valency(fix_a.pair.quiver, "9")


def test_finite_dimensional_fix_a(fix_a, fix_c):
    assert is_finite_dimensional(fix_a.pair)
    assert is_finite_dimensional(fix_c.pair)


def test_infinite_without_relations(fix_a):
    free = BoundQuiver(fix_a.pair.quiver, frozenset())
    witness = finite_dimensional_witness(free)
    assert witness is not None
    assert set(witness) == {"a", "b"}
    # the witness really is a closed relation-free walk
    amap = free.quiver.arrow_map
    for i, name in enumerate(witness):
        follower = witness[(i + 1) % len(witness)]
        assert amap[name].target == amap[follower].source


def test_relation_free_paths_fix_a(fix_a):
    paths = relation_free_paths(fix_a.pair)
    assert len(paths) == 4
    labels = {(path_names(p), p.source) for p in paths}
    assert labels == {((), "1"), ((), "2"), (("a",), "1"), (("b",), "2")}


def test_relation_free_paths_fix_c(fix_c):
    assert len(relation_free_paths(fix_c.pair)) == 3


def test_relation_free_paths_dropped_relation(fix_a):
    smaller = BoundQuiver(fix_a.pair.quiver, frozenset({("a", "b")}))
    paths = relation_free_paths(smaller)
    assert len(paths) == 5
    assert ("b", "a") in {path_names(p) for p in paths}


def test_relation_free_paths_infinite(fix_a):
    with pytest.raises(InfiniteDimensional):
        relation_free_paths(BoundQuiver(fix_a.pair.quiver, frozenset()))


def test_path_length_bound(fix_a, fix_b):
    # no relation-free path can repeat an arrow in the finite case
    for t in (fix_a, fix_b):
        top = max(p.length for p in relation_free_paths(t.pair))
        assert top < len(t.pair.quiver.arrows) + 1


_BAD_RELATIONS = """
from skewgentle import Arrow, BoundQuiver, build_quiver
q = build_quiver("1234", [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                          Arrow("c", "3", "4"), Arrow("d", "4", "1")])
try:
    BoundQuiver(q, frozenset({("c", "d"), ("z", "a"), ("b", "c"), ("a", "q"), ("a", "b")}))
except Exception as e:
    print(type(e).__name__, e)
"""


def test_first_bad_relation_in_name_order_whatever_the_hash_seed():
    # three non-composable relations and two with an unknown arrow: a set's
    # iteration order follows the string hash, the report must not
    src = str(FsPath(skewgentle.__file__).parents[1])
    messages = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _BAD_RELATIONS], env=env,
                              capture_output=True, text=True, check=True)
        messages.add(done.stdout)
    assert messages == {"NotComposable relation a*b is not a composable 2-path\n"}


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
