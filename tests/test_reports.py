import io
import json
import random

import pytest

from pathlib import Path

from conftest import FIXTURES, fixture_path
from reference import build_g_pair, construction_payload

from skewgentle import (
    Arrow,
    BoundQuiver,
    SkewedGentleTriple,
    admissible_special_sets,
    build_g_presentation,
    build_invariant_report,
    build_quiver,
    build_sg_presentation,
    corner_data,
    descriptor_gentle,
    descriptor_pretty,
    parse,
    random_triple,
    report_json,
    serialize,
    to_dot,
    validate_skewed_gentle,
)
from skewgentle.cli import run
from skewgentle.reports import _dot_quote, report_text
from skewgentle.reports import _json


def _node_and_edge_lines(dot):
    nodes = [l for l in dot.splitlines() if l.endswith(";") and "->" not in l and l != "}"]
    edges = [l for l in dot.splitlines() if "->" in l]
    return nodes, edges


def test_to_dot_quiver(fix_a):
    dot = to_dot(BoundQuiver(fix_a.pair.quiver), name="A")
    nodes, edges = _node_and_edge_lines(dot)
    assert dot.startswith('digraph "A" {')
    assert len(nodes) == 2 and len(edges) == 2
    assert '  "1" -> "2" [label="a"];' in dot


def test_to_dot_triple_marks_special(fix_a2):
    # no command draws a triple: its special vertex is drawn doubled in Q^g,
    # where it alone stays unsigned, and plain in Q^sp, which holds its loop
    assert '"2" [shape=doublecircle];' in to_dot(fix_a2.g_presentation)
    sp = to_dot(fix_a2.sp_pair)
    assert "doublecircle" not in sp and "// zero: sp_2*sp_2" in sp
    with pytest.raises(TypeError, match="cannot render SkewedGentleTriple"):
        to_dot(fix_a2)


def test_to_dot_sg_presentation(fix_a2):
    dot = to_dot(build_sg_presentation(fix_a2), name="A_sg")
    nodes, edges = _node_and_edge_lines(dot)
    assert len(nodes) == 3 and len(edges) == 4
    assert sum("doublecircle" in n for n in nodes) == 2
    assert "// comm: b@2+@1*a@1@2+ = b@2-@1*a@1@2-" in dot


def test_to_dot_g_pair(fix_a2):
    dot = to_dot(build_g_presentation(fix_a2), name="A_g")
    nodes, edges = _node_and_edge_lines(dot)
    assert len(nodes) == 3 and len(edges) == 4
    assert '"2" [shape=doublecircle];' in dot


def test_to_dot_g_pair_doubles_exactly_the_special_vertices():
    # Q^g splits every ordinary vertex into v+ and v-, so its unsigned
    # vertices, the ones DOT doubles, are the special vertices themselves
    for seed in range(60):
        pair = random_triple(seed, 8, 11).pair
        for special in admissible_special_sets(pair)[:4]:
            t = SkewedGentleTriple(pair, frozenset(special))
            nodes, _ = _node_and_edge_lines(to_dot(t.g_presentation))
            doubled = {n.split('"')[1] for n in nodes if "doublecircle" in n}
            assert doubled == set(special), (seed, special)


def test_to_dot_no_arrows():
    q = build_quiver(["1", "2"], [])
    nodes, edges = _node_and_edge_lines(to_dot(BoundQuiver(q)))
    assert len(nodes) == 2 and not edges


def test_report_json_descriptors_fix_a2(fix_a2):
    payload = json.loads(report_json(build_invariant_report(fix_a2)))
    assert payload["descriptors"] == {"g": [4], "gentle": [2], "sg": [2]}
    assert payload["gldim_finite"] == {"g": False, "gentle": False, "sg": False}
    assert payload["valid"] is True
    assert payload["cycles"] == [{"arrows": ["a", "b"], "length": 2, "parity": "odd"}]
    assert "dims" not in payload


def test_report_json_descriptors_fix_b3(fix_b3):
    payload = json.loads(report_json(build_invariant_report(fix_b3, with_dims=True)))
    assert payload["descriptors"] == {"g": [6], "gentle": [3], "sg": [3]}
    assert payload["dims"] == {"g": 13, "gentle": 6, "sg": 10}


def test_report_json_empty_descriptor(fix_c1):
    payload = json.loads(report_json(build_invariant_report(fix_c1)))
    assert payload["descriptors"] == {"g": [], "gentle": [], "sg": []}
    assert payload["gldim_finite"] == {"g": True, "gentle": True, "sg": True}


def test_report_json_validation(fix_a):
    bad = SkewedGentleTriple(fix_a.pair, frozenset({"1", "2"}), name="A")
    payload = json.loads(report_json(validate_skewed_gentle(bad), name="A"))
    assert payload["valid"] is False
    assert payload["flags"]["gentle"] is True
    assert any(v["rule"] == "FD" for v in payload["violations"])


def test_report_json_corner(fix_a2):
    payload = json.loads(report_json(corner_data(fix_a2, "2"), name="A"))
    assert payload["vertex"] == "2"
    assert payload["dims"] == {
        "A": 5, "M": 1, "M_prime": 1, "N": 1, "N_prime": 1,
        "gamma": 8, "gamma_prime": 4, "im_phi": 1,
    }
    assert payload["t1_basis"] == [{"arrows": ["b"], "source": "2-", "target": "1"}]


def test_report_json_byte_identical(fix_b3):
    first = report_json(build_invariant_report(fix_b3))
    second = report_json(build_invariant_report(fix_b3))
    assert first == second


def test_descriptor_pretty(fix_a2, fix_c1):
    assert descriptor_pretty(descriptor_gentle(fix_a2.pair)) == "D^b(k)/[2] (S_2-stable)"
    assert descriptor_pretty(descriptor_gentle(fix_c1.pair)) == "trivial (no factors)"


def test_to_dot_bound_quiver(fix_b):
    dot = to_dot(BoundQuiver(fix_b.pair.quiver, fix_b.pair.relations), name="B")
    assert "// zero: a*g" in dot
    assert dot == to_dot(BoundQuiver(fix_b.pair.quiver, fix_b.pair.relations), name="B")


def _assert_constructions_written_as_the_reference(t):
    """Q^sp, and Q^sg and Q^g when the triple is valid, as JSON: what the
    stdlib writes for the reference payload, under the default name and a
    given one.  Q^g's text and DOT are those of the reference pair, its
    DOT with the special vertices drawn doubled."""
    built = [t.sp_pair]
    if t.validation.skewed_gentle:
        built += [t.sg_presentation, t.g_presentation]
    for x in built:
        for name in (None, 'n%s"\\\u00e9'):
            expected = json.dumps(construction_payload(x, name or "Q"), sort_keys=True, indent=2)
            assert report_json(x, name) == expected + "\n", (t, type(x).__name__, name)
    if t.validation.skewed_gentle:
        g, pair = t.g_presentation, build_g_pair(t)
        assert _written(report_text, g, "G") == _written(
            lambda p, name: serialize(SkewedGentleTriple(p, frozenset(), name)) + "\n", pair, "G")
        dot, plain = to_dot(g, "G"), to_dot(pair, "G")
        assert dot.count("doublecircle") == len(t.special)
        assert all(f"  {_dot_quote(v)} [shape=doublecircle];" in dot for v in t.special)
        assert dot.replace(" [shape=doublecircle]", "") == plain


def _written(render, x, name):
    """What ``render`` writes for ``x``, or the error it raises."""
    try:
        return render(x, name)
    except ValueError as e:
        return type(e), str(e)


_INPUTS = sorted([*FIXTURES.glob("*.q"), *(Path(__file__).parent / "golden").glob("*.q")])


@pytest.mark.parametrize("path", _INPUTS, ids=[p.stem for p in _INPUTS])
def test_constructions_json_matches_the_reference_on_every_input(path):
    _assert_constructions_written_as_the_reference(parse(path.read_text(encoding="utf-8")))


def test_constructions_json_matches_the_reference_on_generated_triples():
    valid = 0
    for seed in range(300):
        pair = random_triple(seed, 8, 11).pair
        for special in admissible_special_sets(pair)[:3]:
            t = SkewedGentleTriple(pair, frozenset(special))
            _assert_constructions_written_as_the_reference(t)
            valid += 1
    assert valid > 600


def _odd_pairs():
    """Pairs built through the library with names the DSL cannot write: a
    template's ``%`` and ``%s``, JSON escapes, control and non-ASCII
    characters; one with no relation and one with no arrow."""
    p, q, r = "%s", 'q"\\\u00e9', "\U0001f600\n%(x)s"
    x, y, z = "%", '\\"\x00', "\u2603%%"
    cycle = build_quiver([p, q], [Arrow(x, p, q), Arrow(y, q, p)])
    line = build_quiver([p, q, r], [Arrow(x, p, q), Arrow(z, q, r)])
    return [BoundQuiver(cycle, frozenset({(x, y), (y, x)})), BoundQuiver(line),
            BoundQuiver(build_quiver([p, q, r], []))]


@pytest.mark.parametrize("pair", _odd_pairs(), ids=["cycle", "no-relation", "no-arrow"])
def test_constructions_json_matches_the_reference_on_names_the_dsl_cannot_write(pair):
    sets = admissible_special_sets(pair)
    assert len(sets) > 1
    for special in sets:
        _assert_constructions_written_as_the_reference(SkewedGentleTriple(pair, frozenset(special)))
    assert report_json(pair) == json.dumps(construction_payload(pair), sort_keys=True,
                                           indent=2) + "\n"


# Pieces of strings: ASCII, non-ASCII (one outside the BMP), control
# characters, the JSON escapes and the characters of a % template.
_PIECES = ("a", "b7", " ", "\u00e9", "\u2603", "\U0001f600", "\n", "\x00", "\x1f", "\x7f",
           '"', "\\", "%", "%s", "%%", "%(x)s")
_SCALARS = (0, 1, -1, 2 ** 70, -(10 ** 30), True, False, None)


def _string(rng):
    return "".join(rng.choice(_PIECES) for _ in range(rng.randrange(4)))


def _keys(rng, count):
    return list(dict.fromkeys(_string(rng) for _ in range(count)))


def _rows(rng, depth):
    """A list of dicts with one key set and str values, at times with one
    value swapped for a non-str or one row's key set changed."""
    keys = _keys(rng, rng.randint(1, 4))
    rows = [{k: _string(rng) for k in keys} for _ in range(rng.randint(1, 5))]
    row, key = rng.choice(rows), rng.choice(keys)
    change = rng.randrange(4)
    if change == 1:
        row[key] = rng.choice((*_SCALARS, [], [_string(rng)], _value(rng, depth + 1)))
    elif change == 2:
        row[_string(rng) + "+"] = _string(rng)
    elif change == 3 and len(keys) > 1:
        del row[key]
    return rows


def _value(rng, depth=0):
    kind = rng.randrange(8 if depth < 3 else 2)
    if kind == 0:
        return _string(rng)
    if kind == 1:
        return rng.choice(_SCALARS)
    if kind == 2:
        return {k: _value(rng, depth + 1) for k in _keys(rng, rng.randrange(4))}
    if kind == 3:
        return {_string(rng): _value(rng, depth + 1)}
    if kind == 4:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randrange(3)))
    if kind == 6:
        return [{}] * rng.randrange(3)
    return _rows(rng, depth)


def test_json_matches_the_stdlib_encoder():
    for seed in range(400):
        value = _value(random.Random(seed))
        assert _json(value, "") == json.dumps(value, sort_keys=True, indent=2), seed


@pytest.mark.parametrize("value", [
    [{"a%s": "x", "%": "y"}, {"a%s": "z", "%": "w"}],  # keys read as templates
    [{"k": "x", "j": "y"}, {"k": "x", "j": "y", "i": "z"}],  # a row with a key more
    [{"k": "x", "j": "y"}, {"k": "x", "i": "y"}],  # two key sets of one size
    [{"k": "x"}, {"k": 1}], [{"k": "x"}, {"k": None}], [{"k": True}, {"k": "x"}],
    [{"k": "x", "j": ["y"]}], [{"k": {"j": "y"}}], [{}, {}], [{"k": "x"}, ["k"]],
])
def test_json_rows_fall_back_where_they_differ(value):
    assert _json(value, "") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    1.5, {"a": [0.0]}, {"a"}, {1: "a"}, [{1: "a"}, {1: "b"}], {"a": {None: 1}}, object(),
    [{"k": 1.0}],
])
def test_json_refuses_what_has_no_fixed_form(value):
    with pytest.raises(TypeError):
        _json(value, "")


@pytest.mark.parametrize("argv", [
    ["construct", "FILE", "--target", "sg", "--format", "json"],
    ["construct", "FILE", "--target", "g", "--format", "json"],
    ["invariants", "FILE", "--dims", "--json"],
])
def test_json_output_runs_no_python_encoder(monkeypatch, argv):
    made = []
    monkeypatch.setattr(json.encoder, "_make_iterencode", lambda *args: made.append(args))
    out = io.StringIO()
    argv = [str(fixture_path("fix_a2.q")) if a == "FILE" else a for a in argv]

    assert run(argv, out=out, err=io.StringIO()) == 0

    assert made == []
    assert json.loads(out.getvalue())["name"].startswith("A")


def test_relation_texts_sort_as_their_name_pairs():
    # the renderers sort Q^sg's zero relations and Q^g's relations by their
    # text: on identifiers, and on the names lifted from them, "*" sorts
    # below every name character, so the order is that of the name pairs
    from itertools import starmap

    from skewgentle.quiver import relation_text

    lists = 0
    for seed in range(300):
        t = random_triple(seed, 8, 11)
        for pairs in (t.sg_presentation.zero_relations, t.g_presentation.relations.items()):
            assert (sorted(starmap(relation_text, pairs))
                    == list(starmap(relation_text, sorted(pairs)))), seed
            lists += len(pairs) > 1
    # names that are prefixes of others, and lifted names ending in + and -
    text = ("quiver P { vertices: 1, 2, 3; arrows: a: 1 -> 2, ab: 1 -> 2,"
            " b: 2 -> 3, b_: 2 -> 3; relations: b*a, b_*ab; }")
    t = parse(text)
    for pairs in (t.sg_presentation.zero_relations, t.g_presentation.relations.items()):
        assert sorted(starmap(relation_text, pairs)) == list(starmap(relation_text, sorted(pairs)))
    assert lists > 300, lists
