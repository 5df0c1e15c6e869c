import io
import json
import random

import pytest

from conftest import fixture_path

from skewgentle import (
    BoundQuiver,
    SkewedGentleTriple,
    admissible_special_sets,
    build_g_pair,
    build_invariant_report,
    build_quiver,
    build_sg_presentation,
    corner_data,
    descriptor_gentle,
    descriptor_pretty,
    random_triple,
    report_json,
    to_dot,
    validate_skewed_gentle,
)
from skewgentle.cli import run
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
    assert '"2" [shape=doublecircle];' in to_dot(fix_a2.g_pair)
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
    dot = to_dot(build_g_pair(fix_a2), name="A_g")
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
            nodes, _ = _node_and_edge_lines(to_dot(t.g_pair))
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
