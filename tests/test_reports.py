import json

from skewgentle import (
    BoundQuiver,
    SkewedGentleTriple,
    build_g_pair,
    build_invariant_report,
    build_quiver,
    build_sg_presentation,
    corner_data,
    descriptor_gentle,
    descriptor_pretty,
    report_json,
    to_dot,
    validate_skewed_gentle,
)


def _node_and_edge_lines(dot):
    nodes = [l for l in dot.splitlines() if l.endswith(";") and "->" not in l and l != "}"]
    edges = [l for l in dot.splitlines() if "->" in l]
    return nodes, edges


def test_to_dot_quiver(fix_a):
    dot = to_dot(fix_a.pair.quiver, name="A")
    nodes, edges = _node_and_edge_lines(dot)
    assert dot.startswith('digraph "A" {')
    assert len(nodes) == 2 and len(edges) == 2
    assert '  "1" -> "2" [label="a"];' in dot


def test_to_dot_triple_marks_special(fix_a2):
    dot = to_dot(fix_a2)
    assert '"2" [shape=doublecircle];' in dot
    assert "// zero: a*b" in dot


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


def test_to_dot_no_arrows():
    q = build_quiver(["1", "2"], [])
    nodes, edges = _node_and_edge_lines(to_dot(q))
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
