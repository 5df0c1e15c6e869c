"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json
import time

from conftest import all_fixture_triples, fixture_path
from reference import ZERO, multiply

from skewgentle import (
    InternalInconsistency,
    SkewedGentleTriple,
    basis,
    build_g_pair,
    corner_data,
    descriptor_g,
    descriptor_gentle,
    dimension,
    dimension_oracle,
    full_cycles,
    gldim_flags,
    lift_cycles,
    parse,
    random_triple,
    serialize,
)
from skewgentle.cli import run


def _report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out, err=io.StringIO())
    return code, out.getvalue()


def _timed_descriptors(name):
    start = time.perf_counter()
    code, out = _invoke("invariants", str(fixture_path(name)), "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    return json.loads(out)["descriptors"], elapsed


def test_criterion_1_example_a2_descriptors():
    descriptors, elapsed = _timed_descriptors("fix_a2.q")
    ok = descriptors == {"gentle": [2], "sg": [2], "g": [4]} and elapsed < 0.1
    _report(1, f"fix_a2 descriptors gentle=sg={{2}}, g={{4}} in {elapsed:.3f}s", ok)


def test_criterion_2_example_b3_descriptors():
    descriptors, elapsed = _timed_descriptors("fix_b3.q")
    ok = descriptors["sg"] == [3] and descriptors["g"] == [6] and elapsed < 0.1
    _report(2, f"fix_b3 descriptors sg={{3}}, g={{6}} in {elapsed:.3f}s", ok)


def test_criterion_3_spset_exact():
    code_a, out_a = _invoke("spset", str(fixture_path("fix_a.q")))
    code_b, out_b = _invoke("spset", str(fixture_path("fix_b.q")))
    ok = (
        code_a == 0
        and out_a == "{}\n{1}\n{2}\n"
        and code_b == 0
        and out_b == "{}\n{1}\n{2}\n{3}\n{1, 2}\n{1, 3}\n{2, 3}\n"
    )
    _report(3, "spset matches the admissible subsets of fix_a and fix_b", ok)


def test_criterion_4_construction_counts():
    expected = {
        # name -> (sg vertices, arrows, zero, comm), (g vertices, arrows, relations)
        "fix_a2.q": ((3, 4, 4, 1), (3, 4, 4)),
        "fix_b3.q": ((4, 5, 4, 1), (5, 6, 6)),
    }
    ok = True
    for name, (sg_counts, g_counts) in expected.items():
        code, out = _invoke("construct", str(fixture_path(name)), "--target", "sg",
                            "--format", "json")
        payload = json.loads(out)
        got_sg = (len(payload["vertices"]), len(payload["arrows"]),
                  len(payload["zero_relations"]), len(payload["comm_relations"]))
        code2, out2 = _invoke("construct", str(fixture_path(name)), "--target", "g",
                              "--format", "json")
        payload2 = json.loads(out2)
        got_g = (len(payload2["vertices"]), len(payload2["arrows"]),
                 len(payload2["relations"]))
        ok = ok and code == 0 and code2 == 0 and got_sg == sg_counts and got_g == g_counts
    _report(4, "construct --target sg|g reproduces the vertex/arrow/relation counts", ok)


def _random_suite(count):
    return [random_triple(seed, 6, 7) for seed in range(count)]


def test_criterion_5_lift_cycle_equivalence():
    start = time.perf_counter()
    triples = all_fixture_triples() + _random_suite(200)
    mismatches = 0
    for t in triples:
        lifted = sorted(c.arrows for c in lift_cycles(t))
        direct = sorted(c.arrows for c in full_cycles(build_g_pair(t).pair))
        if lifted != direct:
            mismatches += 1
        if sorted(len(c) for c in lifted) != sorted(len(c) for c in direct):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(5, f"lifted vs direct cycles on {len(triples)} triples in {elapsed:.2f}s "
               f"({mismatches} mismatches)", ok)


def test_criterion_6_dimension_identities():
    start = time.perf_counter()
    triples = all_fixture_triples() + _random_suite(100)
    failures = 0
    checked = 0
    for t in triples:
        checked += 1
        if dimension(t, "sg") != dimension_oracle(t, "sg"):
            failures += 1
        current = t
        data = None
        for a in current.special_list:
            data = corner_data(current, a)
            if not data.identity_holds:
                failures += 1
            if data.dim_gamma != data.dim_a + data.dim_m + data.dim_n + 1:
                failures += 1
            current = SkewedGentleTriple(current.pair, current.special - {a},
                                         name=current.name)
            if dimension(current, "sg") != data.dim_gamma_prime:
                failures += 1
        if dimension(current, "sg") != dimension(t, "gentle"):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and checked >= 100 and elapsed < 30.0
    _report(6, f"dimension/oracle/corner identities on {checked} triples "
               f"in {elapsed:.2f}s ({failures} failures)", ok)


def test_criterion_7_multiplication_laws():
    failures = 0
    for t in all_fixture_triples():
        elements = basis(t)
        element_set = set(elements)
        for p in elements:
            for q in elements:
                if p.source != q.target:
                    continue
                product = multiply(t, p, q)
                if p.is_trivial or q.is_trivial:
                    continue
                junction = (p.arrows[-1], q.arrows[0])
                middle = t.pair.quiver.arrow_map[q.arrows[0]].target
                zero_junction = (middle not in t.special
                                 and junction in t.pair.relations)
                if zero_junction:
                    if product is not ZERO:
                        failures += 1
                elif (product is ZERO or product not in element_set
                      or product.length != p.length + q.length):
                    failures += 1
        for p in elements:
            if not p.is_trivial and p.source == p.target:
                if multiply(t, p, p) is not ZERO:
                    failures += 1
    _report(7, f"nonzero-junction and cyclic-square laws, exhaustive "
               f"({failures} failures)", failures == 0)


def test_criterion_8_gldim_consistency():
    triples = all_fixture_triples() + _random_suite(200)
    failures = 0
    for t in triples:
        try:
            gldim_flags(t)
        except InternalInconsistency:
            failures += 1
        if descriptor_g(t).total != 2 * descriptor_gentle(t.pair).total:
            failures += 1
    _report(8, f"gldim flags consistent and shift sums double on "
               f"{len(triples)} triples ({failures} failures)", failures == 0)


def test_criterion_9_round_trip():
    triples = all_fixture_triples() + [random_triple(seed, 6, 7) for seed in range(1000)]
    failures = 0
    for t in triples:
        text = serialize(t)
        back = parse(text)
        if back != t or serialize(back) != text:
            failures += 1
    _report(9, f"parse/serialize round trip on {len(triples)} triples "
               f"({failures} failures)", failures == 0)
