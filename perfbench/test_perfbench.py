"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import io
import json
import shutil
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from reference import Spec  # noqa: E402


def cycle(n, special):
    vs = tuple(f"v{i}" for i in range(n))
    arrows = tuple((f"a{i}", vs[i], vs[(i + 1) % n]) for i in range(n))
    relations = frozenset((f"a{(i + 1) % n}", f"a{i}") for i in range(n))
    return Spec(f"C{n}", vs, arrows, relations, frozenset(f"v{i}" for i in special))


def line(n):
    vs = tuple(f"v{i}" for i in range(n))
    return Spec(f"A{n}", vs, tuple((f"a{i}", vs[i], vs[i + 1]) for i in range(n - 1)),
                frozenset())


def test_a3_by_hand():
    # 3 trivial paths, 2 arrows, 1 path of length 2; Q^g is two copies of A_3
    forms = reference.line_forms(3)
    assert forms["dims"] == {"gentle": 6, "sg": 6, "g": 12}
    assert reference.dims(line(3)) == forms["dims"]
    assert reference.cycles(line(3)) == []


def test_c4_one_special_by_hand():
    forms = reference.cycle_forms(4, 4)
    # sg: 5 trivial paths (v0 split in two), 6 signed arrows (the two arrows at
    # v0 lift twice), and 1 path through v0
    assert forms["dims"]["sg"] == 5 + 6 + 1 == 12
    assert forms["descriptors"] == {"gentle": [4], "sg": [4], "g": [8]}  # one special: odd
    spec = cycle(4, [0])
    assert reference.dims(spec) == forms["dims"]
    assert reference.descriptors(reference.cycles(spec)) == forms["descriptors"]
    assert reference.corner(spec, "v0") == forms["corner"]


@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 2), (12, 4), (15, 3), (20, 5)])
def test_cycle_forms_match_the_model(n, k):
    spec = cycle(n, range(1, n, k))
    forms = reference.cycle_forms(n, k)
    assert reference.dims(spec) == forms["dims"]
    found = reference.cycles(spec)
    assert [(c["length"], c["parity"]) for c in found] == [(n, forms["parity"])]
    assert reference.descriptors(found) == forms["descriptors"]
    assert reference.base_flags(spec)["skewed_gentle"]
    assert reference.corner(spec, "v1") == forms["corner"]
    sg = reference.sg_json(spec)
    assert len(sg["zero_relations"]) == forms["sg_counts"]["zero"]
    assert len(sg["arrows"]) == forms["sg_counts"]["arrows"]


@pytest.mark.parametrize("n", [1, 2, 5, 11])
def test_line_forms_match_the_model(n):
    assert reference.dims(line(n)) == reference.line_forms(n)["dims"]


def test_the_oracle_cap_counts_every_walk():
    # A_190 under sg: 190 trivial paths plus 189 + 188 + ... + 1 walks
    assert reference.sg_oracle(line(190)) == (18145, False)
    paths, capped = reference.sg_oracle(line(201))
    assert capped and paths > reference.DEFAULT_ORACLE_CAP


def test_self_times_subtract_covered_child_time():
    tree = spans.Spans.of([
        ("root", -1, 0, 100),
        ("a", 0, 10, 40),
        ("b", 0, 50, 90),
        ("c", 2, 60, 70),
        ("d", 2, 65, 80),  # overlaps c: only the union counts
        ("e", 0, 95, 120),  # runs past its parent: clipped
    ])
    assert spans.self_times(tree) == [100 - 30 - 40 - 5, 30, 40 - 20, 10, 15, 25]


def _inputs(seed, where):
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    inputs = run.make_inputs("corpus", seed, run.import_package())
    _, _, problems = run.set_up("corpus", inputs, where)
    assert not problems
    return {item.file: (where / item.file).read_bytes() for item in inputs}


def test_same_seed_same_input_files():
    base = run.WORK / "tests"
    try:
        first = _inputs(7, base / "first")
        assert first == _inputs(7, base / "second")
        assert first != _inputs(8, base / "other")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_tracing_counts_repeated_validation_and_restores():
    pkg = run.import_package()
    path = run.WORK / "tests" / "c4.q"
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        triple = run.to_triple(pkg, cycle(4, [0]))
        path.write_text(pkg.serialize(triple), encoding="utf-8")
        original = pkg.validate.validate_skewed_gentle
        recorder = spans.Recorder()
        with spans.installed(pkg, recorder):
            assert pkg.cli.run(["invariants", str(path), "--dims"], io.StringIO(),
                               io.StringIO()) == 0
        assert pkg.validate.validate_skewed_gentle is original
        totals = spans.LayerTotals(run.oracle_model)
        totals.add_command("invariants", recorder.take())
        metrics = totals.metrics()
        assert metrics["validate.calls"] > 1
        assert metrics["validate.unique_ratio"] == 1 / metrics["validate.calls"]
        assert metrics["algebra.oracle_paths"] == reference.sg_oracle(cycle(4, [0]))[0]
    finally:
        shutil.rmtree(path.parent, ignore_errors=True)


def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_every_pass_times_at_least_100_commands():
    # op_p90_ms is taken over the commands of one pass: keep ten beyond it
    for workload in run.WORKLOADS:
        inputs = run.make_inputs(workload, 1, run.import_package())
        assert len(run.make_commands(workload, 1, inputs, run.WORK)) >= 100


def test_a_broken_round_trip_fails_the_run(monkeypatch, capsys):
    pkg = run.import_package()
    broken = types.SimpleNamespace(**vars(pkg))
    broken.parse = lambda text: None
    make_commands = run.make_commands
    monkeypatch.setattr(run, "import_package", lambda: broken)
    monkeypatch.setattr(run, "make_commands", lambda *args: make_commands(*args)[:3])
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "pycache_prefix", sys.pycache_prefix)
    try:
        assert run.main(["--workload", "pathline", "--seed", "99", "--seconds", "1",
                         "--trace", "0"]) == 1
    finally:
        (run.WORK / "pathline-seed99-trace0.json").unlink(missing_ok=True)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 0  # every command was right: only the round trip failed


def test_calibration_scales_to_the_reference_speed():
    ref = run.CAL_REF_MS * 1e6
    assert run.speed_scale(ref, ref) == 1.0
    assert run.speed_scale(1.5 * ref, 1.5 * ref) == pytest.approx(1 / 1.5)
    assert run.speed_scale(ref, 2 * ref) == pytest.approx(2 / 3)
