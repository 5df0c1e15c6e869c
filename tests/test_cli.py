import gc
import io
import json
import subprocess
import sys
import tracemalloc

import pytest

from conftest import (fixture_path, free_line, full_relation_cycle, in_star, out_star,
                      special_line_text)
from reference import build_g_pair

from skewgentle import SkewedGentleTriple, parse, serialize
from skewgentle.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_validate_ok(fix_a2):
    code, out, err = invoke("validate", str(fixture_path("fix_a2.q")))
    assert code == 0
    assert "skewed_gentle=yes" in out
    assert err == ""


def test_validate_invalid_exit_one(tmp_path):
    bad = tmp_path / "bad.q"
    bad.write_text(
        "quiver A { vertices: 1, 2; special: 1, 2; "
        "arrows: a: 1 -> 2, b: 2 -> 1; relations: a*b, b*a; }"
    )
    code, out, _ = invoke("validate", str(bad))
    assert code == 1
    assert "violation FD" in out


def test_validate_violation_rules(tmp_path):
    # both compositions at the branching vertex in relations: G1 territory
    bad = tmp_path / "g1.q"
    bad.write_text(
        "quiver D { vertices: 1, 2, 3, 4, 5; "
        "arrows: al: 5 -> 2, b1: 2 -> 3, b2: 2 -> 4, g1: 3 -> 1, g2: 4 -> 1; "
        "relations: g1*b1, g2*b2, b1*al, b2*al; }"
    )
    code, out, _ = invoke("validate", str(bad))
    assert code == 1
    assert "violation G1: al" in out
    # neither composition in relations: SB2 territory
    bad.write_text(
        "quiver D { vertices: 1, 2, 3, 4, 5; "
        "arrows: al: 5 -> 2, b1: 2 -> 3, b2: 2 -> 4, g1: 3 -> 1, g2: 4 -> 1; "
        "relations: g1*b1, g2*b2; }"
    )
    code, out, _ = invoke("validate", str(bad))
    assert code == 1
    assert "violation SB2: al" in out


def test_validate_json(fix_a2):
    code, out, _ = invoke("validate", str(fixture_path("fix_a2.q")), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "A" and payload["valid"] is True


def test_invariants_text(fix_a2):
    code, out, _ = invoke("invariants", str(fixture_path("fix_a2.q")))
    assert code == 0
    assert "cycle: [a, b] length=2 parity=odd" in out
    assert "descriptor gentle: {2}" in out
    assert "descriptor sg: {2}" in out
    assert "descriptor g: {4}" in out
    assert "gldim_finite: g=no gentle=no sg=no" in out


def test_invariants_dims_json():
    code, out, _ = invoke("invariants", str(fixture_path("fix_b3.q")), "--json", "--dims")
    assert code == 0
    payload = json.loads(out)
    assert payload["descriptors"] == {"g": [6], "gentle": [3], "sg": [3]}
    assert payload["dims"] == {"g": 13, "gentle": 6, "sg": 10}


def test_invariants_invalid_exit_one(tmp_path):
    bad = tmp_path / "bad.q"
    bad.write_text(
        "quiver A { vertices: 1, 2; special: 1, 2; "
        "arrows: a: 1 -> 2, b: 2 -> 1; relations: a*b, b*a; }"
    )
    code, out, _ = invoke("invariants", str(bad))
    assert code == 1


def test_invariants_byte_identical():
    first = invoke("invariants", str(fixture_path("fix_b3.q")), "--json", "--dims")
    second = invoke("invariants", str(fixture_path("fix_b3.q")), "--json", "--dims")
    assert first == second


def test_construct_sg_json_counts():
    code, out, _ = invoke(
        "construct", str(fixture_path("fix_a2.q")), "--target", "sg", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 3
    assert len(payload["arrows"]) == 4
    assert len(payload["zero_relations"]) == 4
    assert len(payload["comm_relations"]) == 1


def test_construct_g_text_is_dsl():
    code, out, _ = invoke(
        "construct", str(fixture_path("fix_a2.q")), "--target", "g", "--format", "text"
    )
    assert code == 0
    assert out == (
        "quiver A_g { vertices: 1+, 1-, 2; special: ; "
        "arrows: a+: 1+ -> 2, a-: 1- -> 2, b+: 2 -> 1+, b-: 2 -> 1-; "
        "relations: a+*b+, a-*b-, b+*a-, b-*a+; }\n"
    )


def test_construct_sp_text():
    code, out, _ = invoke(
        "construct", str(fixture_path("fix_b3.q")), "--target", "sp", "--format", "text"
    )
    assert code == 0
    assert "sp_3: 3 -> 3" in out
    assert "sp_3*sp_3" in out


def test_construct_dot():
    code, out, _ = invoke(
        "construct", str(fixture_path("fix_a2.q")), "--target", "sg", "--format", "dot"
    )
    assert code == 0
    assert out.startswith('digraph "A_sg" {')


def test_dim_with_oracle():
    code, out, _ = invoke("dim", str(fixture_path("fix_a2.q")), "--algebra", "sg", "--oracle")
    assert code == 0
    assert out == "8\noracle: 8\n"


def test_reduce_text():
    code, out, _ = invoke("reduce", str(fixture_path("fix_a2.q")), "--vertex", "2")
    assert code == 0
    assert "dim gamma: 8" in out
    assert "identity: holds" in out


def test_reduce_json():
    code, out, _ = invoke("reduce", str(fixture_path("fix_c1.q")), "--vertex", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"]["gamma"] == 5 and payload["identity_holds"] is True


def test_reduce_not_special_exit_one():
    code, _, err = invoke("reduce", str(fixture_path("fix_a2.q")), "--vertex", "1")
    assert code == 1
    assert "not special" in err


def test_spset_fix_a():
    code, out, _ = invoke("spset", str(fixture_path("fix_a.q")))
    assert code == 0
    assert out == "{}\n{1}\n{2}\n"


def test_spset_fix_b():
    code, out, _ = invoke("spset", str(fixture_path("fix_b.q")))
    assert code == 0
    assert out == "{}\n{1}\n{2}\n{3}\n{1, 2}\n{1, 3}\n{2, 3}\n"


def test_spset_many_disjoint_two_cycles(tmp_path):
    # 48 vertices of valency 2, no set but {} admissible: b_i*a_i is zero, so
    # v_i takes a loop only locally, and b_i -> a_i -> loop -> b_i is a cycle
    k = 24
    vertices = ", ".join(f"w{i}, v{i}" for i in range(k))
    arrows = ", ".join(f"a{i}: w{i} -> v{i}, b{i}: v{i} -> w{i}" for i in range(k))
    relations = ", ".join(f"b{i}*a{i}" for i in range(k))
    path = tmp_path / "two_cycles.q"
    path.write_text(f"quiver T {{ vertices: {vertices}; arrows: {arrows}; "
                    f"relations: {relations}; }}")
    assert invoke("spset", str(path)) == (0, "{}\n", "")


def test_parse_error_exit_two(tmp_path):
    broken = tmp_path / "broken.q"
    broken.write_text("quiver A { vertices 1; }")
    code, _, err = invoke("validate", str(broken))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_two():
    code, _, err = invoke("validate", "/no/such/file.q")
    assert code == 2


def _many_isolated(tmp_path):
    # 16 isolated vertices: every one of the 65536 subsets is admissible
    path = tmp_path / "many.q"
    path.write_text("quiver M { vertices: " + ", ".join(map(str, range(16))) + "; }")
    return path


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_failed_write_is_not_a_failed_read(tmp_path):
    err = io.StringIO()
    assert run(["spset", str(_many_isolated(tmp_path))], out=_ClosedPipe(), err=err) == 1
    assert err.getvalue() == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_closed_stdout_gives_one_diagnostic_line(tmp_path):
    # `skewgentle spset many.q | head -1`: the interpreter's own exit flush
    # must not add a second report of the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "skewgentle", "spset",
                             str(_many_isolated(tmp_path))],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{}\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b"error: cannot write output: [Errno 32] Broken pipe\n"


def test_oracle_cap_exit_three(monkeypatch):
    monkeypatch.setenv("QSG_ORACLE_CAP", "2")
    code, _, err = invoke("dim", str(fixture_path("fix_a2.q")), "--algebra", "sg", "--oracle")
    assert code == 3
    assert "limit exceeded" in err
    code, _, err = invoke("invariants", str(fixture_path("fix_a2.q")), "--dims")
    assert code == 3


def test_non_utf8_input_exit_two(tmp_path):
    raw = tmp_path / "raw.q"
    raw.write_bytes(b"\xff\xfe")
    for command in ("validate", "invariants", "spset"):
        code, out, err = invoke(command, str(raw))
        assert code == 2
        assert out == ""
        assert err == "parse error: input is not UTF-8: byte 0xff at offset 0\n"


def test_oracle_cap_must_be_positive_integer(monkeypatch):
    for value in ("abc", "0", "-5", "2.5", "1e3"):
        monkeypatch.setenv("QSG_ORACLE_CAP", value)
        for argv in (("dim", str(fixture_path("fix_a2.q")), "--algebra", "sg", "--oracle"),
                     ("invariants", str(fixture_path("fix_a2.q")), "--dims")):
            code, out, err = invoke(*argv)
            assert code == 4
            assert out == ""
            assert err == f"usage error: QSG_ORACLE_CAP must be a positive integer, got {value!r}\n"
    # the cap is read only by the commands that run the oracle
    code, _, err = invoke("invariants", str(fixture_path("fix_a2.q")))
    assert code == 0 and err == ""


def test_oracle_cap_of_any_length_is_read(monkeypatch):
    # a 5000-digit cap is more than int() reads on 3.11+; it caps nothing
    argv = ("dim", str(fixture_path("fix_a2.q")), "--algebra", "sg", "--oracle")
    monkeypatch.setenv("QSG_ORACLE_CAP", "9" * 5000)
    assert invoke(*argv) == (0, "8\noracle: 8\n", "")
    monkeypatch.setenv("QSG_ORACLE_CAP", "0" * 5000 + "2")
    assert invoke(*argv)[::2] == (3, "limit exceeded: oracle path count exceeded cap 2"
                                     " (3 paths counted through degree 0 of at most 3)\n")


@pytest.mark.parametrize("name, cap, degree, counted", [
    ("fix_a2", 2, 0, 3), ("fix_a2", 3, 1, 7), ("fix_b3", 3, 0, 4), ("fix_b3", 10, 2, 15),
])
def test_capped_oracle_says_how_far_it_got(monkeypatch, name, cap, degree, counted):
    # paths counted so far, the degree reached and the length bound (3 on both)
    monkeypatch.setenv("QSG_ORACLE_CAP", str(cap))
    code, _, err = invoke("dim", str(fixture_path(f"{name}.q")), "--algebra", "sg", "--oracle")
    assert (code, err) == (3, f"limit exceeded: oracle path count exceeded cap {cap}"
                              f" ({counted} paths counted through degree {degree} of at most 3)\n")


def test_long_bad_oracle_cap_is_echoed_cut(monkeypatch):
    monkeypatch.setenv("QSG_ORACLE_CAP", "x" * 5000)
    code, out, err = invoke("dim", str(fixture_path("fix_a2.q")), "--algebra", "sg", "--oracle")
    assert (code, out) == (4, "")
    assert err == ("usage error: QSG_ORACLE_CAP must be a positive integer, got "
                   f"{'x' * 40!r}... (5000 characters)\n")


def test_oracle_needs_no_free_loop_name(tmp_path):
    # every loop name Q^sp could give the isolated special vertex 1 is taken
    names = ["sp_1", *(f"sp_1_{k}" for k in range(2, 1000))]
    assert len(names) == 999
    vertices = ", ".join(["1", *(f"u{i}, w{i}" for i in range(len(names)))])
    arrows = ", ".join(f"{name}: u{i} -> w{i}" for i, name in enumerate(names))
    path = tmp_path / "names.q"
    path.write_text(f"quiver N {{ vertices: {vertices}; special: 1; arrows: {arrows}; }}")
    code, out, err = invoke("invariants", str(path), "--dims")
    assert (code, err) == (0, "")
    assert out.endswith("dims: g=5995 gentle=2998 sg=2999\n")


def test_bad_oracle_cap_is_reported_before_the_input_is_read(monkeypatch):
    monkeypatch.setenv("QSG_ORACLE_CAP", "abc")
    for argv in (("dim", "/no/such/file.q", "--algebra", "sg", "--oracle"),
                 ("invariants", "/no/such/file.q", "--dims")):
        assert invoke(*argv) == (
            4, "", "usage error: QSG_ORACLE_CAP must be a positive integer, got 'abc'\n")
    code, _, err = invoke("validate", "/no/such/file.q")
    assert code == 2 and err.startswith("cannot read input: ")


def test_usage_error_exit_four():
    code, _, err = invoke("frobnicate")
    assert code == 4
    code, _, err = invoke("dim", str(fixture_path("fix_a2.q")))
    assert code == 4


_COMMAND_NAMES = ("validate", "construct", "invariants", "dim", "reduce", "spset")


@pytest.mark.parametrize("argv,head", [
    (["--help"], "usage: skewgentle "),
    *(([name, "--help"], f"usage: skewgentle {name} ") for name in _COMMAND_NAMES),
])
def test_help_exits_zero_on_out_only(argv, head):
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out.startswith(head)
    # written for users: no reST markup, no developer notes about modules
    assert "``" not in out and "module" not in out


_FIX = str(fixture_path("fix_a2.q"))


@pytest.mark.parametrize("spelling", [["--algebra", "sg"], ["--alg", "sg"], ["--algebra=sg"]])
def test_dim_reads_an_abbreviated_or_joined_option(spelling):
    assert invoke("dim", _FIX, *spelling) == (0, "8\n", "")


# Each line and the word its one diagnostic must name; argparse's own
# wording around that word differs between Python versions and is not pinned.
@pytest.mark.parametrize("argv,named", [
    ([], "command"),
    (["frobnicate"], "frobnicate"),
    (["validate"], "file"),
    (["construct", _FIX], "--target"),
    (["dim", _FIX], "--algebra"),
    (["reduce", _FIX], "--vertex"),
    (["construct", _FIX, "--target", "zz"], "--target"),
    (["construct", _FIX, "--target", "sg", "--format", "xml"], "--format"),
    (["dim", _FIX, "--algebra", "hh"], "--algebra"),
    (["validate", _FIX, "--bogus"], "--bogus"),
    (["--bogus"], "--bogus"),
    (["--bogus", "validate", _FIX], "--bogus"),
])
def test_malformed_command_line_exits_four(argv, named):
    code, out, err = invoke(*argv)
    assert (code, out) == (4, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert named in err


def test_help_goes_to_the_given_stream(capsys):
    for argv, head in ((["--help"], "usage: skewgentle "),
                       (["validate", "--help"], "usage: skewgentle validate ")):
        code, out, err = invoke(*argv)
        assert code == 0 and err == ""
        assert out.startswith(head)
        assert capsys.readouterr().out == ""


def test_text_and_json_numbers_agree():
    code, text, _ = invoke("invariants", str(fixture_path("fix_b3.q")), "--dims")
    code2, raw, _ = invoke("invariants", str(fixture_path("fix_b3.q")), "--json", "--dims")
    payload = json.loads(raw)
    dims = payload["dims"]
    assert f"dims: g={dims['g']} gentle={dims['gentle']} sg={dims['sg']}" in text
    for which, shifts in payload["descriptors"].items():
        rendered = "{" + ", ".join(str(n) for n in shifts) + "}"
        assert f"descriptor {which}: {rendered}" in text
    for cycle in payload["cycles"]:
        line = (f"cycle: [{', '.join(cycle['arrows'])}] "
                f"length={cycle['length']} parity={cycle['parity']}")
        assert line in text


def _line_with_special_ends(n):
    return free_line(n, special=("v0", f"v{n - 1}"))


def test_dim_of_long_line_and_long_cycle(tmp_path):
    # thousands of arrows in one chain of successors: no recursion, no listing
    line = tmp_path / "a3000.q"
    line.write_text(free_line(3000))
    assert invoke("dim", str(line), "--algebra", "g") == (0, "9003000\n", "")
    cycle = tmp_path / "c5000.q"
    cycle.write_text(full_relation_cycle(5000, 4))
    assert invoke("dim", str(cycle), "--algebra", "sg") == (0, "15000\n", "")
    # the corner of v0 on a line with special ends, counted: the paths from
    # v0 reach n - 2 ordinary vertices and the split v_{n-1}; none end at v0
    n = 4000
    ends = tmp_path / "a4000ends.q"
    ends.write_text(_line_with_special_ends(n))
    interior = (n - 2) * (n - 3) // 2  # paths between ordinary vertices
    gamma = n + 2 + 4 * (n - 2) + 4 + interior
    gamma_prime = n + 1 + 2 * (n - 1) + (n - 1) * (n - 2) // 2
    assert invoke("reduce", str(ends), "--vertex", "v0") == (0, (
        f"name: A vertex: v0\ndim gamma: {gamma}\ndim gamma': {gamma_prime}\n"
        f"dim A: {gamma - 1 - n}\ndim M: {n} (M'={n - 1})\ndim N: 0 (N'=0)\n"
        "dim im phi: 0\nidentity: holds\n"), "")


_SCALING_FAMILIES = {
    "cycle-every-3rd-special": (lambda n: full_relation_cycle(n, 3), 600),
    "cycle-every-2nd-special": (lambda n: full_relation_cycle(n, 2), 600),
    "free-line": (free_line, 300),
    "line-with-special-ends": (_line_with_special_ends, 300),
}


_SCALING_COMMANDS = [
    ("validate",), ("invariants", "--dims", "--json"),
    ("construct", "--target", "sg", "--format", "json"),
    ("construct", "--target", "g", "--format", "json"),
    ("dim", "--algebra", "sg"), ("dim", "--algebra", "g"),
    ("reduce", "--vertex", "v0"),
]
# every family but the free line has v0 special
_SCALING_CASES = [(command, family) for command in _SCALING_COMMANDS for family in _SCALING_FAMILIES
                  if command[0] != "reduce" or family != "free-line"]


@pytest.mark.parametrize("command,family", _SCALING_CASES,
                         ids=[f"{' '.join(command)}-{family}" for command, family in _SCALING_CASES])
def test_allocation_peak_grows_linearly(tmp_path, monkeypatch, family, command):
    # The traced allocation peak of one command is deterministic where wall
    # time is not.  After a collection it grows x1.90-2.03 per doubling on
    # these commands; x2.25 still catches a free-line oracle that holds each
    # listed path as a tuple of its arrows (x2.40), and a `reduce` that lists
    # the basis to count its corner (x7 on the line with special ends).  The
    # oracle in --dims lists about n^2 / 2 paths of a line, hence the raised
    # cap.
    monkeypatch.setenv("QSG_ORACLE_CAP", str(10 ** 6))
    text, n = _SCALING_FAMILIES[family]
    argv = {}
    for size in (12, n, 2 * n):
        path = tmp_path / f"{size}.q"
        path.write_text(text(size))
        argv[size] = (command[0], str(path), *command[1:])
    assert invoke(*argv[12])[::2] == (0, "")  # warm-up: imports and first-use caches
    peaks = []
    for size in (n, 2 * n):
        gc.collect()
        tracemalloc.start()
        try:
            assert invoke(*argv[size])[::2] == (0, "")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.25 * peaks[0], peaks


_OUTPUT_FAMILIES = ("cycle-every-3rd-special", "cycle-every-2nd-special", "free-line")


# the traced peak of JSON `construct` over its output bytes, at most
_OUTPUT_RATIO = {"sg": 20, "g": 11.5}


@pytest.mark.parametrize("target", ["sg", "g"])
@pytest.mark.parametrize("family", _OUTPUT_FAMILIES)
def test_construct_peak_is_a_multiple_of_its_output(tmp_path, family, target):
    # JSON `construct` writes a few lines per vertex, arrow and relation of
    # the pair it builds, so what it allocates should be a multiple of what
    # it writes.  The traced peak over the output bytes, on the 1200-cycles
    # and the 600-line, once measured 10.1-18.0 across Python 3.10-3.13, and
    # a bound of 20 still fails a writer that holds the output in pieces, as
    # the stdlib's indenting JSON encoder does (21.1x and 21.3x on the Q^g
    # of both cycles).  Q^sg now measures 7.6-10.6 and keeps that bound.
    # Q^g, written from its lift rows with no pair built, measures 8.3-10.4,
    # the largest on the cycle with every 2nd vertex special on 3.10; 11.5
    # leaves 11% above it and fails the Q^g that built a BoundQuiver
    # (11.8-12.5 on the cycles on 3.10 and 3.11).
    text, n = _SCALING_FAMILIES[family]
    argv = {}
    for size in (12, 2 * n):
        path = tmp_path / f"{size}.q"
        path.write_text(text(size))
        argv[size] = ("construct", str(path), "--target", target, "--format", "json")
    assert invoke(*argv[12])[::2] == (0, "")  # warm-up: imports and first-use caches
    gc.collect()
    tracemalloc.start()
    try:
        code, out, err = invoke(*argv[2 * n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak <= _OUTPUT_RATIO[target] * len(out.encode()), (peak, len(out))


# The scale gates: each `*_as_a_process` test runs one command as a process
# on thousands of items under a wall-clock bound.  CI has no other copy.
def test_q_g_dot_of_the_20000_cycle_as_a_process(tmp_path):
    # on the full-relation 20000-cycle with every 3rd vertex special, DOT of
    # Q^g finishes within 10 s and draws each of the 6667 special vertices,
    # unsigned in Q^g, as one doublecircle, read off the lift table
    path = tmp_path / "C20000.q"
    path.write_text(full_relation_cycle(20000, 3))
    result = subprocess.run(
        [sys.executable, "-m", "skewgentle", "construct", str(path), "--target", "g",
         "--format", "dot"],
        capture_output=True, text=True, timeout=10,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert sum("doublecircle" in line for line in result.stdout.splitlines()) == 6667


def test_q_sg_dot_of_the_1200_cycle_doubles_exactly_the_split_lifts(tmp_path):
    # on the full-relation 1200-cycle with every 3rd vertex special, DOT of
    # Q^sg draws as doublecircles the 800 lifts v+ and v- of the 400 special
    # vertices, which the presentation names from its lift table, and no
    # other vertex
    path = tmp_path / "C1200.q"
    path.write_text(full_relation_cycle(1200, 3))
    code, out, err = invoke("construct", str(path), "--target", "sg", "--format", "dot")
    assert (code, err) == (0, "")
    doubled = [line.split('"')[1] for line in out.splitlines() if "doublecircle" in line]
    assert len(doubled) == 800
    assert set(doubled) == {f"v{i}{sign}" for i in range(0, 1200, 3) for sign in "+-"}


def test_text_construct_of_the_20000_cycle_as_a_process(tmp_path):
    # on the same 20000-cycle, text `construct --target g`, written from Q^g's
    # lift rows, finishes within 10 s and is the canonical form of the
    # reference pair built on them
    path = tmp_path / "C20000.q"
    path.write_text(full_relation_cycle(20000, 3))
    result = subprocess.run(
        [sys.executable, "-m", "skewgentle", "construct", str(path), "--target", "g",
         "--format", "text"],
        capture_output=True, text=True, timeout=10,
    )
    assert (result.returncode, result.stderr) == (0, "")
    t = parse(path.read_text(encoding="utf-8"))
    pair = SkewedGentleTriple(build_g_pair(t), frozenset(), name="C_g")
    assert result.stdout == serialize(pair) + "\n"


@pytest.mark.parametrize("target", ["g", "sg"])
def test_json_construct_of_the_20000_cycle_as_a_process(tmp_path, target):
    # on the same 20000-cycle, JSON `construct` of Q^g and Q^sg finishes
    # within 10 s and writes what the stdlib's encoder writes for it, sorted
    # keys and indent 2
    path = tmp_path / "C20000.q"
    path.write_text(full_relation_cycle(20000, 3))
    result = subprocess.run(
        [sys.executable, "-m", "skewgentle", "construct", str(path), "--target", target,
         "--format", "json"],
        capture_output=True, text=True, timeout=10,
    )
    assert (result.returncode, result.stderr) == (0, "")
    out = result.stdout
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("special", [False, True])
def test_invariants_of_the_20000_line_as_a_process(tmp_path, special):
    # text `invariants` on L_20000, with no special vertex and with every
    # inner vertex special, finishes within 10 s with every gldim finite
    path = tmp_path / "L20000.q"
    path.write_text(special_line_text(20000, special), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "skewgentle", "invariants", str(path)],
                            capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stderr) == (0, "")
    assert "gldim_finite: g=yes gentle=yes sg=yes" in result.stdout.splitlines()


def test_invariants_of_the_20000_cycle_as_a_process(tmp_path):
    # text `invariants` on the full-relation 20000-cycle with every 3rd vertex
    # special finishes within 10 s with no gldim finite
    path = tmp_path / "C20000.q"
    path.write_text(full_relation_cycle(20000, 3))
    result = subprocess.run([sys.executable, "-m", "skewgentle", "invariants", str(path)],
                            capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stderr) == (0, "")
    assert "gldim_finite: g=no gentle=no sg=no" in result.stdout.splitlines()


@pytest.mark.parametrize("argv,lines", [
    (["dim", "FILE", "--algebra", "gentle"], ["40000"]),
    (["reduce", "FILE", "--vertex", "v0"],
     ["dim gamma: 66668", "dim gamma': 66664", "identity: holds"]),
])
def test_counts_of_the_20000_cycle_as_a_process(tmp_path, argv, lines):
    # on the same 20000-cycle, the base pair's dimension and the corner of v0,
    # each one counting pass over the verdict's walk (and the reduced triple's
    # own), finish within 10 s: 2n paths in the base pair, 2n + 4s in the sg
    # algebra with s special vertices
    path = tmp_path / "C20000.q"
    path.write_text(full_relation_cycle(20000, 3))
    argv = [str(path) if a == "FILE" else a for a in argv]
    result = subprocess.run([sys.executable, "-m", "skewgentle", *argv],
                            capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stderr) == (0, "")
    out = result.stdout.splitlines()
    assert all(line in out for line in lines), out


def test_invariants_peak_is_a_multiple_of_its_text(tmp_path):
    # Text `invariants` on the same 20000-cycle (963 kB of text) reads Q^g's
    # lift as plain names, with no pair built.  Its traced peak over the
    # text measured 45.4-50.4 across Python 3.10-3.13 when the g flag built
    # Q^g, and 31.9-35.2 without, the largest on 3.10; a bound of 40 fails
    # a command that builds Q^g again.
    small, path = tmp_path / "C12.q", tmp_path / "C20000.q"
    small.write_text(full_relation_cycle(12, 3))
    path.write_text(full_relation_cycle(20000, 3))
    assert invoke("invariants", str(small))[::2] == (0, "")  # warm-up: imports and first-use caches
    gc.collect()
    tracemalloc.start()
    try:
        code, out, err = invoke("invariants", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak <= 40 * path.stat().st_size, (peak, path.stat().st_size)


_L_ORACLE_GATES = {
    12: (0, "dims: g=146 gentle=23 sg=243", ""),
    14: (3, None, "limit exceeded: oracle path count exceeded cap 20000 (24546 paths counted"
                  " through degree 11 of at most 25)\n"),
}


@pytest.mark.parametrize("n", sorted(_L_ORACLE_GATES))
def test_sg_oracle_of_the_special_line_as_a_process(tmp_path, monkeypatch, n):
    # `invariants --dims` on L_n, the densest case for commutativity
    # relations, at the default oracle cap; on L_12 the sg oracle agrees
    # within 10 s, and on L_14 it reaches the cap within 10 s, exits 3 and
    # says how far it got
    monkeypatch.delenv("QSG_ORACLE_CAP", raising=False)
    path = tmp_path / f"L{n}.q"
    path.write_text(special_line_text(n), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "skewgentle", "invariants", str(path), "--dims"],
                            capture_output=True, text=True, timeout=10)
    code, dims, err = _L_ORACLE_GATES[n]
    assert (result.returncode, result.stderr) == (code, err)
    if dims is not None:
        assert dims in result.stdout.splitlines()


@pytest.mark.parametrize("star,hub,side", [(in_star, "x", "y"), (out_star, "y", "z")])
def test_validate_of_a_50000_star_as_a_process(tmp_path, star, hub, side):
    # `validate --json` on the relation star at k = 50000 exits 1 within 10 s
    # with one G1 item that lists all k partners of the hub, from the witness
    # pass that runs once the counted decision rejects the pair
    path = tmp_path / "star.q"
    path.write_text(star(50000), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "skewgentle", "validate", str(path), "--json"],
                            capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stderr) == (1, "")
    g1 = [v["items"] for v in json.loads(result.stdout)["violations"] if v["rule"] == "G1"]
    assert g1 == [[hub, *sorted(side + str(i) for i in range(50000))]]


def test_spset_of_the_8_necklace_as_a_process(tmp_path):
    # `spset` on a necklace of 8 full-relation 2-cycles, each a ring of two
    # vertices, and 4 isolated vertices lists its 3^8 * 2^4 sets within 20 s
    vertices = [*(f"p{i}" for i in range(8)), *(f"q{i}" for i in range(8)),
                *(f"z{i}" for i in range(4))]
    arrows = ", ".join(f"a{i}: p{i} -> q{i}, b{i}: q{i} -> p{i}" for i in range(8))
    relations = ", ".join(f"b{i}*a{i}, a{i}*b{i}" for i in range(8))
    path = tmp_path / "necklace.q"
    path.write_text(f"quiver K {{ vertices: {', '.join(vertices)}; arrows: {arrows}; "
                    f"relations: {relations}; }}\n", encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "skewgentle", "spset", str(path)],
                            capture_output=True, text=True, timeout=20)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert len(lines) == 104976
    assert (lines[0], lines[-1]) == ("{}", "{q0, q1, q2, q3, q4, q5, q6, q7, z0, z1, z2, z3}")


def test_reduce_of_the_4000_line_as_a_process(tmp_path):
    # `reduce` on the 4000-vertex line with both ends special counts its
    # corner within 30 s
    path = tmp_path / "line.q"
    path.write_text(_line_with_special_ends(4000))
    result = subprocess.run([sys.executable, "-m", "skewgentle", "reduce", str(path),
                             "--vertex", "v0"], capture_output=True, text=True, timeout=30)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert "dim M: 4000 (M'=3999)" in lines and "identity: holds" in lines


def test_runs_without_docstrings():
    result = subprocess.run(
        [sys.executable, "-OO", "-m", "skewgentle", "validate", _FIX],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert "skewed_gentle=yes" in result.stdout


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "skewgentle", "invariants", str(fixture_path("fix_a2.q"))],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "descriptor g: {4}" in result.stdout
    assert result.stderr == ""
