import gc
import io
import json
import subprocess
import sys
import tracemalloc

import pytest

from conftest import fixture_path

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


def _write_line(path, n, special=""):
    vertices = ", ".join(f"v{i}" for i in range(n))
    arrows = ", ".join(f"a{i}: v{i} -> v{i + 1}" for i in range(n - 1))
    path.write_text(f"quiver A {{ vertices: {vertices}; {special}arrows: {arrows}; }}")


def _write_line_with_special_ends(path, n):
    _write_line(path, n, special=f"special: v0, v{n - 1}; ")


def _write_full_relation_cycle(path, n, k):
    vertices = ", ".join(f"v{i}" for i in range(n))
    special = ", ".join(f"v{i}" for i in range(0, n, k))
    arrows = ", ".join(f"a{i}: v{i} -> v{(i + 1) % n}" for i in range(n))
    relations = ", ".join(f"a{(i + 1) % n}*a{i}" for i in range(n))
    path.write_text(f"quiver C {{ vertices: {vertices}; special: {special}; "
                    f"arrows: {arrows}; relations: {relations}; }}")


def test_dim_of_long_line_and_long_cycle(tmp_path):
    # thousands of arrows in one chain of successors: no recursion, no listing
    line = tmp_path / "a3000.q"
    _write_line(line, 3000)
    assert invoke("dim", str(line), "--algebra", "g") == (0, "9003000\n", "")
    cycle = tmp_path / "c5000.q"
    _write_full_relation_cycle(cycle, 5000, 4)
    assert invoke("dim", str(cycle), "--algebra", "sg") == (0, "15000\n", "")
    # the corner of v0 on a line with special ends, counted: the paths from
    # v0 reach n - 2 ordinary vertices and the split v_{n-1}; none end at v0
    n = 4000
    ends = tmp_path / "a4000ends.q"
    _write_line_with_special_ends(ends, n)
    interior = (n - 2) * (n - 3) // 2  # paths between ordinary vertices
    gamma = n + 2 + 4 * (n - 2) + 4 + interior
    gamma_prime = n + 1 + 2 * (n - 1) + (n - 1) * (n - 2) // 2
    assert invoke("reduce", str(ends), "--vertex", "v0") == (0, (
        f"name: A vertex: v0\ndim gamma: {gamma}\ndim gamma': {gamma_prime}\n"
        f"dim A: {gamma - 1 - n}\ndim M: {n} (M'={n - 1})\ndim N: 0 (N'=0)\n"
        "dim im phi: 0\nidentity: holds\n"), "")


_SCALING_FAMILIES = {
    "cycle-every-3rd-special": (lambda path, n: _write_full_relation_cycle(path, n, 3), 600),
    "cycle-every-2nd-special": (lambda path, n: _write_full_relation_cycle(path, n, 2), 600),
    "free-line": (_write_line, 300),
    "line-with-special-ends": (_write_line_with_special_ends, 300),
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
    write, n = _SCALING_FAMILIES[family]
    argv = {}
    for size in (12, n, 2 * n):
        path = tmp_path / f"{size}.q"
        write(path, size)
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


@pytest.mark.parametrize("target", ["sg", "g"])
@pytest.mark.parametrize("family", _OUTPUT_FAMILIES)
def test_construct_peak_is_a_multiple_of_its_output(tmp_path, family, target):
    # JSON `construct` writes a few lines per vertex, arrow and relation of
    # the pair it builds, so what it allocates should be a multiple of what
    # it writes.  The traced peak over the output bytes, on the 1200-cycles
    # and the 600-line, measured 10.1-18.0 across Python 3.10-3.13; the
    # largest is Q^g of the cycle with every 2nd vertex special on 3.10.  A
    # bound of 20 leaves 11% above it and still fails a writer that holds
    # the output in pieces, as the stdlib's indenting JSON encoder does
    # (21.1x and 21.3x on the Q^g of both cycles).
    write, n = _SCALING_FAMILIES[family]
    argv = {}
    for size in (12, 2 * n):
        path = tmp_path / f"{size}.q"
        write(path, size)
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
    assert peak <= 20 * len(out.encode()), (peak, len(out))


def test_q_g_dot_of_the_20000_cycle_as_a_process(tmp_path):
    # the console-script gate of CI in tier-1: on the full-relation
    # 20000-cycle with every 3rd vertex special, DOT of Q^g finishes within
    # 10 s and draws each of the 6667 special vertices, unsigned in Q^g, as
    # one doublecircle, read off the lift table
    path = tmp_path / "C20000.q"
    _write_full_relation_cycle(path, 20000, 3)
    result = subprocess.run(
        [sys.executable, "-m", "skewgentle", "construct", str(path), "--target", "g",
         "--format", "dot"],
        capture_output=True, text=True, timeout=10,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert sum("doublecircle" in line for line in result.stdout.splitlines()) == 6667


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
