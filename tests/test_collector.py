"""A command makes no reference cycles, and runs with the cyclic collector paused.

``cli.run`` pauses Python's cyclic garbage collector for one command.  That
is safe only while the package makes no reference cycles: reference counting
then frees all that a command makes, as it did with the collector running,
and the collector would only have scanned it.  The first test holds every
command path to that; the others check that ``run`` pauses the collector and
leaves it as it found it, whatever way the command ends.
"""

import gc
import io

import pytest

from conftest import fixture_path
from test_cli import _write_full_relation_cycle
from test_golden import FIXTURE_NAMES, GOLDEN, INPUTS, PARSE_ERRORS, commands

from skewgentle import cli
from skewgentle.cli import run


def _command_lines(tmp_path):
    """(QSG_ORACLE_CAP or None, argv) for every path a command can take but help."""
    for fixture in FIXTURE_NAMES:
        path = str(INPUTS[fixture])
        for cmd in commands(fixture):
            yield None, [path if arg == "FILE" else arg for arg in cmd]
        # the oracle stopped at its cap, part way
        yield "3", ["dim", path, "--algebra", "sg", "--oracle"]
        yield "3", ["invariants", path, "--dims"]
    for name, text in sorted(PARSE_ERRORS.items()):
        path = tmp_path / f"{name}.q"
        path.write_bytes(text.encode("utf-8"))
        yield None, ["validate", str(path)]
    valid = str(fixture_path("fix_a2.q"))
    for argv in ([], ["bogus"], ["validate"], ["validate", valid, "--bogus"],
                 ["dim", valid], ["construct", valid, "--target", "x"]):
        yield None, argv
    yield "x", ["dim", valid, "--algebra", "sg", "--oracle"]
    yield None, ["validate", str(tmp_path / "missing.q")]
    yield None, ["validate", str(tmp_path)]


def _set_cap(monkeypatch, cap):
    if cap is None:
        monkeypatch.delenv("QSG_ORACLE_CAP", raising=False)
    else:
        monkeypatch.setenv("QSG_ORACLE_CAP", cap)


def test_no_command_leaves_cyclic_garbage(tmp_path, monkeypatch):
    # argparse is the one exception: its help formatter leaves its sections
    # in cycles, which the collector frees once it runs again.  So help is
    # not run here (it leaves 25 objects for `validate --help` and 28 for
    # `--help`), and the parser, which makes a formatter for each option it
    # adds (73 objects), is built once before.
    cli._build_parser()
    gc.collect()
    left = {}
    for cap, argv in _command_lines(tmp_path):
        _set_cap(monkeypatch, cap)
        run(argv, out=io.StringIO(), err=io.StringIO())
        found = gc.collect()
        if found:
            left[" ".join(argv)] = found
    assert left == {}


def _exits(tmp_path):
    """(argv, QSG_ORACLE_CAP or None, exit code) for each way a command ends."""
    valid = str(fixture_path("fix_a2.q"))
    bad = tmp_path / "bad.q"
    bad.write_text(PARSE_ERRORS["missing_semicolon"], encoding="utf-8")
    return [
        (["validate", valid], None, 0),
        (["validate", str(GOLDEN / "bad_g1.q")], None, 1),
        (["validate", str(bad)], None, 2),
        (["validate", str(tmp_path / "missing.q")], None, 2),
        (["dim", valid, "--algebra", "sg", "--oracle"], "3", 3),
        (["validate", valid, "--bogus"], None, 4),
        (["--help"], None, 0),
        (["validate", "--help"], None, 0),
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled):
    for argv, cap, code in _exits(tmp_path):
        _set_cap(monkeypatch, cap)
        if not enabled:
            gc.disable()
        try:
            assert run(argv, out=io.StringIO(), err=io.StringIO()) == code, argv
            assert gc.isenabled() is enabled, argv
        finally:
            gc.enable()


def test_a_handler_runs_paused_and_may_raise(monkeypatch):
    seen = []

    def handler(args, t, out):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    _, help, options = cli._COMMANDS["validate"]
    monkeypatch.setitem(cli._COMMANDS, "validate", (handler, help, options))
    with pytest.raises(RuntimeError, match="handler failed"):
        run(["validate", str(fixture_path("fix_a2.q"))], out=io.StringIO(), err=io.StringIO())
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("command", [("dim", "--algebra", "sg"), ("invariants", "--dims", "--json")],
                         ids=" ".join)
def test_a_long_command_makes_no_collection(tmp_path, monkeypatch, command):
    # the full-relation 2000-cycle with every 3rd vertex special: with the
    # collector running, `dim --algebra sg` made 16 collections and
    # `invariants --dims --json` 64, and none of them found anything
    monkeypatch.delenv("QSG_ORACLE_CAP", raising=False)
    path = tmp_path / "C2000.q"
    _write_full_relation_cycle(path, 2000, 3)
    out, err = io.StringIO(), io.StringIO()
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        code = run([command[0], str(path), *command[1:]], out=out, err=err)
    finally:
        gc.callbacks.remove(count)
    assert (code, err.getvalue(), started) == (0, "", [])
