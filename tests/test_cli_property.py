"""Property: any input file gives a documented exit code and one diagnostic line.

The inputs are arbitrary bytes, arbitrary text, and text shaped by the
grammar from a small pool of names, including the derived forms ``1+``,
``1-`` and ``sp_1`` that the constructions use for their own vertices and
loops.  Every command runs on each input.
"""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewgentle.cli import run

PREFIXES = ("usage error: ", "parse error: ", "limit exceeded: ",
            "validation failed: ", "cannot read input: ", "error: ")

_VERTICES = st.sampled_from(["1", "2", "3", "1+", "1-", "2+", "sp_1", "x-"])
_ARROWS = st.sampled_from(["a", "b", "c", "d", "sp_1", "a+", "1"])


def _mostly(names, pool):
    """A name from ``names`` five times in six, else any name from ``pool``."""
    return st.one_of(*[st.sampled_from(names)] * 5, pool) if names else pool


@st.composite
def _grammar_text(draw):
    """A triple written in the grammar; names mostly, not always, declared."""
    vertices = draw(st.lists(_VERTICES, min_size=1, max_size=5, unique=True))
    vertex = _mostly(vertices, _VERTICES)
    special = draw(st.lists(vertex, max_size=3, unique=True))
    arrows = draw(st.lists(st.tuples(_ARROWS, vertex, vertex), max_size=6,
                           unique_by=lambda a: a[0]))
    composable = [(x, y) for x, s, _ in arrows for y, _, t in arrows if t == s]
    relations = draw(st.lists(_mostly(composable, st.tuples(_ARROWS, _ARROWS)),
                              max_size=5, unique=True))
    body = [
        f"vertices: {', '.join(vertices)};",
        f"special: {', '.join(special)};",
        "arrows: " + ", ".join(f"{n}: {s} -> {t}" for n, s, t in arrows) + ";",
        "relations: " + ", ".join(f"{x}*{y}" for x, y in relations) + ";",
    ]
    if draw(st.integers(0, 5)) == 5:
        body = draw(st.lists(st.sampled_from(body), max_size=5))
    return ("quiver Q { " + " ".join(body) + " }").encode()


_INPUTS = st.one_of(_grammar_text(), _grammar_text(), _grammar_text(),
                    st.binary(max_size=120), st.text(max_size=120).map(str.encode))


@st.composite
def _command_lines(draw):
    """One command line per command, with options drawn; FILE is the input."""
    vertex = draw(st.one_of(_VERTICES, st.text(max_size=4)))
    return [
        ["validate", "FILE", *draw(st.sampled_from([[], ["--json"]]))],
        ["construct", "FILE", "--target", draw(st.sampled_from(["sp", "sg", "g"])),
         "--format", draw(st.sampled_from(["text", "dot", "json"]))],
        ["invariants", "FILE", *draw(st.sampled_from([[], ["--json"], ["--dims"]]))],
        ["dim", "FILE", "--algebra", draw(st.sampled_from(["gentle", "sg", "g"])),
         *draw(st.sampled_from([[], ["--oracle"]]))],
        ["reduce", "FILE", "--vertex", vertex, *draw(st.sampled_from([[], ["--json"]]))],
        ["spset", "FILE"],
    ]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_INPUTS, cmds=_command_lines())
def test_any_input_exits_documented_with_one_line(data, cmds, tmp_path, monkeypatch):
    monkeypatch.delenv("QSG_ORACLE_CAP", raising=False)
    path = tmp_path / "input.q"
    path.write_bytes(data)
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        code = run([str(path) if arg == "FILE" else arg for arg in cmd], out=out, err=err)
        assert code in range(5), (cmd, code)
        diagnostic = err.getvalue()
        if diagnostic:
            assert diagnostic.count("\n") == 1 and diagnostic.endswith("\n"), (cmd, diagnostic)
            assert diagnostic.startswith(PREFIXES), (cmd, diagnostic)
