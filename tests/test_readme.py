"""The README's Library example runs as written, from the fixtures directory,
its command-line example prints what the command prints, and every call it
quotes names a public attribute of the package."""

import gc
import io
import re
import warnings
from pathlib import Path

import skewgentle
from skewgentle.cli import run

from conftest import FIXTURES

README = Path(__file__).parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_closes_its_file(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(compile(_library_example(), str(README), "exec"), {})
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_command_line_example_is_what_the_command_prints():
    shown = README.read_text(encoding="utf-8").split("$ skewgentle invariants fix_a2.q --dims\n")[1]
    out, err = io.StringIO(), io.StringIO()
    code = run(["invariants", str(FIXTURES / "fix_a2.q"), "--dims"], out=out, err=err)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == shown.split("```", 1)[0]


def test_every_quoted_call_names_a_public_attribute():
    # `name(` anywhere in the text, so the prose cannot cite a deleted function
    quoted = set(re.findall(r"`([A-Za-z_]\w*)\(", README.read_text(encoding="utf-8")))
    assert quoted
    assert sorted(n for n in quoted if n.startswith("_") or not hasattr(skewgentle, n)) == []
