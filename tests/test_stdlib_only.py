"""The runtime stays stdlib-only: every import under src/skewgentle/ is either
a standard-library module or the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skewgentle"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "skewgentle" if node.level else node.module


def test_every_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "skewgentle", (path.name, name)


def test_cli_import_loads_no_code_generators():
    """Importing the command line compiles no generated code: no dataclasses
    (nor the inspect it loads), no pathlib, and no fractions (nor the decimal
    and numbers it loads), in a fresh interpreter without site packages."""
    probe = ("import sys, skewgentle.cli; "
             "print(sorted({'dataclasses', 'inspect', 'pathlib', 'fractions', 'decimal',"
             " 'numbers'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def test_a_plain_command_loads_no_argument_parser():
    """A plainly written command line is read without argparse, so neither it
    nor the gettext it loads is imported; help still comes from argparse."""
    fixture = PACKAGE.parents[1] / "tests" / "fixtures" / "fix_a2.q"
    probe = ("import io, sys, skewgentle.cli as cli; "
             f"code = cli.run(['validate', {str(fixture)!r}], out=io.StringIO()); "
             "print(code, sorted({'argparse', 'gettext'} & set(sys.modules))); "
             "cli.run(['dim', '--help'])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.startswith("0 []\nusage: skewgentle dim ")
