"""The package holds only what a command reaches.

Every command, in every format, runs on the fixtures and the golden inputs
under a profiler, and every public module-level function under
``src/skewgentle/`` must be called by one of them, and so must every public
method and property of the package's public classes, apart from the library
entry points below, each with the reason it stays.  A function or member
that no command calls and that is no entry point belongs in the tests, as a
reference (``tests/reference.py``), or nowhere.
"""

import inspect
import io
import sys
from functools import cache, cached_property
from pathlib import Path

from skewgentle import parse, quiver
from skewgentle.cli import run

TESTS = Path(__file__).parent
INPUTS = sorted([*(TESTS / "fixtures").glob("*.q"), *(TESTS / "golden").glob("*.q")])

ENTRY_POINTS = {
    "algebra.basis": "lists every normal form; reduce --json lists only the corner's",
    "cycles.descriptor_gentle": "the descriptor of a bare pair; commands read a triple's cycles",
    "cycles.full_cycles": "the cycles of a bare pair; a triple reads its own once the verdict "
                          "accepts it",
    "dsl.serialize": "the canonical text of a triple, which parse reads back; commands write "
                     "a pair's, Q^sp's or Q^g's, from its rows",
    "generate.random_triple": "draws the triples of the property tests and the benchmark corpus",
    "cli.main": "the console script, which runs `run` in its own process",
}


def _argvs(path):
    f = str(path)
    t = parse(path.read_text(encoding="utf-8"))
    yield ["validate", f]
    yield ["validate", f, "--json"]
    for target in ("sp", "sg", "g"):
        for fmt in ("text", "dot", "json"):
            yield ["construct", f, "--target", target, "--format", fmt]
    for extra in ([], ["--json"], ["--dims"], ["--dims", "--json"]):
        yield ["invariants", f, *extra]
    for algebra in ("gentle", "sg", "g"):
        yield ["dim", f, "--algebra", algebra]
        yield ["dim", f, "--algebra", algebra, "--oracle"]
    for vertex in t.special_list or t.pair.quiver.vertex_list[:1]:
        yield ["reduce", f, "--vertex", vertex]
        yield ["reduce", f, "--vertex", vertex, "--json"]
    yield ["spset", f]


def _public_functions():
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("skewgentle."):
            continue
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                yield f"{name.split('.', 1)[1]}.{attr}", obj


def _member_code(value):
    """The code a class attribute runs when read or called, or None for a field."""
    if isinstance(value, property):
        value = value.fget
    elif isinstance(value, cached_property):
        value = value.func
    elif isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    return value.__code__ if inspect.isfunction(value) else None


def _public_members():
    """Each public method and property of a public class of the package, with its code."""
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("skewgentle."):
            continue
        for attr, cls in vars(module).items():
            if (attr.startswith("_") or not inspect.isclass(cls)
                    or cls.__module__ != module.__name__):
                continue
            for member, value in vars(cls).items():
                code = _member_code(value)
                if not member.startswith("_") and code is not None:
                    yield f"{name.split('.', 1)[1]}.{attr}.{member}", code


@cache
def _called_code():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for path in INPUTS:
            for argv in _argvs(path):
                run(argv, out=io.StringIO(), err=io.StringIO())
    finally:
        sys.setprofile(None)
    return called


def test_every_public_function_is_reached_by_a_command():
    assert len(INPUTS) == 11
    called = _called_code()
    functions = dict(_public_functions())
    assert set(ENTRY_POINTS) <= set(functions) | set(dict(_public_members()))
    unreached = sorted(name for name, fn in functions.items()
                       if fn.__code__ not in called and name not in ENTRY_POINTS)
    assert unreached == []
    # and each entry point is indeed no command's
    assert [name for name in functions
            if name in ENTRY_POINTS and functions[name].__code__ in called] == []


def test_every_public_class_member_is_reached_by_a_command():
    called = _called_code()
    members = dict(_public_members())
    # the walk sees methods, properties, cached properties and static methods
    assert _member_code(vars(quiver.Record)["__eq__"]) is quiver.Record.__eq__.__code__
    assert {"cycles.CycleClass.length", "quiver.Quiver.arrow_map",
            "quiver.SkewedGentleTriple.sg_presentation", "cycles.SingularityDescriptor.of",
            "algebra.CornerData.t1_basis"} <= set(members)
    unreached = sorted(name for name, code in members.items()
                       if code not in called and name not in ENTRY_POINTS)
    assert unreached == []
    assert [name for name in members if name in ENTRY_POINTS and members[name] in called] == []

