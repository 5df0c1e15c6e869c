from pathlib import Path

import pytest

from skewgentle import parse

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load(name: str):
    return parse(fixture_path(name).read_text(encoding="utf-8"))


@pytest.fixture
def fix_a():
    return load("fix_a.q")


@pytest.fixture
def fix_a2():
    return load("fix_a2.q")


@pytest.fixture
def fix_b():
    return load("fix_b.q")


@pytest.fixture
def fix_b3():
    return load("fix_b3.q")


@pytest.fixture
def fix_c():
    return load("fix_c.q")


@pytest.fixture
def fix_c1():
    return load("fix_c1.q")


@pytest.fixture
def fix_d():
    return load("fix_d.q")


def all_fixture_triples():
    """Every shipped fixture that is a valid skewed-gentle triple."""
    return [load(n) for n in
            ("fix_a.q", "fix_a2.q", "fix_b.q", "fix_b3.q", "fix_c.q", "fix_c1.q", "fix_d.q")]


def special_line(n: int):
    """L_n: the line v0 -> ... -> v_{n-1} with every 2-path a relation and
    every inner vertex special, the densest case for commutativity relations."""
    vertices = ", ".join(f"v{i}" for i in range(n))
    special = ", ".join(f"v{i}" for i in range(1, n - 1))
    arrows = ", ".join(f"a{i}: v{i} -> v{i + 1}" for i in range(n - 1))
    relations = ", ".join(f"a{i + 1}*a{i}" for i in range(n - 2))
    return parse(f"quiver L {{ vertices: {vertices}; special: {special}; arrows: {arrows};"
                 f" relations: {relations}; }}")
