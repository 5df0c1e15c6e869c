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
    return parse(special_line_text(n))


def special_line_text(n: int, special: bool = True) -> str:
    """The text of L_n, or of its pair alone, with no special vertex."""
    vertices = ", ".join(f"v{i}" for i in range(n))
    inner = ", ".join(f"v{i}" for i in range(1, n - 1))
    arrows = ", ".join(f"a{i}: v{i} -> v{i + 1}" for i in range(n - 1))
    relations = ", ".join(f"a{i + 1}*a{i}" for i in range(n - 2))
    return (f"quiver L {{ vertices: {vertices};{f' special: {inner};' if special else ''}"
            f" arrows: {arrows}; relations: {relations}; }}")


def free_line(n: int, special=(), name: str = "A") -> str:
    """A_n: the line v0 -> ... -> v_{n-1} with no relation."""
    vertices = ", ".join(f"v{i}" for i in range(n))
    arrows = ", ".join(f"a{i}: v{i} -> v{i + 1}" for i in range(n - 1))
    marked = f"special: {', '.join(special)}; " if special else ""
    return f"quiver {name} {{ vertices: {vertices}; {marked}arrows: {arrows}; }}"


def full_relation_cycle(n: int, k: int = 0, offset: int = 0, name: str = "C",
                        vertex: str = "v") -> str:
    """The n-cycle a_i: v_i -> v_{i+1 mod n} with every composition a
    relation, and every k-th vertex from ``offset`` special (none for k = 0)."""
    vs = [f"{vertex}{i}" for i in range(n)]
    marked = f" special: {', '.join(vs[offset::k])};" if k else ""
    arrows = ", ".join(f"a{i}: {vs[i]} -> {vs[(i + 1) % n]}" for i in range(n))
    relations = ", ".join(f"a{(i + 1) % n}*a{i}" for i in range(n))
    return (f"quiver {name} {{ vertices: {', '.join(vs)};{marked} arrows: {arrows};"
            f" relations: {relations}; }}")


def in_star(k: int) -> str:
    """The in-star: k arrows y_i: p -> q, one arrow x: q -> r and every x*y_i
    a relation, so x has k relation partners before it."""
    ys = ", ".join(f"y{i}: p -> q" for i in range(k))
    relations = ", ".join(f"x*y{i}" for i in range(k))
    return f"quiver S {{ vertices: p, q, r; arrows: {ys}, x: q -> r; relations: {relations}; }}"


def out_star(k: int) -> str:
    """The out-star: one arrow y: p -> q, k arrows z_i: q -> r and every z_i*y
    a relation, so y has k relation partners after it."""
    zs = ", ".join(f"z{i}: q -> r" for i in range(k))
    relations = ", ".join(f"z{i}*y" for i in range(k))
    return f"quiver S {{ vertices: p, q, r; arrows: y: p -> q, {zs}; relations: {relations}; }}"


def crossing(k: int) -> str:
    """k arrows y_i: p -> q, one arrow m: q -> r and k arrows z_i: r -> s, with
    every composition through m a relation: m has k relation partners on each
    side, and their name order (y0, y1, y10, ...) is not the order written."""
    ys = ", ".join(f"y{i}: p -> q" for i in range(k))
    zs = ", ".join(f"z{i}: r -> s" for i in range(k))
    relations = ", ".join([*(f"m*y{i}" for i in range(k)), *(f"z{i}*m" for i in range(k))])
    return (f"quiver W {{ vertices: p, q, r, s; arrows: {ys}, m: q -> r, {zs};"
            f" relations: {relations}; }}")
