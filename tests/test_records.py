"""The value types are immutable records: frozen, compared and hashed by
class and fields, built by keyword or position with their defaults and
checks, and shown in the ``Name(field=value, ...)`` form that error
messages quote."""

import copy
import pickle

import pytest

from skewgentle import (
    Arrow,
    BoundQuiver,
    CycleClass,
    GPresentation,
    InvariantReport,
    NotComposable,
    NotGentle,
    SingularityDescriptor,
    SkewedGentleTriple,
    SourceSpan,
    UnknownVertex,
    ValidationReport,
    Violation,
    build_invariant_report,
    build_quiver,
    corner_data,
    full_cycles,
    parse,
)
from skewgentle.algebra import BasisPath
from skewgentle.quiver import ArrowWalk

from conftest import fixture_path


def _fix_a2():
    return parse(fixture_path("fix_a2.q").read_text(encoding="utf-8"))


def _one_of_each():
    """An instance of every record type, all from fix_a2, each with one field name."""
    t = _fix_a2()
    sg = t.sg_presentation
    corner = corner_data(t, "2")
    return [
        (t.pair.quiver.arrows[0], "name"), (t.pair.quiver, "arrows"),
        (t.pair, "relations"), (t, "special"),
        (corner.t1_basis[0], "source"), (corner, "dim_a"),
        (sg, "comm_relations"), (t.g_presentation, "arrows"),
        (t.cycles[0], "parity"), (SingularityDescriptor((2,)), "shifts"),
        (SourceSpan(1, 2, 3), "line"), (build_invariant_report(t), "dims"),
        (Violation("G1", ("a", "b")), "items"), (t.validation, "gentle"),
        (t.admissible_walk, "cycle"),
    ]


def _records():
    return [record for record, _ in _one_of_each()]


def test_one_of_each_covers_every_record_type():
    assert len({type(r) for r in _records()}) == 15


def test_assignment_and_deletion_raise():
    for record, field in _one_of_each():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.not_a_field = None


def test_equality_is_by_class_and_fields():
    assert Arrow("a", "b", "c") == Arrow("a", "b", "c")
    assert Arrow("a", "b", "c") != Arrow("a", "b", "d")
    assert Arrow("a", "b", "c") != BasisPath("a", "b", "c")
    assert BasisPath("a", "b", "c") != Arrow("a", "b", "c")
    assert Arrow("a", "b", "c") != ("a", "b", "c")
    assert Arrow.__eq__(Arrow("a", "b", "c"), BasisPath("a", "b", "c")) is NotImplemented
    assert hash(Arrow("a", "b", "c")) == hash(Arrow("a", "b", "c"))
    assert len({Violation("G1", ("a",)), Violation("G1", ("a",)), Violation("SB2", ("a",))}) == 2


def test_equal_records_hash_equal():
    for first, second in zip(_records(), _records()):
        if isinstance(first, (GPresentation, InvariantReport, ArrowWalk)):
            continue
        assert first == second, type(first)
        assert hash(first) == hash(second), type(first)
        assert not first != second


def test_identity_equality_classes():
    for first, second in zip(_records(), _records()):
        if isinstance(first, (GPresentation, InvariantReport, ArrowWalk)):
            assert first != second
            assert first == first
            assert hash(first) == object.__hash__(first)


def test_keyword_construction():
    path = BasisPath(arrows=("x", "y"), source="1", target="2")
    assert (path.arrows, path.source, path.target) == (("x", "y"), "1", "2")
    assert path == BasisPath(("x", "y"), "1", "2")
    flags = {"special_biserial": True, "gentle": True, "finite_dimensional": False}
    report = ValidationReport(**flags, skewed_gentle=False, violations=(Violation("FD", ("a",)),))
    assert report.finite_dimensional is False
    assert report.violations == (Violation(rule="FD", items=("a",)),)
    assert Arrow(name="a", source="1", target="2") == Arrow("a", "1", "2")
    assert SourceSpan(line=1, column=2, length=3) == SourceSpan(1, 2, 3)


def test_defaults():
    q = build_quiver(["1", "2"], [Arrow("a", "1", "2")])
    bq = BoundQuiver(q)
    assert bq.relations == frozenset()
    t = SkewedGentleTriple(bq)
    assert t.special == frozenset()
    assert t.name == "Q"
    # a cycle's parity has no default: every cycle is classified
    assert CycleClass._fields == ("arrows", "parity")
    with pytest.raises(TypeError):
        CycleClass(("a",))
    report = InvariantReport("Q", ValidationReport(True, True, True, True, ()), (), {}, {})
    assert report.dims is None


def test_constructor_checks_raise():
    a, b = Arrow("a", "1", "2"), Arrow("b", "1", "2")
    with pytest.raises(ValueError):
        SingularityDescriptor((3, 1))
    q = build_quiver(["1", "2"], [a, b])
    with pytest.raises(NotComposable):
        BoundQuiver(q, frozenset({("a", "b")}))
    with pytest.raises(UnknownVertex, match="special names unknown vertex '9'"):
        SkewedGentleTriple(BoundQuiver(q), frozenset({"9"}))


def test_violation_repr_in_not_gentle_message():
    q = build_quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                      Arrow("c", "2", "3")])
    bq = BoundQuiver(q, frozenset({("b", "a"), ("c", "a")}))
    with pytest.raises(NotGentle) as raised:
        full_cycles(bq)
    assert str(raised.value) == ("full_cycles needs a gentle finite-dimensional pair: "
                                 "[Violation(rule='G1', items=('a', 'b', 'c'))]")


def test_reprs():
    t = _fix_a2()
    assert repr(Violation("G1", ("a", "b"))) == "Violation(rule='G1', items=('a', 'b'))"
    assert repr(t.validation) == (
        "ValidationReport(special_biserial=True, gentle=True, finite_dimensional=True, "
        "skewed_gentle=True, violations=())")
    assert repr(t.cycles[0]) == (
        "CycleClass(arrows=('a', 'b'), parity='odd')")
    assert repr(SingularityDescriptor((4,))) == "SingularityDescriptor(shifts=(4,))"
    assert repr(SourceSpan(1, 2, 3)) == "SourceSpan(line=1, column=2, length=3)"
    assert repr(Arrow("a", "1", "2")) == "a: 1 -> 2"
    assert repr(corner_data(t, "2")).startswith("CornerData(special_vertex='2', dim_gamma=8, ")


def test_copy_and_pickle_keep_the_value():
    for record in _records():
        if isinstance(record, (GPresentation, InvariantReport, ArrowWalk)):
            continue
        assert copy.copy(record) == record, type(record)
        assert pickle.loads(pickle.dumps(record)) == record, type(record)
