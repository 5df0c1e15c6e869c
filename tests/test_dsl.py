import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewgentle import (
    Arrow,
    BoundQuiver,
    IntegrityError,
    ParseError,
    SkewedGentleTriple,
    build_quiver,
    parse,
    random_triple,
    serialize,
)

FIX_A2_TEXT = (
    "quiver A { vertices: 1, 2; special: 2; "
    "arrows: a: 1 -> 2, b: 2 -> 1; relations: a*b, b*a; }"
)


def hand_built_a2():
    quiver = build_quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    pair = BoundQuiver(quiver, frozenset({("a", "b"), ("b", "a")}))
    return SkewedGentleTriple(pair, frozenset({"2"}), name="A")


def test_parse_fix_a2_text():
    assert parse(FIX_A2_TEXT) == hand_built_a2()


def test_parse_minimal():
    t = parse("quiver E { vertices: 1; }")
    assert t.name == "E"
    assert t.pair.quiver.vertices == {"1"}
    assert t.special == frozenset()
    assert t.pair.relations == frozenset()


def test_parse_comments_and_whitespace():
    text = """# heading
    quiver   X {
      vertices: 1,
        2;   # inline note
      arrows: a: 1 -> 2;
    }"""
    t = parse(text)
    assert t.pair.quiver.arrow_map["a"].target == "2"


def test_parse_non_composable_relation():
    with pytest.raises(IntegrityError, match="not composable"):
        parse("quiver C { vertices: 1, 2; arrows: a: 1 -> 2; relations: a*a; }")


def test_parse_unknown_arrow_in_relation():
    with pytest.raises(IntegrityError, match="unknown arrow"):
        parse("quiver C { vertices: 1; arrows: ; relations: x*y; }")


def test_parse_unknown_special():
    with pytest.raises(IntegrityError, match="unknown vertex"):
        parse("quiver C { vertices: 1; special: 9; }")


def test_parse_duplicate_vertex():
    with pytest.raises(IntegrityError, match="declared twice"):
        parse("quiver C { vertices: 1, 1; }")


def test_parse_duplicate_statement():
    with pytest.raises(ParseError, match="duplicate"):
        parse("quiver C { vertices: 1; vertices: 2; }")


def test_parse_missing_vertices():
    with pytest.raises(ParseError, match="vertices"):
        parse("quiver C { arrows: ; }")
    with pytest.raises(ParseError, match="must not be empty"):
        parse("quiver C { vertices: ; }")


def test_parse_error_carries_span():
    with pytest.raises(ParseError) as info:
        parse("quiver C {\n  vertices: 1;\n  junk: 2;\n}")
    assert info.value.span.line == 3
    assert info.value.span.column == 3


def test_parse_unexpected_character():
    with pytest.raises(ParseError, match="unexpected"):
        parse("quiver C { vertices: 1; } %")


def test_lexer_arrow_without_spaces():
    t = parse("quiver C { vertices: 1, 2; arrows: a: 1->2; }")
    assert t.pair.quiver.arrow_map["a"] == Arrow("a", "1", "2")


def test_lexer_trailing_minus_ident_before_arrow():
    t = parse("quiver C { vertices: x-, 2; arrows: a: x--> 2; }")
    assert t.pair.quiver.arrow_map["a"].source == "x-"


def test_serialize_canonical_fix_a2():
    assert serialize(hand_built_a2()) == FIX_A2_TEXT


def test_serialize_one_vertex():
    t = SkewedGentleTriple(BoundQuiver(build_quiver(["1"], [])), name="Q")
    assert serialize(t) == "quiver Q { vertices: 1; special: ; arrows: ; relations: ; }"


def test_serialize_sorts_identifiers():
    quiver = build_quiver(["2", "1"], [Arrow("b", "2", "1"), Arrow("a", "1", "2")])
    pair = BoundQuiver(quiver, frozenset({("b", "a"), ("a", "b")}))
    text = serialize(SkewedGentleTriple(pair, frozenset({"2", "1"}), name="A"))
    assert text == (
        "quiver A { vertices: 1, 2; special: 1, 2; "
        "arrows: a: 1 -> 2, b: 2 -> 1; relations: a*b, b*a; }"
    )


def test_serialize_rejects_bad_identifier():
    t = SkewedGentleTriple(BoundQuiver(build_quiver(["sp ace"], [])), name="Q")
    with pytest.raises(ValueError):
        serialize(t)


def test_round_trip_fixtures():
    from conftest import all_fixture_triples

    for t in all_fixture_triples():
        assert parse(serialize(t)) == t


def test_round_trip_generated():
    for seed in range(60):
        t = random_triple(seed, 6, 7)
        text = serialize(t)
        assert parse(text) == t
        assert serialize(parse(text)) == text


# Identifiers as the grammar allows them, with the derived-name shapes
# (trailing signs, "-" before "->") drawn often.
_IDENTS = st.one_of(
    st.sampled_from(["1", "1-", "1+", "a", "a--", "x+", "x-", "_", "sp_1", "2-+"]),
    st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_+-]{0,4}", fullmatch=True),
)


@st.composite
def _triples(draw):
    """Any triple that passes the integrity checks, skewed-gentle or not."""
    vertices = draw(st.lists(_IDENTS, min_size=1, max_size=6, unique=True))
    vertex = st.sampled_from(vertices)
    arrows = [Arrow(*a) for a in draw(st.lists(st.tuples(_IDENTS, vertex, vertex), max_size=7,
                                               unique_by=lambda a: a[0]))]
    composable = [(x.name, y.name) for x in arrows for y in arrows if y.target == x.source]
    relations = draw(st.lists(st.sampled_from(composable), max_size=5, unique=True)
                     if composable else st.just([]))
    special = draw(st.lists(vertex, max_size=3, unique=True))
    pair = BoundQuiver(build_quiver(vertices, arrows), frozenset(relations))
    return SkewedGentleTriple(pair, frozenset(special), name=draw(_IDENTS))


@settings(max_examples=200, deadline=None)
@given(_triples())
def test_round_trip_any_identifiers(t):
    text = serialize(t)
    assert parse(text) == t
    assert serialize(parse(text)) == text


def test_serialize_parse_idempotent_on_loose_text():
    loose = "quiver  A {\n vertices: 2 , 1; arrows: b: 2->1, a: 1 -> 2;\n}"
    once = serialize(parse(loose))
    assert serialize(parse(once)) == once
