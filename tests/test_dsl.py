import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewgentle import (
    Arrow,
    BoundQuiver,
    IntegrityError,
    ParseError,
    SkewedGentleTriple,
    SourceSpan,
    build_quiver,
    parse,
    random_triple,
    serialize,
)
from skewgentle import dsl
from skewgentle.dsl import _Parser, _read, _span, _tokenize

from reference import first_unresolved_item

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


def test_token_parser_runs_only_when_the_text_is_rejected():
    # the token parser is the diagnostic pass: a valid text never builds it
    with mock.patch.object(dsl, "_Parser", side_effect=AssertionError("token parser")):
        assert parse(FIX_A2_TEXT) == hand_built_a2()
        with pytest.raises(AssertionError, match="token parser"):
            parse("quiver C { vertices: 1; special: 1, 1; }")


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


# The character-by-character lexer the one-pattern scanner replaced, kept as
# its reference.  Tokens are (kind, value, line, column, length).
_REF_IDENT_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_+\-]*")
_REF_KINDS = {"{": "LBRACE", "}": "RBRACE", ":": "COLON", ";": "SEMI", ",": "COMMA",
              "*": "STAR", "->": "ARROW"}


def _reference_tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _REF_KINDS:
            tokens.append((_REF_KINDS[ch], ch, line, col, 1))
            i, col = i + 1, col + 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(("ARROW", "->", line, col, 2))
            i, col = i + 2, col + 2
            continue
        m = _REF_IDENT_RE.match(text, i)
        if m:
            value = m.group()
            if value.endswith("-") and m.end() < n and text[m.end()] == ">":
                value = value[:-1]
            tokens.append(("IDENT", value, line, col, len(value)))
            i, col = i + len(value), col + len(value)
            continue
        raise ParseError(f"unexpected character {ch!r}", SourceSpan(line, col, 1))
    tokens.append(("EOF", "", line, col, 1))
    return tokens


def _scanned(text):
    tokens = []
    for tok in _tokenize(text):
        span = _span(text, tok)
        tokens.append((_REF_KINDS.get(tok[0], tok[0]), tok[1], span.line, span.column,
                       span.length))
    return tokens


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return str(e)


# The grammar's alphabet and words, the blanks, and the noise around them:
# comments with and without a final newline, "->" beside "-", other characters.
_FRAGMENTS = st.sampled_from([
    "quiver", "vertices", "arrows", "x", "1", "_", "a+", "b-", "+", "-", ">", "->", "--",
    "-->", "{", "}", ":", ";", ",", "*", " ", "\t", "\n", "\r", "\r\n", "#", "# c\n", "# c",
    "\u00e9", "\f",
])
_NOISY_TEXT = st.one_of(
    st.lists(_FRAGMENTS, max_size=30).map("".join),
    st.text(alphabet="ab1_+->#{}:;,* \t\r\n\f\u00e9", max_size=40),
)


@settings(max_examples=400, deadline=None)
@given(_NOISY_TEXT)
def test_scanner_matches_reference_lexer(text):
    assert _outcome(_scanned, text) == _outcome(_reference_tokenize, text)


@pytest.mark.parametrize("text", [
    "", "#", "# c", "a # c", "a\n# c", "a\r\n# c\r", "x-->y", "x--->y", "-->", "a->->b",
    "1+-", "\u00e9", "a\fb", "\t\t}", "a\n\n  b",
])
def test_scanner_matches_reference_lexer_on_edge_cases(text):
    assert _outcome(_scanned, text) == _outcome(_reference_tokenize, text)


def _token_parse(text):
    """parse with the per-statement reader off: the token parser, then the
    integrity checks.  The reference for parse and its diagnostics."""
    with mock.patch.object(dsl, "_read", lambda text: None):
        return parse(text)


def _assert_parse_matches_reference(text):
    assert _outcome(parse, text) == _outcome(_token_parse, text)
    # the reader accepts exactly the well-formed texts, and reads them as the token parser does
    try:
        expected = _Parser(text).file()
    except ParseError:
        expected = None
    assert _read(text) == expected


# Blanks and comments to put between tokens.  The comments hold identifiers
# and every symbol, so an item read out of a comment shows.
_GAPS = st.sampled_from([
    "", " ", "\n", "\t", "\r\n", "  \n ", "#\n", "# c\n", "# x, y; z\n", "# a: 1 -> 2, b*c;\n",
    "#};{\n", "\n# quiver Q { vertices: 1; }\n\t",
])
_END_COMMENTS = st.sampled_from(["", "\n", "# end", "#", "# a*b; }", "\n# x -> y,"])


@st.composite
def _noisy_serialized(draw):
    """A serialized triple with blanks and comments between its tokens."""
    out = []
    for kind, value, _ in _tokenize(serialize(draw(_triples())))[:-1]:
        gap = draw(_GAPS)
        if kind == "IDENT" and out and out[-1][-1:] not in "{}:;,*> \t\r\n":
            gap = gap or " "  # keep two identifiers apart
        out += [gap, value]
    return "".join(out) + draw(_GAPS) + draw(_END_COMMENTS)


@st.composite
def _mutated(draw):
    """One character of a noisy serialized triple deleted, replaced or inserted."""
    text = draw(_noisy_serialized())
    i = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from("ab1_+-># {}:;,*\n\r\té"))
    how = draw(st.sampled_from(["delete", "replace", "insert"]))
    if how == "insert":
        return text[:i] + ch + text[i:]
    return text[:i] + (ch if how == "replace" else "") + text[i + 1:]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_noisy_serialized(), _mutated()))
def test_parse_matches_token_parser(text):
    _assert_parse_matches_reference(text)


@pytest.mark.parametrize("text", [
    "quiver Q { vertices: 1; special: # c\n ; }",
    "quiver Q { vertices: 1; special: # c\n 1 ; }",
    "quiver Q { vertices: 1; arrows: # a: 1 -> 1\n ; relations: #a*a\n; }",
    "quiver Q { vertices: 1, # 2,\n 3; } # }",
    "quiver Q { vertices: 1; } # vertices: 2;",
    "quiver Q { vertices: 1; }\n#",
    "quiver Q { vertices: ; }",
    "quiver Q { vertices: 1, 1; special: 9; }",
    "quiver Q {\n vertices: 1;\n arrows: a: 1 -> 1, a: 1 -> 1; }",
    "quiver Q { vertices: x-; arrows: a: x--> x-; relations: a*a; special: x-; }",
    "quiverQ { vertices: 1; }",
    "quiver Q { vertices: 1; special: 1,; }",
    "quiver Q { vertices: 1; special: ,1; }",
    "quiver Q { vertices: 1 }",
    "quiver Q { vertices: 1; } }",
    "quiver Q { vertices: 1; junk: 2; }",
    "quiver Q { vertices: 1; vertices: 2; }",
    "quiver Q { special: ; }",
    "quiver Q { vertices: 1, # ; , 3\n 2; special: 1 # ,;\n, 2; }",
    "quiver Q { vertices: 1 # x;\n; }",
    "quiver#c\nQ { vertices: 1; }",
    "quiver Q#c\n{ vertices: 1; }",
    "quiver Q { vertices: 1; }#",
    "quiver Q { vertices: 1; special: 1; }#c",
    "quiver Q {\r\n vertices: 1, 2;\r\n arrows: a: 1 -> 2; # c\r\n relations: ;\r\n}\r\n",
    "quiver Q { vertices: x-, y; arrows: a: x-#c\n> y; }",
    "quiver Q { vertices: x, y; arrows: a: x-#c\n-> y; }",
    "quiver Q { vertices: 1; special: 1, ; }",
    "quiver Q { vertices: 1; special: 1 1; }",
    "quiver Q { vertices: 1; special: 1,,1; }",
    "quiver Q { vertices: 1, 2; arrows: a: 1 -> 2,; }",
    "quiver Q { vertices: 1, 2; arrows: a: 1 -> 2 b: 2 -> 1; }",
    # the reader's plain identifier class takes a "-" before ">", which no item can hold
    "quiver Q { vertices: x-, y; arrows: a: x--> y; }",
    "quiver Q { vertices: x--, y; arrows: a: x---> y; }",
    "quiver Q { vertices: x, y; arrows: a: x--> y; }",
    "quiver Q { vertices: x-, y-; arrows: a-: x--->y-, b--: y--->x-; relations: b--*a-; }",
    "quiver Q { vertices: x; arrows: a: x->x; relations: a*a; }",
    # a "-" that ends an item
    "quiver Q { vertices: x-, y--; special: y--; }",
    "quiver Q { vertices: 1; arrows: a-: 1 -> 1; relations: a-*a-; }",
    "quiver Q { vertices: 1, 2-; arrows: a: 1 -> 2-, b: 2- -> 1; }",
    "quiver Q { vertices: 1; special: 1-; }",
    # a ">" inside an item
    "quiver Q { vertices: x>y; }",
    "quiver Q { vertices: x-, y; special: x->y; }",
    "quiver Q { vertices: x, y; arrows: a: x -> y>; }",
    "quiver Q { vertices: x, y; arrows: a>b: x -> y; }",
    "quiver Q { vertices: x, y; arrows: a: x -> -> y; }",
    "quiver Q { vertices: 1; arrows: a: 1 -> 1; relations: a*>a; }",
    "quiver Q { vertices: 1; arrows: a: 1 -> 1; relations: a->*a; }",
])
def test_parse_matches_token_parser_on_edge_cases(text):
    _assert_parse_matches_reference(text)


@pytest.mark.parametrize("text,message", [
    # blanks the grammar does not know, between items: the token parser names the character
    ("quiver Q { vertices: 1,\x0b2; }", "1:24: unexpected character '\\x0b'"),
    ("quiver Q { vertices: 1\x0c, 2; }", "1:23: unexpected character '\\x0c'"),
    ("quiver Q { vertices: 1, 2;\xa0arrows: a: 1 -> 2; }", "1:27: unexpected character '\\xa0'"),
    ("quiver Q { vertices: 1, 2; arrows: a: 1 -> 2,\x0cb: 2 -> 1; }",
     "1:46: unexpected character '\\x0c'"),
    ("quiver Q { vertices: 1; arrows: a: 1 -> 1; relations: a*a,\xa0a*a; }",
     "1:59: unexpected character '\\xa0'"),
    ("quiver Q { vertices: 1; special: 1\x0b; }", "1:35: unexpected character '\\x0b'"),
])
def test_other_blanks_between_items_are_diagnosed(text, message):
    with pytest.raises(ParseError) as raised:
        parse(text)
    assert str(raised.value) == message
    assert raised.value.span.length == 1
    _assert_parse_matches_reference(text)


# The faults a well-formed text can hold, each one bad item put into a list.
_FAULTS = ("vertex twice", "arrow twice", "relation twice", "special twice",
           "dangling endpoint", "unknown arrow", "not composable", "unknown special")


@st.composite
def _faulty_texts(draw):
    """A ``random_triple`` written as ``serialize`` writes it, with its
    statements in any order and one to three bad items put into its lists."""
    t = random_triple(draw(st.integers(0, 10_000)), 6, 7)
    vertices = list(t.pair.quiver.vertex_list)
    arrows = [(a.name, a.source, a.target) for a in t.pair.quiver.arrows]
    relations, special = sorted(t.pair.relations), list(t.special_list)
    uncomposable = [(x, y) for x, start, _ in arrows for y, _, end in arrows if end != start]
    faults = [f for f in _FAULTS
              if (f != "arrow twice" or arrows) and (f != "relation twice" or relations)
              and (f != "special twice" or special) and (f != "not composable" or uncomposable)]
    vertex = st.sampled_from(vertices)
    for fault in draw(st.lists(st.sampled_from(faults), min_size=1, max_size=3)):
        if fault == "vertex twice":
            items, item = vertices, draw(vertex)
        elif fault == "arrow twice":
            items, item = arrows, (draw(st.sampled_from(arrows))[0], draw(vertex), draw(vertex))
        elif fault == "relation twice":
            items, item = relations, draw(st.sampled_from(relations))
        elif fault == "special twice":
            items, item = special, draw(st.sampled_from(special))
        elif fault == "dangling endpoint":
            ends = [draw(vertex), "nowhere"]
            if draw(st.booleans()):
                ends.reverse()
            items, item = arrows, (f"d{len(arrows)}", *ends)
        elif fault == "unknown arrow":
            known = draw(st.sampled_from([a[0] for a in arrows] or ["nothing"]))
            items, item = relations, draw(st.sampled_from([(known, "gone"), ("gone", known)]))
        elif fault == "not composable":
            items, item = relations, draw(st.sampled_from(uncomposable))
        else:
            items, item = special, "nowhere"
        items.insert(draw(st.integers(0, len(items))), item)
    statements = {
        "vertices": ", ".join(vertices),
        "special": ", ".join(special),
        "arrows": ", ".join(f"{a}: {src} -> {tgt}" for a, src, tgt in arrows),
        "relations": ", ".join(f"{x}*{y}" for x, y in relations),
    }
    order = draw(st.permutations(list(statements)))
    return f"quiver {t.name} {{ " + " ".join(f"{k}: {statements[k]};" for k in order) + " }"


@settings(max_examples=300, deadline=None)
@given(_faulty_texts())
def test_parse_reports_the_first_fault_in_written_order(text):
    # several faults in one text pin the order: statements by kind, items as written
    with pytest.raises(IntegrityError) as raised:
        parse(text)
    message, span = first_unresolved_item(text)
    assert (raised.value.args[0], raised.value.span) == (message, span)


# Long texts of about 200 kB that a reader trying an item at every position,
# or a backtracking pattern, would take minutes over.
_LONG = 200_000
_ADVERSARIAL = {
    "long identifier, then junk": "quiver Q { vertices: " + "a" * _LONG + "%; }",
    "long blank run": "quiver Q { vertices: a" + " " * _LONG + "b; }",
    "many a, items": "quiver Q { vertices: " + "a," * (_LONG // 2) + "; }",
    "long minus run before >": "quiver Q { vertices: x; arrows: a: x" + "-" * _LONG + "> x; }",
    # runs of "-" that no "->" follows, which the reader's identifier class
    # takes whole and gives back one character at a time
    "long minus run, no >": "quiver Q { vertices: x; arrows: a: x" + "-" * _LONG + " x; }",
    "long minus run ending a list": "quiver Q { vertices: x" + "-" * _LONG + " %; }",
    "many minus runs, no >": (
        "quiver Q { vertices: x; arrows: " + "a: x----- x, " * (_LONG // 13) + "; }"),
    "many comment lines in a list": "quiver Q { vertices: 1,\n" + "#\n" * (_LONG // 2) + "2; }",
    "arrows ending without a target": (
        "quiver Q { vertices: 1; arrows: "
        + ", ".join(f"a{i}: 1 -> 1" for i in range(_LONG // 14)) + ", z: 1 -> ; }"),
    # well-formed texts whose one bad item comes last
    "many arrows, then a relation naming an unknown arrow": (
        "quiver Q { vertices: 1; arrows: "
        + ", ".join(f"a{i}: 1 -> 1" for i in range(14000)) + "; relations: a0*z; }"),
    "many vertices, then one twice": (
        "quiver Q { vertices: " + "".join(f"v{i}, " for i in range(20000)) + "v0; }"),
    "many vertices and specials, then an unknown special": (
        "quiver Q { vertices: " + ", ".join(f"v{i}" for i in range(20000))
        + "; special: " + "".join(f"v{i}, " for i in range(20000)) + "z; }"),
}


@pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
def test_parse_time_is_linear_on_adversarial_text(name):
    text = _ADVERSARIAL[name]
    start = time.perf_counter()
    try:
        parse(text)
    except ParseError:
        pass
    assert time.perf_counter() - start < 5.0
