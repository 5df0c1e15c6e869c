"""Parser and canonical serializer for the triple description language.

Grammar::

    File  ::= "quiver" Ident "{" Stmt* "}"
    Stmt  ::= ("vertices" | "special" | "arrows" | "relations") ":" Items ";"
    Items ::= empty | Item ("," Item)*        (vertices must not be empty)
    Item  ::= Ident                           in vertices / special
            | Ident ":" Ident "->" Ident      in arrows
            | Ident "*" Ident                 in relations

``#`` starts a line comment and whitespace is insignificant; ``_TOKEN_RE``
below is the whole token grammar, identifiers included.

A well-formed file is read one statement at a time, after its comments are
removed (no token holds a ``#``).  A statement ends at its first ``;`` (no
token holds one either), and one ``split`` over a pattern for one item reads
its items; the statement is well formed exactly when no text is left between
them.  An item pattern reads an identifier with the plain class
``[A-Za-z0-9_][A-Za-z0-9_+-]*``, not with ``_IDENT``, which will not take a
``-`` that starts ``->``.  Both read the same items: in an item an
identifier is followed by blanks and then ``:``, ``->``, ``*``, ``,`` or the
end of the list, none of which starts with ``>``, so a match in which the
plain class takes a ``-`` before a ``>`` fails at the next character, and
where ``_IDENT`` stops before ``->`` the plain class gives back just that
``-``.  An item may start only at the start of the list or right after a
``,``, so a failed match is tried again only after the next ``,``, and every
attempt stops at the next ``,``.  Within an attempt no repeat is nested in
another: a greedy run of one class, identifier or blanks, is given back one
character at a time, and at most one of its lengths is followed by what the
pattern needs next, so each run is given back once at most.  Reading takes
time linear in the text, whatever the text.  Without that anchor ``split``
would try an item at every position, each attempt reading to the end of a
long identifier, which is quadratic.

Each integrity rule and its message is written once, in
``quiver._first_bad_item``.  The model checks a read file as it is built,
and ``parse`` adds only the duplicates that its sets would hide.  When the
model rejects the triple, ``parse`` runs the rules once over the lists as
written, to name the first bad item, and the token parser, to place it: a
valid text never runs the token parser.

A relation item ``x*y`` declares the 2-path "y, then x" to be zero.  The
canonical form emits the four statements in fixed order with identifiers
sorted, so serialize(parse(text)) is idempotent and parse(serialize(t))
returns a structurally equal triple.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import starmap

from .errors import DuplicateName, IntegrityError, ParseError, SkewGentleError
from .quiver import (
    Arrow,
    BoundQuiver,
    Record,
    SkewedGentleTriple,
    _first_bad_item,
    _set,
    build_quiver,
    relation_text,
)

_IDENT = r"[A-Za-z0-9_][A-Za-z0-9_+]*(?:-(?!>)[A-Za-z0-9_+]*)*"
_IDENT_RE = re.compile(_IDENT)
# Blanks and comments, written so that a text matches them in one way only:
# a failing match then backtracks in linear time.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*"
# Blanks and comments, then one token.  A comment that ends the text is part
# of the end-of-input token, which is therefore reported where it starts.
# Every position matches (BAD takes any other character), so the matches
# tile the text.
_TOKEN_RE = re.compile(
    rf"{_SKIP}(?:(?P<IDENT>{_IDENT})|(?P<SYM>->|[{{}}:;,*])|(?P<EOF>)(?:#[^\n]*)?\Z|(?P<BAD>.))",
    re.DOTALL,
)
_STATEMENTS = ("vertices", "special", "arrows", "relations")

# The reader of well-formed text works on the text with its comments removed.
# Identifiers hold none of the symbols, and only "quiver" is followed by
# another identifier, after a blank, so each pattern splits a text into
# tokens as _TOKEN_RE does.
_COMMENT_RE = re.compile(r"#[^\n]*")
_BLANKS = r"[ \t\r\n]*"
_HEAD_RE = re.compile(rf"{_BLANKS}quiver[ \t\r\n]+({_IDENT}){_BLANKS}\{{")
_KEYWORD_RE = re.compile(rf"{_BLANKS}({_IDENT}){_BLANKS}:")
_END_RE = re.compile(rf"{_BLANKS}\}}{_BLANKS}\Z")
_ITEM = {  # "@" stands for an identifier
    "vertices": "(@)",
    "special": "(@)",
    "arrows": "(@)@:@(@)@->@(@)",
    "relations": r"(@)@\*@(@)",
}
# One item of a statement's list, with the blanks around it and the "," after
# it (none after the last item).  It starts only at the start of the list or
# right after a ",", so split tries no other position beyond one look back;
# a list is well formed exactly when split leaves no text between its items.
# Its identifiers are read by the plain class _NAME, which, unlike _IDENT,
# also takes a "-" before a ">": the items read are the same (see the module
# docstring), and the class is quicker to match than _IDENT's group.
_NAME = r"[A-Za-z0-9_][A-Za-z0-9_+\-]*"
_ITEM_RE = {
    kind: re.compile(
        rf"(?<![^,]){_BLANKS}{item}{_BLANKS}(?:,(?!\Z)|\Z)"
        .replace("(@)", f"({_NAME})").replace("@", _BLANKS))
    for kind, item in _ITEM.items()
}


class SourceSpan(Record):
    __slots__ = ("line", "column", "length")

    def __init__(self, line: int, column: int, length: int):
        _set(self, "line", line)
        _set(self, "column", column)
        _set(self, "length", length)


def _span(text: str, token) -> SourceSpan:
    """Where a (kind, value, offset) token is: 1-based line and column, length."""
    _, value, offset = token
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1, max(len(value), 1))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) tokens, ending with ("EOF", "", offset).

    The kind of an identifier is "IDENT"; that of "->" and of punctuation is
    the symbol itself.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        token = (m[kind] if kind == "SYM" else kind, m[kind], m.start(kind))
        if kind == "BAD":
            raise ParseError(f"unexpected character {m[kind]!r}", _span(text, token))
        tokens.append(token)
        if kind == "EOF":
            return tokens


class _Parser:
    """The token parser: the diagnostic path for what ``_read`` rejects.

    ``file()`` gives what ``_read`` gives; ``firsts`` then holds, for each
    statement, the first token of each of its items.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.firsts: dict[str, list] = {}

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok) -> ParseError:
        return ParseError(message, _span(self.text, tok))

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            raise self.error(f"expected {what}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def file(self):
        head = self.expect("IDENT", "'quiver'")
        if head[1] != "quiver":
            raise self.error(f"expected 'quiver', found {head[1]!r}", head)
        name = self.expect("IDENT", "a quiver name")[1]
        self.expect("{", "'{'")
        seen: dict[str, list] = {}
        while self.peek() != "}":
            kw = self.expect("IDENT", "a statement keyword")
            if kw[1] not in _STATEMENTS:
                raise self.error(f"expected one of {', '.join(_STATEMENTS)}, found {kw[1]!r}", kw)
            if kw[1] in seen:
                raise self.error(f"duplicate {kw[1]!r} statement", kw)
            self.expect(":", "':'")
            seen[kw[1]] = self.items(kw[1])
            self.expect(";", "';'")
        self.expect("}", "'}'")
        end = self.expect("EOF", "end of input")
        if "vertices" not in seen:
            raise self.error("missing required 'vertices' statement", end)
        return name, seen

    def items(self, kind):
        items, firsts = [], self.firsts.setdefault(kind, [])
        if self.peek() == ";":
            if kind == "vertices":
                raise self.error("vertices statement must not be empty", self.tokens[self.pos])
            return items
        while True:
            firsts.append(self.tokens[self.pos])
            items.append(self.item(kind))
            if self.peek() != ",":
                return items
            self.take()

    def item(self, kind):
        first = self.expect("IDENT", "an identifier")[1]
        if kind in ("vertices", "special"):
            return first
        if kind == "arrows":
            self.expect(":", "':'")
            src = self.expect("IDENT", "a source vertex")[1]
            self.expect("->", "'->'")
            return first, src, self.expect("IDENT", "a target vertex")[1]
        self.expect("*", "'*'")
        return first, self.expect("IDENT", "an arrow name")[1]


def _items(kind: str, body: str):
    """The items of one statement's list, or None when it is not well formed."""
    if not body.strip(" \t\r\n"):
        return []
    split = _ITEM_RE[kind]
    parts, step = split.split(body), split.groups + 1
    if any(parts[::step]):  # text between or around the items
        return None
    if step == 2:
        return parts[1::2]
    return list(zip(*(parts[i::step] for i in range(1, step))))


def _read(text: str):
    """What ``_Parser(text).file()`` gives, read one statement at a time, or
    None when the text is not well formed."""
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    m = _HEAD_RE.match(text)
    if m is None:
        return None
    name, pos, seen = m[1], m.end(), {}
    while (m := _KEYWORD_RE.match(text, pos)) is not None:
        kind, end = m[1], text.find(";", m.end())
        if kind not in _STATEMENTS or kind in seen or end < 0:
            return None
        seen[kind] = _items(kind, text[m.end():end])
        if seen[kind] is None:
            return None
        pos = end + 1
    if not seen.get("vertices") or _END_RE.match(text, pos) is None:
        return None
    return name, seen


def parse(text: str) -> SkewedGentleTriple:
    """Parse a triple exactly as written; only referential integrity is checked."""
    name, stmts = _read(text) or _Parser(text).file()
    # an Arrow of each row the reader gives, with no Python call per row
    arrows = tuple(map(partial(tuple.__new__, Arrow), stmts.get("arrows", ())))
    relations, special = stmts.get("relations", []), stmts.get("special", [])
    relation_set, special_set = frozenset(relations), frozenset(special)
    try:
        # the sets hide these duplicates; the model's constructors check the rest
        if len(relation_set) < len(relations) or len(special_set) < len(special):
            raise DuplicateName("a relation or a special vertex is declared twice")
        pair = BoundQuiver(build_quiver(stmts["vertices"], arrows), relation_set)
        return SkewedGentleTriple(pair, special_set, name=name)
    except SkewGentleError:
        # the first bad item in written order, placed by the token parser
        statement, index, error = _first_bad_item(stmts["vertices"], arrows, relations, special)
        parser = _Parser(text)
        parser.file()
        raise IntegrityError(str(error), _span(text, parser.firsts[statement][index])) from None


def _require_ident(value, what):
    if not _IDENT_RE.fullmatch(value):
        raise ValueError(f"{what} {value!r} is not a serializable identifier")
    return value


def serialize(t: SkewedGentleTriple) -> str:
    """Canonical single-line form: fixed statement order, sorted identifiers."""
    q = t.pair.quiver
    return _serialized(t.name, q.vertex_list, t.special_list, q.arrows,
                       sorted(starmap(relation_text, t.pair.relations)))


def _serialized(name, vertices, special, arrows, relations) -> str:
    """The canonical form of a pair given as plain names: ``vertices`` and
    ``special`` sorted, ``arrows`` (name, source, target) sorted by name, and
    ``relations`` written ``x*y`` and sorted."""
    _require_ident(name, "quiver name")
    for v in vertices:
        _require_ident(v, "vertex")
    arrows = ", ".join(f"{_require_ident(a, 'arrow')}: {src} -> {tgt}" for a, src, tgt in arrows)
    relations = ", ".join(relations)
    return (
        f"quiver {name} {{ vertices: {', '.join(vertices)}; special: {', '.join(special)}; "
        f"arrows: {arrows}; relations: {relations}; }}"
    )
