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

A well-formed file is read one statement at a time: one pattern checks the
shape of a statement's item list and one more extracts its items.  The token
parser gives the diagnostics: it runs only when that reader rejects the text,
to say where and why, or when an integrity check fails, to place the item.

A relation item ``x*y`` declares the 2-path "y, then x" to be zero.  The
canonical form emits the four statements in fixed order with identifiers
sorted, so serialize(parse(text)) is idempotent and parse(serialize(t))
returns a structurally equal triple.
"""

from __future__ import annotations

import re

from .errors import IntegrityError, ParseError
from .quiver import (
    Arrow,
    BoundQuiver,
    Record,
    SkewedGentleTriple,
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

# The reader of well-formed text.  Identifiers hold none of the symbols, and
# only "quiver" is followed by another identifier, after a blank or a
# comment, so each pattern splits a text into tokens as _TOKEN_RE does.
_HEAD_RE = re.compile(rf"{_SKIP}quiver(?=[ \t\r\n#]){_SKIP}({_IDENT}){_SKIP}\{{")
_KEYWORD_RE = re.compile(rf"{_SKIP}({_IDENT}){_SKIP}:")
_END_RE = re.compile(rf"{_SKIP}\}}{_SKIP}(?:#[^\n]*)?\Z")
_ITEM = {  # "@" stands for an identifier
    "vertices": "@",
    "special": "@",
    "arrows": f"@{_SKIP}:{_SKIP}@{_SKIP}->{_SKIP}@",
    "relations": rf"@{_SKIP}\*{_SKIP}@",
}
# A statement's item list up to its ";": the group "items" is absent when
# the list is empty.
_LIST_RE = {
    kind: re.compile(rf"{_SKIP}(?P<items>{item}{_SKIP}(?:,{_SKIP}{item}{_SKIP})*)?;"
                     .replace("@", _IDENT))
    for kind, item in _ITEM.items()
}
# One item with the blanks and comments before it and its "," or ";": over a
# nonempty list the matches tile it, so no item is read out of a comment.
_ITEM_RE = {
    kind: re.compile(rf"{_SKIP}{item}{_SKIP}[,;]".replace("@", f"({_IDENT})"))
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


def _read(text: str):
    """What ``_Parser(text).file()`` gives, read one statement at a time, or
    None when the text is not well formed."""
    m = _HEAD_RE.match(text)
    if m is None:
        return None
    name, pos, seen = m[1], m.end(), {}
    while (m := _KEYWORD_RE.match(text, pos)) is not None:
        kind = m[1]
        if kind not in _STATEMENTS or kind in seen:
            return None
        body = _LIST_RE[kind].match(text, m.end())
        if body is None:
            return None
        seen[kind] = _ITEM_RE[kind].findall(text, m.end(), body.end()) if body["items"] else []
        pos = body.end()
    if not seen.get("vertices") or _END_RE.match(text, pos) is None:
        return None
    return name, seen


def parse(text: str) -> SkewedGentleTriple:
    """Parse a triple exactly as written; only referential integrity is checked."""
    name, stmts = _read(text) or _Parser(text).file()

    def error(message, kind, index):
        # the token parser places the item, only for this diagnostic
        parser = _Parser(text)
        parser.file()
        return IntegrityError(message, _span(text, parser.firsts[kind][index]))

    vertices = set()
    for i, v in enumerate(stmts["vertices"]):
        if v in vertices:
            raise error(f"vertex {v!r} declared twice", "vertices", i)
        vertices.add(v)

    arrows = []
    arrow_names = {}
    for i, (a, src, tgt) in enumerate(stmts.get("arrows", ())):
        if a in arrow_names:
            raise error(f"arrow {a!r} declared twice", "arrows", i)
        if src not in vertices:
            raise error(f"arrow {a!r} starts at unknown vertex {src!r}", "arrows", i)
        if tgt not in vertices:
            raise error(f"arrow {a!r} ends at unknown vertex {tgt!r}", "arrows", i)
        arrow_names[a] = (src, tgt)
        arrows.append(Arrow(a, src, tgt))

    relations = set()
    for i, (x, y) in enumerate(stmts.get("relations", ())):
        for arrow in (x, y):
            if arrow not in arrow_names:
                raise error(f"relation names unknown arrow {arrow!r}", "relations", i)
        if arrow_names[y][1] != arrow_names[x][0]:
            raise error(
                f"relation {relation_text(x, y)} is not composable: "
                f"t({y}) = {arrow_names[y][1]!r} but s({x}) = {arrow_names[x][0]!r}",
                "relations", i,
            )
        if (x, y) in relations:
            raise error(f"relation {relation_text(x, y)} declared twice", "relations", i)
        relations.add((x, y))

    special = set()
    for i, v in enumerate(stmts.get("special", ())):
        if v not in vertices:
            raise error(f"special names unknown vertex {v!r}", "special", i)
        if v in special:
            raise error(f"special vertex {v!r} declared twice", "special", i)
        special.add(v)

    pair = BoundQuiver(build_quiver(vertices, arrows), frozenset(relations))
    return SkewedGentleTriple(pair, frozenset(special), name=name)


def _require_ident(value, what):
    if not _IDENT_RE.fullmatch(value):
        raise ValueError(f"{what} {value!r} is not a serializable identifier")
    return value


def serialize(t: SkewedGentleTriple) -> str:
    """Canonical single-line form: fixed statement order, sorted identifiers."""
    _require_ident(t.name, "quiver name")
    q = t.pair.quiver
    for v in q.vertex_list:
        _require_ident(v, "vertex")
    vertices = ", ".join(q.vertex_list)
    special = ", ".join(t.special_list)
    arrows = ", ".join(
        f"{_require_ident(a.name, 'arrow')}: {a.source} -> {a.target}"
        for a in q.arrows
    )
    relations = ", ".join(sorted(relation_text(x, y) for x, y in t.pair.relations))
    return (
        f"quiver {t.name} {{ vertices: {vertices}; special: {special}; "
        f"arrows: {arrows}; relations: {relations}; }}"
    )
