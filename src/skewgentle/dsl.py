"""Parser and canonical serializer for the triple description language.

Grammar::

    File  ::= "quiver" Ident "{" Stmt* "}"
    Stmt  ::= ("vertices" | "special" | "arrows" | "relations") ":" Items ";"
    Items ::= empty | Item ("," Item)*        (vertices must not be empty)
    Item  ::= Ident                           in vertices / special
            | Ident ":" Ident "->" Ident      in arrows
            | Ident "*" Ident                 in relations

``#`` starts a line comment, whitespace is insignificant, and identifiers
match ``[A-Za-z0-9_][A-Za-z0-9_+-]*``.  Since identifiers may end in "-",
the lexer gives "->" precedence: a trailing "-" directly before ">" closes
the identifier and starts the arrow token.

A relation item ``x*y`` declares the 2-path "y, then x" to be zero.  The
canonical form emits the four statements in fixed order with identifiers
sorted, so serialize(parse(text)) is idempotent and parse(serialize(t))
returns a structurally equal triple.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import IntegrityError, ParseError
from .quiver import Arrow, BoundQuiver, SkewedGentleTriple, build_quiver, relation_text

_IDENT_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_+\-]*")
_STATEMENTS = ("vertices", "special", "arrows", "relations")


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, LBRACE, RBRACE, COLON, SEMI, COMMA, STAR, ARROW, EOF
    value: str
    span: SourceSpan


_PUNCT = {"{": "LBRACE", "}": "RBRACE", ":": "COLON", ";": "SEMI", ",": "COMMA", "*": "STAR"}


def _tokenize(text: str) -> list[_Token]:
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
        span = SourceSpan(line, col, 1)
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, span))
            i, col = i + 1, col + 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("ARROW", "->", SourceSpan(line, col, 2)))
            i, col = i + 2, col + 2
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            value = m.group()
            if value.endswith("-") and m.end() < n and text[m.end()] == ">":
                value = value[:-1]
            tokens.append(_Token("IDENT", value, SourceSpan(line, col, len(value))))
            i, col = i + len(value), col + len(value)
            continue
        raise ParseError(f"unexpected character {ch!r}", span)
    tokens.append(_Token("EOF", "", SourceSpan(line, col, 1)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.value or 'end of input'!r}", tok.span)
        return tok

    def file(self):
        head = self.expect("IDENT", "'quiver'")
        if head.value != "quiver":
            raise ParseError(f"expected 'quiver', found {head.value!r}", head.span)
        name = self.expect("IDENT", "a quiver name").value
        self.expect("LBRACE", "'{'")
        seen: dict[str, list] = {}
        while self.peek().kind != "RBRACE":
            kw = self.expect("IDENT", "a statement keyword")
            if kw.value not in _STATEMENTS:
                raise ParseError(
                    f"expected one of {', '.join(_STATEMENTS)}, found {kw.value!r}", kw.span
                )
            if kw.value in seen:
                raise ParseError(f"duplicate {kw.value!r} statement", kw.span)
            self.expect("COLON", "':'")
            seen[kw.value] = self.items(kw.value)
            self.expect("SEMI", "';'")
        self.expect("RBRACE", "'}'")
        self.expect("EOF", "end of input")
        if "vertices" not in seen:
            raise ParseError("missing required 'vertices' statement",
                             self.tokens[-1].span)
        return name, seen

    def items(self, kind):
        items = []
        if self.peek().kind == "SEMI":
            if kind == "vertices":
                raise ParseError("vertices statement must not be empty", self.peek().span)
            return items
        while True:
            items.append(self.item(kind))
            if self.peek().kind != "COMMA":
                return items
            self.take()

    def item(self, kind):
        first = self.expect("IDENT", "an identifier")
        if kind in ("vertices", "special"):
            return first.value, first.span
        if kind == "arrows":
            self.expect("COLON", "':'")
            src = self.expect("IDENT", "a source vertex")
            self.expect("ARROW", "'->'")
            tgt = self.expect("IDENT", "a target vertex")
            return (first.value, src.value, tgt.value), first.span
        self.expect("STAR", "'*'")
        second = self.expect("IDENT", "an arrow name")
        return (first.value, second.value), first.span


def parse(text: str) -> SkewedGentleTriple:
    """Parse a triple exactly as written; only referential integrity is checked."""
    name, stmts = _Parser(text).file()

    vertices = set()
    for v, span in stmts["vertices"]:
        if v in vertices:
            raise IntegrityError(f"vertex {v!r} declared twice", span)
        vertices.add(v)

    arrows = []
    arrow_names = {}
    for (a, src, tgt), span in stmts.get("arrows", []):
        if a in arrow_names:
            raise IntegrityError(f"arrow {a!r} declared twice", span)
        if src not in vertices:
            raise IntegrityError(f"arrow {a!r} starts at unknown vertex {src!r}", span)
        if tgt not in vertices:
            raise IntegrityError(f"arrow {a!r} ends at unknown vertex {tgt!r}", span)
        arrow_names[a] = (src, tgt)
        arrows.append(Arrow(a, src, tgt))

    relations = set()
    for (x, y), span in stmts.get("relations", []):
        for arrow in (x, y):
            if arrow not in arrow_names:
                raise IntegrityError(f"relation names unknown arrow {arrow!r}", span)
        if arrow_names[y][1] != arrow_names[x][0]:
            raise IntegrityError(
                f"relation {relation_text(x, y)} is not composable: "
                f"t({y}) = {arrow_names[y][1]!r} but s({x}) = {arrow_names[x][0]!r}",
                span,
            )
        if (x, y) in relations:
            raise IntegrityError(f"relation {relation_text(x, y)} declared twice", span)
        relations.add((x, y))

    special = set()
    for v, span in stmts.get("special", []):
        if v not in vertices:
            raise IntegrityError(f"special names unknown vertex {v!r}", span)
        if v in special:
            raise IntegrityError(f"special vertex {v!r} declared twice", span)
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
