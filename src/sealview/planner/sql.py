"""Restricted SQL grammar for access-control view families and views.

One SELECT ... FROM ... WHERE ... statement; the WHERE clause is a
boolean tree of AND/OR/NOT over predicates. Each predicate compares a
column against a wildcard (`?name`, family form) or literal constants
(view form). Integers support =, !=, <, <=, >, >=, IN, NOT IN; strings
support only the equality forms. Aggregates, joins, subqueries, and
function application are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

STAR = None  # projection value meaning SELECT *

_KEYWORDS = {"select", "from", "where", "and", "or", "not", "in", "null"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<wildcard>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),;*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Wildcard:
    name: str


@dataclass
class Leaf:
    column: str
    op: str  # '=', '!=', '<', '<=', '>', '>=', 'in', 'not in'
    rhs: Wildcard | tuple  # literal tuple for views


@dataclass
class Not:
    child: object


@dataclass
class And:
    children: list


@dataclass
class Or:
    children: list


@dataclass
class Statement:
    projection: list[str] | None  # None means SELECT *
    where: object


def _tokenize(sql: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise ParseError(f"unexpected character {sql[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        if kind == "ident" and text.lower() in _KEYWORDS:
            tokens.append((text.lower(), text))
        else:
            tokens.append((kind, text))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, sql: str, kind: str):
        self.tokens = _tokenize(sql)
        self.pos = 0
        self.kind = kind

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self, expected: str | None = None) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        if expected is not None and tok[0] != expected:
            raise ParseError(f"expected {expected}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.peek()[0] == kind

    def statement(self) -> Statement:
        self.take("select")
        projection = self.select_list()
        self.take("from")
        self.take("ident")  # the table name, which the statement does not keep
        self.take("where")
        where = self.or_expr()
        if self.at("punct") and self.peek()[1] == ";":
            self.take()
        if not self.at("eof"):
            raise ParseError(f"trailing input near {self.peek()[1]!r}")
        return Statement(projection, where)

    def select_list(self) -> list[str] | None:
        if self.at("punct") and self.peek()[1] == "*":
            self.take()
            return STAR
        names = [self.take("ident")[1]]
        while self.at("punct") and self.peek()[1] == ",":
            self.take()
            names.append(self.take("ident")[1])
        if len(set(names)) != len(names):
            raise ParseError("duplicate column in SELECT list")
        return names

    def or_expr(self):
        children = [self.and_expr()]
        while self.at("or"):
            self.take()
            children.append(self.and_expr())
        return children[0] if len(children) == 1 else Or(children)

    def and_expr(self):
        children = [self.not_expr()]
        while self.at("and"):
            self.take()
            children.append(self.not_expr())
        return children[0] if len(children) == 1 else And(children)

    def not_expr(self):
        if self.at("not"):
            self.take()
            # `NOT IN` never reaches here; it is consumed inside predicate().
            return Not(self.not_expr())
        if self.at("punct") and self.peek()[1] == "(":
            self.take()
            node = self.or_expr()
            if not (self.at("punct") and self.peek()[1] == ")"):
                raise ParseError("unbalanced parenthesis")
            self.take()
            return node
        return self.predicate()

    def predicate(self) -> Leaf:
        column = self.take("ident")[1]
        if self.at("ident"):
            raise ParseError(f"unsupported operator {self.peek()[1]!r}")
        if self.at("punct") and self.peek()[1] == "(":
            raise ParseError(f"function application on {column!r} is not supported")
        negated = False
        if self.at("not"):
            self.take()
            negated = True
            if not self.at("in"):
                raise ParseError("expected IN after NOT")
        if self.at("in"):
            self.take()
            op = "not in" if negated else "in"
            return Leaf(column, op, self.in_rhs())
        if negated:
            raise ParseError("dangling NOT")
        tok = self.take("op")
        op = "!=" if tok[1] == "<>" else tok[1]
        return Leaf(column, op, self.scalar_rhs())

    def in_rhs(self):
        if self.kind == "family":
            return self.wildcard()
        self.take_open()
        values = [self.literal()]
        while self.at("punct") and self.peek()[1] == ",":
            self.take()
            values.append(self.literal())
        self.take_close()
        return tuple(values)

    def scalar_rhs(self):
        if self.kind == "family":
            return self.wildcard()
        return (self.literal(),)

    def wildcard(self) -> Wildcard:
        name = self.take("wildcard")[1][1:]
        # A serialized family stores a name's length in one byte; the
        # grammar's names are ASCII, one byte a character.
        if len(name) > 255:
            raise ParseError(f"wildcard ?{name[:16]}... is longer than 255 characters")
        return Wildcard(name)

    def take_open(self):
        if not (self.at("punct") and self.peek()[1] == "("):
            raise ParseError("expected ( before IN list")
        self.take()

    def take_close(self):
        if not (self.at("punct") and self.peek()[1] == ")"):
            raise ParseError("expected ) after IN list")
        self.take()

    def literal(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return int(tok[1])
        if tok[0] == "string":
            self.take()
            return tok[1][1:-1].replace("''", "'")
        if tok[0] == "null":
            self.take()
            return None
        if tok[0] == "wildcard":
            raise ParseError("wildcards are not allowed in views")
        raise ParseError(f"expected literal, found {tok[1]!r}")


def referenced_columns(node) -> set[str]:
    if isinstance(node, Leaf):
        return {node.column}
    if isinstance(node, Not):
        return referenced_columns(node.child)
    return set().union(*(referenced_columns(c) for c in node.children))


def parse(sql: str, kind: str) -> Statement:
    """Parse one statement; `kind` selects wildcard or literal predicates."""
    if kind not in ("family", "view"):
        raise ValueError("kind must be 'family' or 'view'")
    stmt = _Parser(sql, kind).statement()
    if stmt.projection is not None:
        missing = referenced_columns(stmt.where) - set(stmt.projection)
        if missing:
            raise ParseError(
                f"columns used in WHERE must be selected: {', '.join(sorted(missing))}"
            )
    return stmt
