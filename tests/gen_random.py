"""Random tables, view families, and view bindings for equivalence tests.

Trees stay small enough that the canonical form never approaches the
clause cap: inequality leaves expand to one predicate per tree level, and
AND nodes multiply them out.
"""

from __future__ import annotations

import random
from unittest import mock

from sealview.encoding import TYPE_INT64, TYPE_UTF8
from sealview.model import Column, Schema
from sealview.planner import PlannerError, plan_family, plan_view, rewrite

_WORDS = ["ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew"]


def random_schema(rng: random.Random, max_columns: int = 6) -> Schema:
    n = rng.randint(1, max_columns)
    cols = []
    for i in range(n):
        ctype = rng.choice([TYPE_INT64, TYPE_INT64, TYPE_UTF8])
        cols.append(Column(f"c{i}", ctype, nullable=rng.random() < 0.4))
    return Schema(tuple(cols))


def random_value(rng: random.Random, col: Column):
    if col.nullable and rng.random() < 0.15:
        return None
    if col.type == TYPE_INT64:
        if rng.random() < 0.1:
            return rng.choice([-(1 << 63), (1 << 63) - 1, 0])
        return rng.randint(-40, 40)
    return rng.choice(_WORDS)


def random_rows(rng: random.Random, schema: Schema, max_rows: int = 64) -> list[list]:
    n = rng.randint(0, max_rows)
    return [[random_value(rng, c) for c in schema.columns] for _ in range(n)]


def _literal_sql(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, int):
        return str(value)
    return "'" + value.replace("'", "''") + "'"


class _LeafSpec:
    def __init__(self, column: Column, op: str, wildcard: str):
        self.column = column
        self.op = op
        self.wildcard = wildcard

    def family_sql(self) -> str:
        return f"{self.column.name} {self.op} ?{self.wildcard}"

    def view_sql(self, rng: random.Random) -> str:
        ordered = self.op in ("<", "<=", ">", ">=")
        n_values = 1 if ordered else rng.randint(1, 3)
        values = []
        for _ in range(n_values):
            v = random_value(rng, self.column)
            if ordered and v is None:
                v = rng.randint(-40, 40)
            values.append(v)
        if len(values) == 1:
            return f"{self.column.name} {self.op} {_literal_sql(values[0])}"
        body = ", ".join(_literal_sql(v) for v in values)
        if self.op in ("=", "in"):
            return f"{self.column.name} IN ({body})"
        return f"{self.column.name} NOT IN ({body})"


class _TreeSpec:
    def __init__(self, kind: str, children: list):
        self.kind = kind  # 'and' | 'or' | 'not'
        self.children = children

    def family_sql(self) -> str:
        if self.kind == "not":
            return f"NOT ({self.children[0].family_sql()})"
        joiner = f" {self.kind.upper()} "
        return "(" + joiner.join(c.family_sql() for c in self.children) + ")"

    def view_sql(self, rng: random.Random) -> str | None:
        if self.kind == "not":
            inner = self.children[0].view_sql(rng)
            return None if inner is None else f"NOT ({inner})"
        parts = []
        for i, child in enumerate(self.children):
            # An OR branch may be left unbound (dropped from the view);
            # AND conjuncts must all be present to keep the structure.
            if self.kind == "or" and len(self.children) > 1 and rng.random() < 0.2:
                continue
            parts.append(child.view_sql(rng))
        parts = [p for p in parts if p is not None]
        if not parts:
            if self.kind == "not":
                return None
            parts = [self.children[0].view_sql(rng)]
        joiner = f" {self.kind.upper()} "
        return "(" + joiner.join(parts) + ")"


def _random_tree(rng: random.Random, schema: Schema, depth: int, counter: list) -> object:
    if depth == 0 or rng.random() < 0.45:
        col = rng.choice(schema.columns)
        if col.type == TYPE_UTF8:
            op = rng.choices(["=", "!=", "in"], weights=[5, 2, 2])[0]
        else:
            op = rng.choices(["=", "<", ">=", "!=", "in"], weights=[4, 2, 2, 2, 2])[0]
        counter[0] += 1
        return _LeafSpec(col, op, f"w{counter[0]}")
    kind = rng.choices(["and", "or", "not"], weights=[3, 4, 2])[0]
    if kind == "not":
        return _TreeSpec("not", [_random_tree(rng, schema, depth - 1, counter)])
    n = rng.randint(2, 3)
    return _TreeSpec(kind, [_random_tree(rng, schema, depth - 1, counter) for _ in range(n)])


def random_family_and_view(rng: random.Random, schema: Schema, branching_bits: int = 8):
    """Family SQL, a matching view SQL, and their canonical plans."""
    for _ in range(40):
        tree = _random_tree(rng, schema, depth=rng.randint(1, 2), counter=[0])
        if isinstance(tree, _LeafSpec):
            where_cols = {tree.column.name}
        else:
            where_cols = _tree_columns(tree)
        if rng.random() < 0.4:
            select = "*"
        else:
            extra = [c.name for c in schema.columns if rng.random() < 0.3]
            names = sorted(where_cols | set(extra))
            select = ", ".join(names)
        family_sql = f"SELECT {select} FROM t WHERE {tree.family_sql()}"
        view_sql = f"SELECT {select} FROM t WHERE {tree.view_sql(rng)}"
        try:
            family = plan_family(family_sql, schema, branching_bits=branching_bits)
            if family.n_pred > 150:
                continue
            # A tighter value bound keeps each generated view small.
            with mock.patch.object(rewrite, "MAX_VALUES", 6_000):
                view = plan_view(view_sql, family, schema)
        except PlannerError:
            continue
        return family_sql, view_sql, family, view
    raise RuntimeError("could not generate a plannable family")


def _tree_columns(tree) -> set[str]:
    if isinstance(tree, _LeafSpec):
        return {tree.column.name}
    return set().union(*(_tree_columns(c) for c in tree.children))
