"""Reference evaluator: views interpreted directly over plaintext rows.

This is the ground truth for planner-equivalence and end-to-end
completeness testing, so it interprets the parsed WHERE tree with no
rewriting at all. Comparison semantics are Kleene three-valued with NULL
literals special-cased as a distinguished value:

  * `x = NULL` is true exactly on null cells; `x != NULL` exactly on
    non-null cells.
  * Comparing a null cell against a non-null constant (any operator) is
    unknown, and unknown rows are excluded — so ordered predicates never
    match null cells, and `NOT (x = 5)` selects the same rows as
    `x != 5`.

These rules mirror what the encrypted path computes, which is the point:
the oracle, the canonical evaluator, and the backend must agree row for
row.
"""

from __future__ import annotations

from .model import Schema
from .planner import CanonicalView, _projection_indices, parse
from .planner.sql import And, Leaf, Not

_TRUE, _FALSE, _UNKNOWN = True, False, None


def _eval_scalar(value, op: str, constant):
    if constant is None:
        present = value is not None
        if op in ("=", "in"):
            return not present
        if op in ("!=", "not in"):
            return present
        raise ValueError("NULL cannot be ordered against")
    if value is None:
        return _UNKNOWN
    if op in ("=", "in"):
        return value == constant
    if op in ("!=", "not in"):
        return value != constant
    if op == "<":
        return value < constant
    if op == "<=":
        return value <= constant
    if op == ">":
        return value > constant
    return value >= constant


def _or3(results):
    if any(r is _TRUE for r in results):
        return _TRUE
    if any(r is _UNKNOWN for r in results):
        return _UNKNOWN
    return _FALSE


def _and3(results):
    if any(r is _FALSE for r in results):
        return _FALSE
    if any(r is _UNKNOWN for r in results):
        return _UNKNOWN
    return _TRUE


def _not3(result):
    if result is _UNKNOWN:
        return _UNKNOWN
    return not result


def _eval_node(node, row, schema: Schema):
    if isinstance(node, Leaf):
        value = row[schema.index_of(node.column)]
        if node.op in ("=", "in"):
            return _or3([_eval_scalar(value, "=", c) for c in node.rhs])
        if node.op in ("!=", "not in"):
            return _and3([_eval_scalar(value, "!=", c) for c in node.rhs])
        (constant,) = node.rhs
        return _eval_scalar(value, node.op, constant)
    if isinstance(node, Not):
        return _not3(_eval_node(node.child, row, schema))
    if isinstance(node, And):
        return _and3([_eval_node(c, row, schema) for c in node.children])
    return _or3([_eval_node(c, row, schema) for c in node.children])


def eval_view(schema: Schema, rows: list[list], sql: str) -> list[tuple]:
    """Rows (in table order) whose WHERE is true, projected."""
    stmt = parse(sql, "view")
    projected = _projection_indices(stmt, schema)
    out = []
    for row in rows:
        if _eval_node(stmt.where, row, schema) is _TRUE:
            out.append(tuple(row[i] for i in projected))
    return out


def eval_canonical(schema: Schema, rows: list[list], view: CanonicalView) -> list[tuple]:
    """Second oracle: a row matches iff some predicate value is bound.

    Evaluates the canonical form directly on plaintext, separating
    planner bugs from backend bugs.
    """
    out = []
    for row in rows:
        if view.matches_row(row, schema):
            out.append(tuple(row[i] for i in view.family.projected))
    return out
