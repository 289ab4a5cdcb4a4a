"""Planner: rewrite view-family and view SQL into canonical form."""

from __future__ import annotations

from ..model import Schema
from .canonical import Atom, CanonicalFamily, CanonicalView, PredicateFn, check_branching_bits
from .errors import ParseError, PlannerError, ViewFamilyMismatch
from .rewrite import (
    MAX_CLAUSES,
    MAX_VALUES,
    consolidate,
    eliminate_ands,
    push_not_down,
    ranges_to_in,
    to_dnf,
    to_typed,
)
from .sql import parse

DEFAULT_BRANCHING_BITS = 8

__all__ = [
    "Atom",
    "CanonicalFamily",
    "CanonicalView",
    "DEFAULT_BRANCHING_BITS",
    "MAX_CLAUSES",
    "MAX_VALUES",
    "ParseError",
    "PlannerError",
    "PredicateFn",
    "ViewFamilyMismatch",
    "describe_plan",
    "parse",
    "plan_family",
    "plan_view",
]


def _projection_indices(stmt, schema: Schema) -> tuple[int, ...]:
    if stmt.projection is None:
        return tuple(range(len(schema)))
    return tuple(schema.index_of(name) for name in stmt.projection)


def _run_passes(where, schema: Schema, branching_bits: int):
    node = push_not_down(where)
    node = to_typed(node, schema)
    node = consolidate(node)
    node = ranges_to_in(node, branching_bits)
    return eliminate_ands(to_dnf(node))


def plan_family(sql: str, schema: Schema, branching_bits: int = DEFAULT_BRANCHING_BITS) -> CanonicalFamily:
    """Rewrite family SQL (wildcard predicates) into canonical form.

    `branching_bits` must be 1, 2, 4, 8, 16, 32 or 64; any other value
    raises PlannerError before the SQL is read."""
    check_branching_bits(branching_bits)
    stmt = parse(sql, "family")
    projected = _projection_indices(stmt, schema)
    triples = _run_passes(stmt.where, schema, branching_bits)
    return CanonicalFamily(
        projected=projected,
        predicates=tuple(PredicateFn(atoms) for atoms, _, _ in triples),
        wildcard_names=tuple(wc for _, _, wc in triples),
        branching_bits=branching_bits,
    )


def plan_view(sql: str, family: CanonicalFamily, schema: Schema) -> CanonicalView:
    """Bind view SQL (literal predicates) against an instantiated family.

    The view runs through the identical pass pipeline; its predicates are
    aligned to the family's by atom identity. Family predicates the view
    does not bind get empty value lists. A view binds at most
    `MAX_VALUES` values (2^20, which is 16 MiB of view keys):
    a range cover or a cross product of conjoined lists that would
    exceed it raises PlannerError before it is built in full.
    """
    stmt = parse(sql, "view")
    projected = _projection_indices(stmt, schema)
    if projected != family.projected:
        raise ViewFamilyMismatch(
            "view projection does not match the family's projected columns"
        )
    triples = _run_passes(stmt.where, schema, family.branching_bits)
    by_atoms = {pred.atoms: j for j, pred in enumerate(family.predicates)}
    values: list[tuple[bytes, ...]] = [()] * family.n_pred
    # eliminate_ands merged equal atom tuples, so each j is bound once.
    for atoms, vals, _ in triples:
        j = by_atoms.get(atoms)
        if j is None:
            raise ViewFamilyMismatch(
                "view predicate structure has no counterpart in the family"
            )
        values[j] = vals
    return CanonicalView(family, tuple(values))


def describe_plan(
    family: CanonicalFamily, schema: Schema, view: CanonicalView | None = None
) -> dict:
    """JSON-ready summary of a plan: predicates, atoms, and value counts."""
    preds = []
    for j, pred in enumerate(family.predicates):
        entry = {
            "index": j + 1,
            "atoms": [a.describe(schema.columns[a.column].name) for a in pred.atoms],
            "wildcards": list(family.wildcard_names[j]),
        }
        if view is not None:
            entry["value_count"] = len(view.values[j])
        preds.append(entry)
    out = {
        "family_id": family.family_id,
        "projected": [schema.columns[i].name for i in family.projected],
        "branching_bits": family.branching_bits,
        "predicate_count": family.n_pred,
        "predicates": preds,
    }
    if view is not None:
        out["total_values"] = sum(len(v) for v in view.values)
    return out
