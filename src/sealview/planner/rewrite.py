"""AST rewriting passes that turn parsed SQL into canonical form.

Pipeline order: push NOTs to the leaves, type the leaves against the
schema (turning inequalities into ranges over the order-preserving
unsigned domain), consolidate same-field siblings, rewrite ranges into
aligned-subtree covers, distribute to disjunctive normal form, and merge
each conjunction into a single predicate via secure concatenation of its
atoms (value sets combine as cross products).

Every pass reads and writes one leaf type, `TypedLeaf`; after
`ranges_to_in` no leaf is `ranged`. False is `FALSE`, the empty OR, so
an OR drops a false child by splicing it like any other OR child.

Families and views run the same passes, and the leaves say which is
which: a family's leaves (wildcards) carry `values=None` and only their
structure matters, while a view's leaves (literals) carry values. Every
value a view binds is computed by the `Atom` that evaluates rows on the
owner's side: `Atom.evaluate` for exact values, `Atom.point` for the
points that ranges and `!=` are built on, and `secure_concat` to join a
conjunction's parts, as `PredicateFn.evaluate` does. A view's predicates
are then aligned to the family's by atom identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..encoding import INT64_MAX, INT64_MIN, TYPE_INT64, TYPE_UTF8
from ..primitives import secure_concat
from .canonical import ATOM_FIELD, ATOM_HASH_BITS, ATOM_TOP_BITS, Atom, prefix_value
from .errors import PlannerError
from .sql import And, Leaf, Not, Or, Wildcard

INT_BITS = 64
HASH_BITS = 256

MAX_VALUES = 1 << 20  # the most values a view may bind (16 MiB of 16-byte view keys)
MAX_CLAUSES = 4096  # the most clauses a canonical form may hold

_FLIP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">", "in": "not in", "not in": "in"}


@dataclass(frozen=True)
class RangeSet:
    """Disjoint, sorted, inclusive intervals over [0, 2^total_bits)."""

    total_bits: int
    intervals: tuple[tuple[int, int], ...]

    @classmethod
    def from_intervals(cls, total_bits: int, raw) -> "RangeSet":
        top = (1 << total_bits) - 1
        spans = sorted(
            (max(lo, 0), min(hi, top)) for lo, hi in raw if lo <= hi and lo <= top and hi >= 0
        )
        merged: list[tuple[int, int]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return cls(total_bits, tuple(merged))

    @classmethod
    def excluding_points(cls, total_bits: int, points) -> "RangeSet":
        """The full domain minus the given point values."""
        top = (1 << total_bits) - 1
        spans = []
        last = 0
        for p in sorted(set(points)):
            if p > last:
                spans.append((last, p - 1))
            last = p + 1
        if last <= top:
            spans.append((last, top))
        return cls.from_intervals(total_bits, spans)

    def union(self, other: "RangeSet") -> "RangeSet":
        return RangeSet.from_intervals(self.total_bits, self.intervals + other.intervals)

    def intersect(self, other: "RangeSet") -> "RangeSet":
        out = []
        for alo, ahi in self.intervals:
            for blo, bhi in other.intervals:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    out.append((lo, hi))
        return RangeSet.from_intervals(self.total_bits, out)

    def is_empty(self) -> bool:
        return not self.intervals

    def cover(self, step_bits: int) -> dict[int, list[int]]:
        """Minimal aligned-subtree cover, as prefix values per level.

        Levels are counted in bits of prefix (0 = whole domain, total =
        a single value); each interval contributes at most 2*(2^b - 1)
        values per level. Greedy largest-aligned-block emission yields
        the canonical minimal cover. A cover of more than `MAX_VALUES`
        prefixes raises PlannerError as soon as it gets there, so the
        work stays bounded even where a wide branching factor would
        list 2^63 single values.
        """
        if self.total_bits % step_bits:
            raise PlannerError(
                f"branching bits {step_bits} must divide the {self.total_bits}-bit domain"
            )
        levels: dict[int, list[int]] = {}
        emitted = 0
        for lo, hi in self.intervals:
            cur = lo
            while cur <= hi:
                # Block size is bounded by cur's alignment and the room left.
                align = self.total_bits if cur == 0 else (cur & -cur).bit_length() - 1
                room = (hi - cur + 1).bit_length() - 1
                width = min(align, room, self.total_bits) // step_bits * step_bits
                # The same width repeats until the next block of the level
                # above, or until the room left is less than one block.
                prefix = cur >> width
                run = min((1 << step_bits) - prefix % (1 << step_bits), (hi - cur + 1) >> width)
                emitted += run
                if emitted > MAX_VALUES:
                    raise PlannerError(
                        f"view binding expands past {MAX_VALUES} values; "
                        f"the range cover at {step_bits} branching bits is too fine"
                    )
                levels.setdefault(self.total_bits - width, []).extend(range(prefix, prefix + run))
                cur += run << width
        return levels


@dataclass
class TypedLeaf:
    """A predicate leaf resolved against the schema.

    `atom` is the column's atom; `ranged` leaves hold the full-precision
    atom and are split into one membership leaf per level by
    `ranges_to_in`. For views, `values` holds the atom's value bytes
    (exact leaves) or a RangeSet of its points (ranged leaves); for
    families it is None and only the structure matters.
    """

    atom: Atom
    ranged: bool
    values: object
    wildcards: tuple[str, ...]


FALSE = Or([])  # the empty disjunction: no row satisfies it


def push_not_down(node):
    """Apply De Morgan's laws; the output tree has no NOT nodes."""
    if isinstance(node, Leaf):
        return node
    if isinstance(node, Not):
        return _negate(node.child)
    children = [push_not_down(c) for c in node.children]
    return type(node)(children)


def _negate(node):
    if isinstance(node, Leaf):
        return Leaf(node.column, _FLIP[node.op], node.rhs)
    if isinstance(node, Not):
        return push_not_down(node.child)
    flipped = Or if isinstance(node, And) else And
    return flipped([_negate(c) for c in node.children])


def _check_literal(value, column_type: str, column_name: str, exact: bool):
    """Reject a literal of the wrong type, a string that UTF-8 cannot
    encode (a command line's undecodable bytes), and an Int64 literal
    outside the domain where it must equal a value (a range clamps it
    instead)."""
    if value is None:
        return
    if column_type == TYPE_INT64 and not isinstance(value, int):
        raise PlannerError(f"column {column_name!r} is Int64; got {value!r}")
    if column_type == TYPE_INT64 and exact and not INT64_MIN <= value <= INT64_MAX:
        raise PlannerError(f"literal {value} is out of Int64 range for column {column_name!r}")
    if column_type == TYPE_UTF8 and not isinstance(value, str):
        raise PlannerError(f"column {column_name!r} is Utf8; got {value!r}")
    if column_type == TYPE_UTF8:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise PlannerError(f"literal {value!r} for column {column_name!r} is not valid UTF-8") from exc


def to_typed(node, schema):
    """Resolve leaves against the schema; inequalities become ranges."""
    if isinstance(node, (And, Or)):
        return type(node)([to_typed(c, schema) for c in node.children])
    assert isinstance(node, Leaf)
    col = schema.index_of(node.column)
    ctype = schema.columns[col].type
    family = isinstance(node.rhs, Wildcard)
    literals = () if family else node.rhs
    exact = node.op in ("=", "in")
    excluding = node.op in ("!=", "not in")
    for v in literals:
        _check_literal(v, ctype, node.column, exact)

    if ctype == TYPE_UTF8:
        if not (exact or excluding):
            raise PlannerError(f"string column {node.column!r} supports only = and != forms")
        atom = Atom(ATOM_FIELD, col) if exact else Atom(ATOM_HASH_BITS, col, HASH_BITS, HASH_BITS)
    else:
        atom = Atom(ATOM_TOP_BITS, col, INT_BITS, INT_BITS)

    if family:
        values = None
    elif exact:
        # Not deduplicated here: `MAX_VALUES` counts the literals as written.
        values = tuple(atom.evaluate(v, ctype) for v in literals)
    elif excluding:
        points = [atom.point(v) for v in literals if v is not None]
        values = RangeSet.excluding_points(atom.total_bits, points)
    else:
        (v,) = literals
        if v is None:
            raise PlannerError("NULL cannot be ordered against")
        u = atom.point(v)
        top = (1 << INT_BITS) - 1
        spans = {"<": (0, u - 1), "<=": (0, u), ">": (u + 1, top), ">=": (u, top)}[node.op]
        values = RangeSet.from_intervals(INT_BITS, [spans])
    wildcards = (node.rhs.name,) if family else ()
    return TypedLeaf(atom, not exact, values, wildcards)


def consolidate(node):
    """Merge same-field siblings: OR unions values, AND intersects ranges.
    An AND that holds FALSE is FALSE, and an OR splices FALSE away."""
    if isinstance(node, TypedLeaf):
        return _collapse_leaf(node)
    children = _merge_siblings(_splice(node, [consolidate(c) for c in node.children]), type(node))
    if isinstance(node, And) and any(isinstance(c, Or) and not c.children for c in children):
        return FALSE
    return children[0] if len(children) == 1 else type(node)(children)


def _splice(node, children) -> list:
    """`children` with each child of `node`'s own type replaced by its children."""
    out = []
    for child in children:
        out.extend(child.children if isinstance(child, type(node)) else [child])
    return out


def _collapse_leaf(leaf: TypedLeaf):
    """FALSE for a view range that holds no point, else the leaf. An
    exact leaf always binds a value: the grammar has no empty IN list."""
    return FALSE if leaf.ranged and leaf.values is not None and leaf.values.is_empty() else leaf


def _merge_siblings(children, op):
    """Merge the leaves of one AND or OR node that share an atom and form.

    Under OR every such leaf merges: values (or ranges) are unioned. Under
    AND only ranged leaves merge, by intersecting their ranges; exact
    leaves under AND are left for the conjunction's cross product.
    """
    out = []
    index: dict[tuple[Atom, bool], int] = {}
    for child in children:
        if not (isinstance(child, TypedLeaf) and (op is Or or child.ranged)):
            out.append(child)
            continue
        key = (child.atom, child.ranged)
        if key not in index:
            index[key] = len(out)
            out.append(child)
            continue
        prev = out[index[key]]
        if child.values is None:
            values = None
        elif op is And:
            values = prev.values.intersect(child.values)
        elif child.ranged:
            values = prev.values.union(child.values)
        else:
            values = tuple(dict.fromkeys(prev.values + child.values))
        wildcards = tuple(dict.fromkeys(prev.wildcards + child.wildcards))
        out[index[key]] = TypedLeaf(child.atom, child.ranged, values, wildcards)
    return [_collapse_leaf(c) if isinstance(c, TypedLeaf) else c for c in out]


def ranges_to_in(node, branching_bits: int):
    """Rewrite ranged leaves into per-level membership leaves.

    A family gets one leaf per level of the `2^branching_bits`-ary tree;
    a view gets the levels its range cover uses, with the cover's
    prefixes as values. Either list has a level: a family's holds level
    0, and `consolidate` has turned a view range with no point into
    FALSE, so its cover is not empty."""
    if isinstance(node, (And, Or)):
        children = _splice(node, [ranges_to_in(c, branching_bits) for c in node.children])
        return type(node)(children) if len(children) != 1 else children[0]
    if not node.ranged:
        return node
    total = node.atom.total_bits
    if node.values is None:
        levels = dict.fromkeys(range(0, total + 1, branching_bits))
    else:
        cover = node.values.cover(branching_bits)
        levels = {
            bits: tuple(prefix_value(p, bits) for p in cover[bits]) for bits in sorted(cover)
        }
    leaves = [
        TypedLeaf(Atom(node.atom.kind, node.atom.column, bits, total), False, values, node.wildcards)
        for bits, values in levels.items()
    ]
    return Or(leaves) if len(leaves) > 1 else leaves[0]


def to_dnf(node) -> list[list[TypedLeaf]]:
    """Distribute into a disjunction of conjunctions of membership leaves;
    FALSE, the empty OR, has no clauses.

    Each step's clause count is checked before its clauses are built, so
    a product past `MAX_CLAUSES` is refused without being built."""
    if isinstance(node, TypedLeaf):
        return [[node]]
    disjunction = isinstance(node, Or)
    result: list[list[TypedLeaf]] = [] if disjunction else [[]]
    for child in node.children:
        branches = to_dnf(child)
        size = len(result) + len(branches) if disjunction else len(result) * len(branches)
        if size > MAX_CLAUSES:
            raise PlannerError(
                f"canonical form exceeds {MAX_CLAUSES} clauses; "
                "a larger branching factor keeps the rewrite tractable"
            )
        if disjunction:
            result.extend(branches)
        else:
            result = [conj + branch for conj in result for branch in branches]
    return result


def eliminate_ands(conjuncts):
    """Merge each conjunction into one predicate; values cross-multiply.

    Returns (atoms, values, wildcards) triples with duplicate predicates
    (same atom tuple) merged in first-occurrence order; a family's values
    are empty. `MAX_VALUES` bounds the combination effect: the total
    value count across predicates grows as the product of the conjoined
    lists' sizes.
    """
    merged: dict[tuple[Atom, ...], tuple[dict, dict]] = {}
    total = 0
    for conj in conjuncts:
        values, wildcards = merged.setdefault(tuple(leaf.atom for leaf in conj), ({}, {}))
        wildcards.update(dict.fromkeys(name for leaf in conj for name in leaf.wildcards))
        if conj[0].values is None:
            continue
        total += math.prod(len(leaf.values) for leaf in conj)
        if total > MAX_VALUES:
            raise PlannerError(
                f"view binding expands past {MAX_VALUES} values; "
                "the conjoined value lists multiply out"
            )
        combos = itertools.product(*(leaf.values for leaf in conj))
        values.update(dict.fromkeys(map(secure_concat, combos)))
    return [
        (atoms, tuple(values), tuple(wildcards))
        for atoms, (values, wildcards) in merged.items()
    ]
