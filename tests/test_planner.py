"""Planner passes, golden covers, and planner-vs-oracle equivalence."""

import hashlib
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealview.encoding import TYPE_INT64, TYPE_UTF8
from sealview.model import Column, Schema
from sealview.oracle import eval_canonical, eval_view
from sealview.planner import (
    DEFAULT_MAX_VALUES,
    CanonicalFamily,
    ParseError,
    PlannerError,
    ViewFamilyMismatch,
    parse,
    plan_family,
    plan_view,
)
from sealview.planner.rewrite import (
    FalseLeaf,
    RangeSet,
    consolidate,
    push_not_down,
    ranges_to_in,
    to_dnf,
    to_typed,
)
from sealview.planner.sql import And, Leaf, Not, Or, Wildcard

from gen_random import random_family_and_view, random_rows, random_schema

BOATS = Schema(
    (
        Column("bid", TYPE_INT64),
        Column("bname", TYPE_UTF8),
        Column("color", TYPE_UTF8),
    )
)

INTS = Schema((Column("x", TYPE_INT64, nullable=True), Column("y", TYPE_INT64)))


# ---------------------------------------------------------------- parsing


def test_parse_two_predicate_family():
    stmt = parse("SELECT bname, color FROM boats WHERE bname IN ?x1 OR color IN ?x2", "family")
    assert stmt.projection == ["bname", "color"]
    assert isinstance(stmt.where, Or)
    ops = [(leaf.column, leaf.op, leaf.rhs) for leaf in stmt.where.children]
    assert ops == [("bname", "in", Wildcard("x1")), ("color", "in", Wildcard("x2"))]


def test_parse_requires_where_fields_projected():
    with pytest.raises(ParseError, match="must be selected"):
        parse("SELECT a FROM t WHERE b = ?x", "family")


def test_parse_rejects_unsupported_operator():
    with pytest.raises(ParseError):
        parse("SELECT * FROM t WHERE a LIKE ?x", "family")


def test_parse_rejects_aggregates_and_joins():
    with pytest.raises(ParseError):
        parse("SELECT COUNT(a) FROM t WHERE a = ?x", "family")
    with pytest.raises(ParseError):
        parse("SELECT * FROM t JOIN u WHERE a = ?x", "family")


def test_parse_view_rejects_wildcards():
    with pytest.raises(ParseError):
        parse("SELECT * FROM t WHERE a = ?x", "view")


def test_parse_string_escapes_and_null():
    stmt = parse("SELECT * FROM t WHERE a IN ('it''s', NULL)", "view")
    assert stmt.where.rhs == ("it's", None)


def test_string_inequality_other_than_ne_rejected():
    with pytest.raises(PlannerError, match="only = and !="):
        plan_family("SELECT * FROM t WHERE bname < ?x", BOATS.__class__(BOATS.columns))


# ------------------------------------------------------------- NOT pushdown


def test_push_not_de_morgan():
    node = push_not_down(
        Not(And([Leaf("a", "=", Wildcard("x")), Leaf("b", "=", Wildcard("y"))]))
    )
    assert isinstance(node, Or)
    assert [c.op for c in node.children] == ["!=", "!="]


def test_push_not_flips_comparison():
    node = push_not_down(Not(Leaf("a", "<", Wildcard("x"))))
    assert node.op == ">="


def test_push_not_double_negation():
    leaf = Leaf("a", "=", Wildcard("x"))
    assert push_not_down(Not(Not(leaf))).op == "="


def test_push_not_idempotent_random():
    rng = random.Random(21)
    for _ in range(50):
        schema = random_schema(rng)
        _, view_sql, _, _ = random_family_and_view(rng, schema)
        node = parse(view_sql, "view").where
        once = push_not_down(node)
        assert repr(push_not_down(once)) == repr(once)


# ----------------------------------------------------------------- ranges


def _typed(sql, schema=INTS, valued=True):
    stmt = parse(sql, "view" if valued else "family")
    return to_typed(push_not_down(stmt.where), schema)


def test_ge_becomes_top_range():
    leaf = _typed("SELECT * FROM t WHERE y >= 7")
    (interval,) = leaf.values.intervals
    assert interval == ((1 << 63) + 7, (1 << 64) - 1)


def test_ne_becomes_two_ranges():
    leaf = _typed("SELECT * FROM t WHERE y != 0")
    assert leaf.values.intervals == (
        (0, (1 << 63) - 1),
        ((1 << 63) + 1, (1 << 64) - 1),
    )


def test_below_domain_floor_collapses_to_false():
    leaf = _typed(f"SELECT * FROM t WHERE y < {-(1 << 63)}")
    assert leaf.values.is_empty()
    assert isinstance(consolidate(leaf), FalseLeaf)


# ------------------------------------------------------------ consolidation


def test_consolidate_merges_equalities_on_same_field():
    node = _typed("SELECT * FROM t WHERE x = 3 OR x = 9 OR x = 3")
    merged = consolidate(node)
    assert len(merged.values) == 2


def test_consolidate_intersects_and_ranges():
    node = consolidate(_typed("SELECT * FROM t WHERE y >= 3 AND y <= 9"))
    (interval,) = node.values.intervals
    assert interval == ((1 << 63) + 3, (1 << 63) + 9)


def test_consolidate_merges_overlapping_ranges():
    node = consolidate(
        _typed("SELECT * FROM t WHERE (y >= 1 AND y <= 5) OR (y >= 4 AND y <= 9)"),
    )
    (interval,) = node.values.intervals
    assert interval == ((1 << 63) + 1, (1 << 63) + 9)


def test_consolidate_empty_intersection_is_false():
    node = consolidate(_typed("SELECT * FROM t WHERE y >= 9 AND y <= 3"))
    assert isinstance(node, FalseLeaf)


def test_consolidate_idempotent():
    node = _typed("SELECT * FROM t WHERE x = 3 OR (y >= 1 AND y <= 5) OR x = 9")
    once = consolidate(node)
    assert repr(consolidate(once)) == repr(once)


# ------------------------------------------------------------- tree covers


def test_cover_three_bit_example():
    cover = RangeSet.from_intervals(3, [(0, 4)]).cover(1)
    assert cover == {1: [0], 3: [4]}


def test_cover_full_domain_single_root():
    assert RangeSet.full(8).cover(2) == {0: [0]}


def test_cover_point_range_is_exact_leaf():
    assert RangeSet.from_intervals(8, [(5, 5)]).cover(2) == {8: [5]}


def test_cover_size_bound():
    rng = random.Random(22)
    for _ in range(200):
        bits = rng.choice([8, 16, 64])
        step = rng.choice([1, 2, 4, 8])
        lo = rng.randrange(1 << bits)
        hi = rng.randrange(lo, 1 << bits)
        cover = RangeSet.from_intervals(bits, [(lo, hi)]).cover(step)
        per_level_cap = 2 * ((1 << step) - 1)
        assert all(len(v) <= per_level_cap for v in cover.values())
        assert sum(len(v) for v in cover.values()) <= per_level_cap * (bits // step)


def test_cover_reassembles_range():
    rng = random.Random(23)
    for _ in range(200):
        lo = rng.randrange(256)
        hi = rng.randrange(lo, 256)
        cover = RangeSet.from_intervals(8, [(lo, hi)]).cover(2)
        members = set()
        for bits, prefixes in cover.items():
            width = 8 - bits
            for p in prefixes:
                members.update(range(p << width, (p + 1) << width))
        assert members == set(range(lo, hi + 1))


# --------------------------------------------------------------------- DNF


def test_dnf_distributes():
    node = ranges_to_in(
        consolidate(_typed("SELECT * FROM t WHERE (x = 1 OR x = 2) AND y = 3")),
        8,
    )
    conjuncts = to_dnf(node, 4096)
    assert len(conjuncts) == 1  # x-leaf already merged to one two-value leaf
    node2 = ranges_to_in(
        consolidate(_typed("SELECT * FROM t WHERE (x = 1 OR y = 2) AND (x = 3 OR y = 4)")),
        8,
    )
    assert len(to_dnf(node2, 4096)) == 4


def test_dnf_cap_exceeded_raises():
    ints = Schema(tuple(Column(f"f{i}", TYPE_INT64) for i in range(5)))
    sql = "SELECT * FROM t WHERE " + " AND ".join(f"f{i} >= ?w{i}" for i in range(5))
    with pytest.raises(PlannerError, match="branching factor"):
        plan_family(sql, ints, branching_bits=8)


def test_dnf_cap_refuses_before_building_the_product():
    """Two ORs of three range pairs give 3,267 x 3,267 clauses at b=2; the
    cap must refuse that product before it builds it."""
    ints = Schema(tuple(Column(name, TYPE_INT64) for name in "abcdefghijkl"))
    half = " OR ".join(f"({x} >= ?w{i} AND {y} >= ?w{i + 1})" for i, (x, y) in enumerate(["ab", "cd", "ef"]))
    other = " OR ".join(f"({x} >= ?v{i} AND {y} >= ?v{i + 1})" for i, (x, y) in enumerate(["gh", "ij", "kl"]))
    sql = f"SELECT * FROM t WHERE ({half}) AND ({other})"
    tracemalloc.start()
    try:
        with pytest.raises(PlannerError, match="exceeds 4096 clauses"):
            plan_family(sql, ints, branching_bits=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


# --------------------------------------------------------- AND elimination


def _binding_counts(sizes):
    schema = Schema((Column("a", TYPE_INT64), Column("b", TYPE_INT64)))
    family = plan_family("SELECT * FROM t WHERE a = ?x AND b = ?y", schema)
    values_a = ", ".join(str(i) for i in range(sizes[0]))
    values_b = ", ".join(str(100 + i) for i in range(sizes[1]))
    view = plan_view(
        f"SELECT * FROM t WHERE a IN ({values_a}) AND b IN ({values_b})", family, schema
    )
    assert family.n_pred == 1
    return len(view.values[0])


@pytest.mark.parametrize("sizes,expected", [((2, 2), 4), ((3, 4), 12), ((1, 5), 5)])
def test_combination_effect_counts(sizes, expected):
    assert _binding_counts(sizes) == expected


def test_and_of_equalities_merges_into_concat_predicate():
    schema = Schema((Column("b", TYPE_INT64), Column("c", TYPE_UTF8)))
    family = plan_family("SELECT * FROM t WHERE b = ?x AND c = ?y", schema)
    assert family.n_pred == 1
    assert [a.kind for a in family.predicates[0].atoms] == ["topbits", "field"]
    view = plan_view("SELECT * FROM t WHERE b = 7 AND c = 'ab'", family, schema)
    rows = [[7, "ab"], [7, "cd"], [8, "ab"], [None, "ab"]]
    assert eval_canonical(schema, rows, view) == [(7, "ab")]


def test_single_leaf_conjunct_passes_through():
    schema = Schema((Column("a", TYPE_INT64),))
    family = plan_family("SELECT * FROM t WHERE a = ?x", schema)
    assert family.n_pred == 1
    assert len(family.predicates[0].atoms) == 1


def test_view_values_are_bounded_by_default():
    schema = Schema((Column("x", TYPE_INT64),))
    for bits in (32, 64):
        family = plan_family("SELECT * FROM t WHERE x < ?a", schema, branching_bits=bits)
        started = time.perf_counter()
        with pytest.raises(PlannerError, match=f"expands past {DEFAULT_MAX_VALUES} values"):
            plan_view("SELECT * FROM t WHERE x < 5", family, schema)
        assert time.perf_counter() - started < 5


HUGE = 99999999999999999999  # outside Int64 either way


@pytest.mark.parametrize("where", [f"x = {HUGE}", f"x = -{HUGE}", f"x IN (1, {HUGE})"])
def test_out_of_range_int64_literal_rejected_where_it_must_equal_a_value(where):
    family = plan_family("SELECT * FROM t WHERE x = ?a", INTS)
    with pytest.raises(PlannerError, match=f"{HUGE} is out of Int64 range for column 'x'"):
        plan_view(f"SELECT * FROM t WHERE {where}", family, INTS)


@pytest.mark.parametrize(
    "family_sql, where, same_as",
    [
        # A range clamps the literal to the domain.
        ("x < ?a", f"x < {HUGE}", "x <= 9223372036854775807"),
        ("x < ?a", f"x > -{HUGE}", "x >= -9223372036854775808"),
        ("x < ?a", f"x < -{HUGE}", "x < -9223372036854775808"),
        # Excluding a value no row holds excludes nothing.
        ("x != ?a", f"x != {HUGE}", "x >= -9223372036854775808"),
        ("x != ?a", f"x != -{HUGE}", "x >= -9223372036854775808"),
        ("x != ?a", f"x NOT IN (1, {HUGE})", "x != 1"),
    ],
)
def test_out_of_range_int64_literal_in_ranges_and_exclusions(family_sql, where, same_as):
    family = plan_family(f"SELECT * FROM t WHERE {family_sql}", INTS)
    got = plan_view(f"SELECT * FROM t WHERE {where}", family, INTS)
    assert got.values == plan_view(f"SELECT * FROM t WHERE {same_as}", family, INTS).values


def test_range_cover_stops_at_the_bound():
    assert RangeSet.from_intervals(8, [(1, 6)]).cover(1, max_values=4) == {8: [1, 6], 7: [1, 2]}
    with pytest.raises(PlannerError, match="expands past 3 values"):
        RangeSet.from_intervals(8, [(1, 6)]).cover(1, max_values=3)


# ----------------------------------------------------- family/view planning


def test_family_inequality_has_level_predicates():
    schema = Schema((Column("x", TYPE_INT64),))
    family = plan_family("SELECT * FROM t WHERE x >= ?w", schema, branching_bits=8)
    bits = [p.atoms[0].bits for p in family.predicates]
    assert bits == list(range(0, 72, 8))


def test_view_binds_cover_levels_and_leaves_rest_empty():
    schema = Schema((Column("x", TYPE_INT64),))
    family = plan_family("SELECT * FROM t WHERE x >= ?w AND x <= ?v", schema)
    view = plan_view("SELECT * FROM t WHERE x >= 0 AND x <= 255", family, schema)
    bound = {family.predicates[j].atoms[0].bits for j, v in enumerate(view.values) if v}
    assert bound == {56}  # one aligned 256-value subtree
    assert sum(1 for v in view.values if v) == 1


def test_unbound_or_branch_gets_empty_values():
    schema = Schema((Column("a", TYPE_INT64), Column("b", TYPE_INT64)))
    family = plan_family("SELECT * FROM t WHERE a = ?x OR b = ?y", schema)
    view = plan_view("SELECT * FROM t WHERE a IN (7, 8)", family, schema)
    assert [len(v) for v in view.values] == [2, 0]


def test_view_structure_mismatch_raises():
    schema = Schema((Column("a", TYPE_INT64), Column("b", TYPE_INT64)))
    family = plan_family("SELECT * FROM t WHERE a = ?x", schema)
    with pytest.raises(ViewFamilyMismatch):
        plan_view("SELECT * FROM t WHERE b = 5", family, schema)
    with pytest.raises(ViewFamilyMismatch):
        plan_view("SELECT a FROM t WHERE a = 5", family, schema)


def test_unknown_column_rejected():
    schema = Schema((Column("a", TYPE_INT64),))
    with pytest.raises(Exception, match="no column"):
        plan_family("SELECT * FROM t WHERE zz = ?x", schema)


# -------------------------------------------------------------- determinism


def test_serialization_deterministic_across_whitespace():
    schema = Schema((Column("a", TYPE_INT64), Column("b", TYPE_UTF8)))
    f1 = plan_family("SELECT * FROM t WHERE a >= ?x OR b = ?y", schema)
    f2 = plan_family("SELECT   *  FROM t\n WHERE a >= ?x   OR  b = ?y ;", schema)
    assert f1.serialize() == f2.serialize()
    assert f1.family_id == f2.family_id


def test_serialization_round_trip():
    rng = random.Random(24)
    for _ in range(30):
        schema = random_schema(rng)
        _, _, family, _ = random_family_and_view(rng, schema)
        blob = family.serialize()
        back = CanonicalFamily.deserialize(blob)
        assert back == family
        assert back.serialize() == blob


_MCF_BLOBS = (
    plan_family("SELECT bname, color FROM boats WHERE bname IN ?x1 OR color IN ?x2", BOATS).serialize(),
    plan_family("SELECT * FROM boats WHERE bid >= ?lo AND bid <= ?hi OR color = ?c", BOATS).serialize(),
)


@st.composite
def _mutated_families(draw):
    blob = draw(st.sampled_from(_MCF_BLOBS))
    kind = draw(st.sampled_from(("truncate", "flip", "append")))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=32))
    at = draw(st.integers(0, len(blob) - 1))
    return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]


@settings(max_examples=1500, deadline=500, derandomize=True)
@given(_mutated_families())
def test_mutated_families_raise_only_planner_errors(data):
    started = time.perf_counter()
    try:
        family = CanonicalFamily.deserialize(data)
    except PlannerError:
        return
    assert family.serialize() == data  # whatever parses is the one encoding of itself
    assert time.perf_counter() - started < 0.5


def test_family_counts_past_the_end_rejected():
    blob = _MCF_BLOBS[0]
    with pytest.raises(PlannerError, match="truncated"):
        CanonicalFamily.deserialize(blob[:7] + b"\xff\xff")  # 65,535 projected columns
    with pytest.raises(PlannerError, match="unknown atom kind"):
        CanonicalFamily.deserialize(blob.replace(b"\x00\x01\x01\x00\x01", b"\x00\x01\x09\x00\x01", 1))


def test_family_with_bad_branching_bits_rejected():
    blob = _MCF_BLOBS[1]
    assert blob[6] == 8  # magic, version, then the branching bits
    for bits in (0, 3, 128):
        with pytest.raises(PlannerError, match=f"branching bits must be .* got {bits}"):
            CanonicalFamily.deserialize(blob[:6] + bytes([bits]) + blob[7:])


# ------------------------------------------------- planner-sound randomized


def test_planner_equivalence_randomized():
    rng = random.Random(25)
    for _ in range(300):
        schema = random_schema(rng)
        rows = random_rows(rng, schema, max_rows=48)
        _, view_sql, _, view = random_family_and_view(rng, schema)
        expected = eval_view(schema, rows, view_sql)
        got = eval_canonical(schema, rows, view)
        assert got == expected, f"divergence for {view_sql}"


def test_ranges_to_in_idempotent():
    node = consolidate(_typed("SELECT * FROM t WHERE y >= 3 AND y <= 90000"))
    once = ranges_to_in(node, 8)
    assert repr(ranges_to_in(once, 8)) == repr(once)


# ------------------------------------------------------------ pinned bytes

# Family bytes name key files and manifest records, and view values derive
# view keys, so a rewrite of the planner must leave every one of them
# unchanged. The oracle tests above check what a plan means; this checks
# its bytes. The fixed plans are the acceptance criteria's families and
# views, and the benchmark's (perfbench/tables.py, with fixed labels).

_ACCEPTANCE_SCHEMA = Schema(
    (
        Column("a", TYPE_INT64),
        Column("b", TYPE_INT64),
        Column("k", TYPE_INT64),
        Column("label", TYPE_UTF8),
        Column("v", TYPE_INT64),
    )
)
_WINDOW = (171 << 24, (187 << 24) - 1)
_ACCEPTANCE_PLANS = [
    ("SELECT * FROM t WHERE a = ?x AND b = ?y", ["SELECT * FROM t WHERE a IN (0, 1, 2) AND b IN (100, 101, 102, 103)"]),
    ("SELECT * FROM t WHERE k = ?x OR label = ?y", ["SELECT * FROM t WHERE k IN (7, 19, 23, 101) OR label = 'ccc'"]),
    (
        "SELECT * FROM t WHERE v >= ?lo AND v <= ?hi",
        ["SELECT * FROM t WHERE v >= %d AND v <= %d" % _WINDOW]
        + [f"SELECT * FROM t WHERE v >= 0 AND v <= {k * (1 << 23) - 1}" for k in (5, 26, 51, 128, 256)],
    ),
    ("SELECT * FROM t WHERE k = ?x", ["SELECT * FROM t WHERE k = 3"]),
    ("SELECT k, label FROM t WHERE label = ?x", ["SELECT k, label FROM t WHERE label IN ('x', NULL)"]),
]

_BENCH_SCHEMA = Schema(
    (
        Column("id", TYPE_INT64),
        Column("grp", TYPE_INT64),
        Column("v", TYPE_INT64),
        Column("label", TYPE_UTF8, nullable=True),
    )
)
_LABELS = ", ".join(f"'w{i:03d}'" for i in range(100))
_BENCH_PLANS = [
    ("SELECT * FROM t WHERE grp = ?x", [f"SELECT * FROM t WHERE grp IN ({', '.join(map(str, range(32)))})"]),
    (
        "SELECT id, grp, label FROM t WHERE grp = ?g OR label = ?l",
        [
            f"SELECT id, grp, label FROM t WHERE grp IN ({', '.join(map(str, range(32)))}) "
            f"OR label IN ({_LABELS}) OR label = NULL",
            f"SELECT id, grp, label FROM t WHERE grp IN ({', '.join(map(str, range(32, 64)))}) OR label = NULL",
        ],
    ),
    ("SELECT * FROM t WHERE v >= ?lo AND v <= ?hi", ["SELECT * FROM t WHERE v >= %d AND v <= %d" % _WINDOW]),
]


def _plan_digest() -> str:
    digest = hashlib.sha256()

    def absorb(family, view):
        parts = [family.serialize(), family.family_id.encode()]
        for values in view.values:
            parts.append(len(values).to_bytes(4, "big"))
            parts.extend(len(value).to_bytes(4, "big") + value for value in values)
        digest.update(b"".join(parts))

    for bits in (1, 2, 4, 8):
        for seed in range(500):
            rng = random.Random(seed)
            _, _, family, view = random_family_and_view(rng, random_schema(rng), branching_bits=bits)
            absorb(family, view)
    for schema, plans in ((_ACCEPTANCE_SCHEMA, _ACCEPTANCE_PLANS), (_BENCH_SCHEMA, _BENCH_PLANS)):
        for family_sql, view_sqls in plans:
            family = plan_family(family_sql, schema)
            for view_sql in view_sqls:
                absorb(family, plan_view(view_sql, family, schema))
    return digest.hexdigest()


def test_plans_are_byte_identical_to_the_pinned_digest():
    """The digest was taken from the planner that still passed a
    family/view flag and encoded view values apart from `Atom`."""
    assert _plan_digest() == "5b2451bec4b2b9609f3ca09db1e35b75b124dec9613e2fe30a3c33155ecedf4d"
