"""Protocol tests: the boats running example, layer structure, and
randomized end-to-end completeness against the plaintext oracle."""

import functools
import pickle
import random
import re
import string
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealview import backend, primitives
from sealview.backend import (
    AddFamilyStats,
    BackendError,
    FamilyParams,
    PartitionScan,
    RevealStats,
    ViewKeySet,
    add_family,
    encrypt_partition,
    generate_view_keys,
    random_key,
    reveal_partition,
)
from sealview.encoding import TYPE_INT64, TYPE_UTF8, EncodingError, decode_cell, encode_cell
from sealview.mep import PartitionFormatError, parse_encrypted, serialize_encrypted
from sealview.model import Column, FamilyColumns, FixedWidthColumn, PlainPartition, Schema, SchemaError
from sealview.oracle import eval_view
from sealview.planner import plan_family, plan_view
from sealview.primitives import (
    DOMAIN_PROJECTION_BLOB,
    DOMAIN_PROJECTION_CHECK,
    DOMAIN_SELECTION,
    ZERO_BLOCK,
    BlockCipher,
    CellPosition,
    CryptoError,
    ote,
    pack_block,
    secure_concat,
    split_concat,
)

from gen_random import random_family_and_view, random_rows, random_schema
from mep_edit import with_cell_end

FAMILY_SQL = "SELECT bname, color FROM boats WHERE bname IN ?x1 OR color IN ?x2"
VIEW_SQL = "SELECT bname, color FROM boats WHERE bname IN ('Interlake') OR color IN ('red')"

TABLE_KEY = bytes.fromhex("00112233445566778899aabbccddeeff")
FAMILY_KEY = bytes.fromhex("0f0e0d0c0b0a09080706050403020100")


def _setup_boats(boats_schema, boats_partition, params=None):
    family = plan_family(FAMILY_SQL, boats_schema)
    enc_part = encrypt_partition(boats_partition, boats_schema, TABLE_KEY)
    stats = AddFamilyStats()
    add_family(
        enc_part,
        boats_schema,
        TABLE_KEY,
        family,
        FAMILY_KEY,
        params or FamilyParams(rng_seed=7),
        stats=stats,
    )
    return family, enc_part, stats


def test_running_example_reveal(boats_schema, boats_partition):
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    view = plan_view(VIEW_SQL, family, boats_schema)
    keys = generate_view_keys(view, FAMILY_KEY)
    assert keys.total_keys() == 2
    stats = RevealStats()
    rows = reveal_partition(enc_part, boats_schema, family, keys, stats=stats)
    assert rows == [("Interlake", "blue"), ("Interlake", "red"), ("Marine", "red")]
    # Row 2 matches both predicates but is emitted once; both keys advance.
    by_pred = {pred: count for (pred, _), count in stats.final_counts.items()}
    assert by_pred == {1: 2, 2: 2}
    assert stats.rows_emitted == 3


def test_tagging_column_matches_manual_derivation(boats_schema, boats_partition):
    # Recompute the selection/tagging chain from the raw derivation rules
    # and compare against what the instantiation wrote.
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    cols = enc_part.families[family.family_id]
    pred2_key = BlockCipher(FAMILY_KEY).prf(pack_block(2))
    color_values = ["blue", "red", "green", "red"]
    counts = {}
    for r0, color in enumerate(color_values):
        g_value = secure_concat([encode_cell(color, TYPE_UTF8)])
        s = BlockCipher(pred2_key).mac(g_value)
        tau = BlockCipher(s).prf(pack_block(1))
        count = counts.get(s, 0)
        counts[s] = count + 1
        expected_tag = BlockCipher(tau).prf(pack_block(count))[:4]
        assert cols.tagging[r0][4:8] == expected_tag


def test_rows_sharing_a_value_share_selection_key_but_not_tags(boats_schema, boats_partition):
    family, enc_part, stats = _setup_boats(boats_schema, boats_partition)
    cols = enc_part.families[family.family_id]
    # Rows 2 and 4 are both red: one selection key counted twice.
    assert 2 in stats.tag_counts.values()
    assert cols.tagging[1][4:8] != cols.tagging[3][4:8]


def test_identical_plaintext_cells_encrypt_differently(boats_schema, boats_partition):
    enc_part = encrypt_partition(boats_partition, boats_schema, TABLE_KEY)
    assert enc_part.rows[0][1] != enc_part.rows[1][1]  # both "Interlake"


def test_encrypt_partition_rejects_bad_rows():
    schema = Schema((Column("n", TYPE_INT64), Column("s", TYPE_UTF8, nullable=True)))
    for rows, error, message in [
        ([[1, "a"], [2]], SchemaError, "row 1 has 1 cells, schema has 2"),
        ([[1, None], [None, "b"]], SchemaError, "null in non-nullable column 'n'"),
        ([[1, "a"], ["2", "b"]], EncodingError, "expected int, got str"),
        ([[1, 2]], EncodingError, "expected str, got int"),
    ]:
        with pytest.raises(error, match=message):
            encrypt_partition(PlainPartition(1, rows), schema, TABLE_KEY)


def test_encrypt_partition_reports_row_lengths_then_columns_in_order():
    """Of several faults, a bad row length anywhere raises first; then
    columns are checked in order, each for NULLs before its values."""
    schema = Schema((Column("n", TYPE_INT64), Column("s", TYPE_UTF8)))
    for rows, error, message in [
        # A later short row before an earlier NULL and an earlier bad value.
        ([[None, 1], [1, "a"], [2]], SchemaError, "row 2 has 1 cells, schema has 2"),
        # Column 0's bad value in row 2 before column 1's NULL in row 0.
        ([[1, None], [2, "a"], ["3", "b"]], EncodingError, "expected int, got str"),
        # Column 0's NULL in row 1 before column 1's bad value in row 0.
        ([[1, 2], [None, "a"]], SchemaError, "null in non-nullable column 'n'"),
        # Within a column, a NULL in row 1 before a bad value in row 0.
        ([["1", "a"], [None, "b"]], SchemaError, "null in non-nullable column 'n'"),
        # Within a column, the first bad value.
        ([[1, 2], [2, 3.0]], EncodingError, "expected str, got int"),
    ]:
        with pytest.raises(error, match=message):
            encrypt_partition(PlainPartition(1, rows), schema, TABLE_KEY)


def test_zero_row_partition(boats_schema):
    enc_part = encrypt_partition(PlainPartition(1, []), boats_schema, TABLE_KEY)
    family = plan_family(FAMILY_SQL, boats_schema)
    add_family(enc_part, boats_schema, TABLE_KEY, family, FAMILY_KEY)
    view = plan_view(VIEW_SQL, family, boats_schema)
    keys = generate_view_keys(view, FAMILY_KEY)
    assert reveal_partition(enc_part, boats_schema, family, keys) == []


def test_select_star_projection_is_single_block(boats_schema, boats_partition):
    family = plan_family("SELECT * FROM boats WHERE color IN ?x", boats_schema)
    enc_part = encrypt_partition(boats_partition, boats_schema, TABLE_KEY)
    add_family(enc_part, boats_schema, TABLE_KEY, family, FAMILY_KEY)
    cols = enc_part.families[family.family_id]
    assert all(len(e) == 16 for e in cols.projection)
    view = plan_view("SELECT * FROM boats WHERE color IN ('red')", family, boats_schema)
    keys = generate_view_keys(view, FAMILY_KEY)
    rows = reveal_partition(enc_part, boats_schema, family, keys)
    assert rows == [(102, "Interlake", "red"), (104, "Marine", "red")]


def test_single_column_projection(boats_schema, boats_partition):
    family = plan_family("SELECT color FROM boats WHERE color IN ?x", boats_schema)
    enc_part = encrypt_partition(boats_partition, boats_schema, TABLE_KEY)
    add_family(enc_part, boats_schema, TABLE_KEY, family, FAMILY_KEY)
    cols = enc_part.families[family.family_id]
    assert all(len(e) == 16 for e in cols.projection)
    view = plan_view("SELECT color FROM boats WHERE color IN ('green')", family, boats_schema)
    keys = generate_view_keys(view, FAMILY_KEY)
    assert reveal_partition(enc_part, boats_schema, family, keys) == [("green",)]


def test_selection_entries_are_sixteen_bytes_per_predicate(boats_schema, boats_partition):
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    cols = enc_part.families[family.family_id]
    assert all(len(e) == 16 * family.n_pred for e in cols.selection)
    assert all(len(t) == 4 * family.n_pred for t in cols.tagging)


def test_wrong_family_key_reveals_nothing(boats_schema, boats_partition):
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    view = plan_view(VIEW_SQL, family, boats_schema)
    keys = generate_view_keys(view, random_key())
    stats = RevealStats()
    assert reveal_partition(enc_part, boats_schema, family, keys, stats=stats) == []
    assert stats.decrypt_successes == 0


def test_empty_view_key_set(boats_schema, boats_partition):
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    keys = ViewKeySet(family.family_id, 4, ((), ()))
    stats = RevealStats()
    assert reveal_partition(enc_part, boats_schema, family, keys, stats=stats) == []
    assert stats.tag_hits == 0
    assert stats.decrypt_attempts == 0


def test_duplicate_family_rejected(boats_schema, boats_partition):
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    with pytest.raises(BackendError, match="already instantiated"):
        add_family(enc_part, boats_schema, TABLE_KEY, family, FAMILY_KEY)


def test_two_families_coexist(boats_schema, boats_partition):
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    second = plan_family("SELECT * FROM boats WHERE bid = ?x", boats_schema)
    add_family(enc_part, boats_schema, TABLE_KEY, second, random_key())
    assert len(enc_part.families) == 2
    view = plan_view(VIEW_SQL, family, boats_schema)
    keys = generate_view_keys(view, FAMILY_KEY)
    assert len(reveal_partition(enc_part, boats_schema, family, keys)) == 3


def test_naive_and_tagged_paths_agree(boats_schema, boats_partition):
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    view = plan_view(VIEW_SQL, family, boats_schema)
    keys = generate_view_keys(view, FAMILY_KEY)
    tagged = reveal_partition(enc_part, boats_schema, family, keys, use_tags=True)
    naive = reveal_partition(enc_part, boats_schema, family, keys, use_tags=False)
    assert tagged == naive


def test_cache_capacity_transparent(boats_schema, boats_partition):
    outputs = []
    for capacity in (0, 1, 512):
        family, enc_part, _ = _setup_boats(
            boats_schema,
            boats_partition,
            FamilyParams(cache_capacity=capacity, rng_seed=7),
        )
        cols = enc_part.families[family.family_id]
        outputs.append((cols.projection, cols.selection, cols.tagging))
    assert outputs[0] == outputs[1] == outputs[2]


def _reference_family_columns(rows, schema, partition_id, table_key, family, family_key, tag_length, rng_seed):
    """A family's projection, selection and tagging data, and its tag
    counts, re-derived row by row and predicate by predicate from the
    derivation rules with BlockCipher alone."""
    p = partition_id
    rng = random.Random(rng_seed * 1_000_003 + p)
    n_proj = len(family.projected)
    pred_keys = [BlockCipher(family_key).prf(pack_block(j0 + 1)) for j0 in range(family.n_pred)]
    proj, sel, tags, counts = [], [], [], {}
    for r0, row in enumerate(rows):
        row_key = BlockCipher(table_key).prf(pack_block(p, r0 + 1))
        cell_keys = [BlockCipher(row_key).prf(pack_block(c + 1)) for c in family.projected]
        if n_proj == 1:
            pk, entry = cell_keys[0], BlockCipher(cell_keys[0]).prf(ZERO_BLOCK)
        elif n_proj == len(schema):
            pk, entry = row_key, BlockCipher(row_key).prf(ZERO_BLOCK)
        else:
            pk = rng.randbytes(16)
            blob = BlockCipher(pk).ctr(CellPosition(DOMAIN_PROJECTION_BLOB, p, r0 + 1), secure_concat(cell_keys))
            check = BlockCipher(pk).ctr(CellPosition(DOMAIN_PROJECTION_CHECK, p, r0 + 1), ZERO_BLOCK)
            entry = secure_concat([blob, check])
        proj.append(entry)
        for j0, pred in enumerate(family.predicates):
            s = BlockCipher(pred_keys[j0]).mac(pred.evaluate(row, schema))
            slot_key = BlockCipher(s).prf(ZERO_BLOCK)
            tag_key = BlockCipher(s).prf(pack_block(p))
            sel.append(BlockCipher(slot_key).ctr(CellPosition(DOMAIN_SELECTION, p, r0 + 1, j0 + 1), pk))
            count = counts.get(s, 0)
            tags.append(BlockCipher(tag_key).prf(pack_block(count))[:tag_length])
            counts[s] = count + 1
    return b"".join(proj), b"".join(sel), b"".join(tags), counts


_REFERENCE_SCHEMA = Schema(
    (Column("a", TYPE_INT64), Column("b", TYPE_UTF8, nullable=True), Column("c", TYPE_INT64))
)
_REFERENCE_FAMILIES = (
    "SELECT a FROM t WHERE a >= ?lo AND a <= ?hi",  # one column: a cell key
    "SELECT * FROM t WHERE a = ?x OR b = ?y",  # every column: the row key
    "SELECT b, c FROM t WHERE c IN ?x OR b = ?y",  # a key blob under a fresh key
)


def _reference_cases():
    """Random partitions over small value pools, so every selection key
    repeats across rows and each row holds occurrences of several repeated
    keys (one per predicate; predicate keys differ, so no key repeats
    inside one row), plus random schemas and families."""
    rng = random.Random(0x5E1EC7)
    for sql in _REFERENCE_FAMILIES:
        rows = [
            [rng.randrange(6), rng.choice(["x", "yy", None]), rng.randrange(3)]
            for _ in range(rng.randint(20, 40))
        ]
        yield _REFERENCE_SCHEMA, rows, plan_family(sql, _REFERENCE_SCHEMA)
    for _ in range(4):
        schema = random_schema(rng, max_columns=4)
        rows = random_rows(rng, schema, max_rows=20)
        rows = rows + [list(rng.choice(rows)) for _ in rows]
        family = random_family_and_view(rng, schema)[2]
        if family.n_pred <= 40:
            yield schema, rows, family


@pytest.mark.parametrize("tag_length", [1, 16])
@pytest.mark.parametrize("capacity", [0, 1, 512])
def test_grouped_writer_matches_row_by_row_reference(tag_length, capacity):
    kinds = set()
    for case, (schema, rows, family) in enumerate(_reference_cases()):
        partition_id, table_key, family_key = case + 1, bytes([case]) * 16, bytes([case + 100]) * 16
        enc_part = encrypt_partition(PlainPartition(partition_id, [list(r) for r in rows]), schema, table_key)
        stats = AddFamilyStats()
        add_family(
            enc_part, schema, table_key, family, family_key,
            FamilyParams(tag_length=tag_length, cache_capacity=capacity, rng_seed=case), stats=stats,
        )
        cols = enc_part.families[family.family_id]
        proj, sel, tags, counts = _reference_family_columns(
            rows, schema, partition_id, table_key, family, family_key, tag_length, case
        )
        assert (cols.projection.data, cols.selection.data, cols.tagging.data) == (proj, sel, tags)
        assert stats.tag_counts == counts
        occurrences = len(rows) * family.n_pred
        assert stats.cache_hits + stats.cache_misses == occurrences
        assert stats.cache_misses == (len(counts) if capacity else occurrences)
        assert occurrences > len(counts), "no selection key repeats"
        n_proj = len(family.projected)
        kinds.add("one column" if n_proj == 1 else "every column" if n_proj == len(schema) else "key blob")
    assert kinds == {"one column", "every column", "key blob"}


_SHARED_VALUE_FAMILIES = (
    "SELECT a, b FROM t WHERE (a >= ?lo AND a <= ?hi) OR b != ?s",  # bit and hash prefixes
    "SELECT * FROM t WHERE a >= ?lo AND a <= ?hi AND b = ?y",  # prefixes of a, with b
)


@pytest.mark.parametrize("branching_bits", [1, 2])
def test_writer_matches_reference_when_distinct_cells_share_a_value(branching_bits):
    """Range and hash prefixes give distinct cells one predicate value, and
    so one selection key and one run of tag counts."""
    rng = random.Random(0x5A3E + branching_bits)
    schema = _REFERENCE_SCHEMA
    pool = [-3, -1, 0, 1, 2, 3, 1 << 40, (1 << 40) + 5, -(1 << 62)]
    rows = [[rng.choice(pool), rng.choice(["x", "yy", "zzz", None]), rng.randrange(3)] for _ in range(24)]
    for case, sql in enumerate(_SHARED_VALUE_FAMILIES):
        family = plan_family(sql, schema, branching_bits=branching_bits)
        shared = [
            pred for pred in family.predicates
            if len({pred.evaluate(row, schema) for row in rows})
            < len({tuple(row[c] for c in pred.columns()) for row in rows})
        ]
        assert shared, "no predicate gives distinct cells one value"
        partition_id, table_key, family_key = case + 3, bytes([case + 7]) * 16, bytes([case + 70]) * 16
        for tag_length in (1, 16):
            want = _reference_family_columns(
                rows, schema, partition_id, table_key, family, family_key, tag_length, case
            )
            for capacity in (0, 1, 512):
                enc_part = encrypt_partition(PlainPartition(partition_id, [list(r) for r in rows]), schema, table_key)
                stats = AddFamilyStats()
                add_family(
                    enc_part, schema, table_key, family, family_key,
                    FamilyParams(tag_length=tag_length, cache_capacity=capacity, rng_seed=case), stats=stats,
                )
                cols = enc_part.families[family.family_id]
                got = (cols.projection.data, cols.selection.data, cols.tagging.data, stats.tag_counts)
                assert got == want, f"{sql} at {branching_bits} bits, capacity {capacity}, tags {tag_length}"


@pytest.mark.parametrize("column, bad_cell", [(0, b"\x00" * 5), (1, b"")])
def test_malformed_where_cell_raises_encoding_error(column, bad_cell):
    schema = _REFERENCE_SCHEMA
    rows = [[r % 3, ["x", None][r % 2], r] for r in range(10)]
    enc_part = encrypt_partition(PlainPartition(1, rows), schema, TABLE_KEY)
    cells = list(enc_part.columns[column])
    cells[3] = cells[7] = bad_cell
    enc_part.columns[column] = type(enc_part.columns[column]).from_cells(cells)
    family = plan_family("SELECT * FROM t WHERE c = ?z OR a = ?x OR b = ?y", schema)
    with pytest.raises(EncodingError):
        add_family(enc_part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(rng_seed=1))


def test_stats_objects_add_up_over_partitions():
    """One stats object passed to two partitions holds the sum of two
    fresh ones, per-key counts included."""
    schema = _REFERENCE_SCHEMA
    family = plan_family(_REFERENCE_FAMILIES[1], schema)
    keys = generate_view_keys(plan_view(_READER_VIEWS[1], family, schema), FAMILY_KEY)
    rng = random.Random(0x57A7)
    parts = []
    for pid in (1, 2):
        rows = [[rng.randrange(6), rng.choice(["x", "yy", None]), rng.randrange(3)] for _ in range(40)]
        parts.append(encrypt_partition(PlainPartition(pid, rows), schema, TABLE_KEY))
    add_shared, reveal_shared = AddFamilyStats(), RevealStats()
    add_each, reveal_each = [], []
    for part in parts:
        for add_stats, reveal_stats in ((add_shared, reveal_shared), (AddFamilyStats(), RevealStats())):
            copy = backend.EncryptedPartition(part.partition_id, part.columns)
            add_family(copy, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(rng_seed=1), stats=add_stats)
            reveal_partition(copy, schema, family, keys, stats=reveal_stats)
        add_each.append(add_stats)
        reveal_each.append(reveal_stats)

    def summed(objects, field_name):
        values = [getattr(o, field_name) for o in objects]
        return dict(sum(map(Counter, values), Counter())) if isinstance(values[0], dict) else sum(values)

    for shared, each, fields in (
        (add_shared, add_each, ("rows", "cache_hits", "cache_misses", "tag_counts")),
        (reveal_shared, reveal_each, (
            "rows_scanned", "tag_hits", "decrypt_attempts", "decrypt_successes", "rows_emitted", "final_counts",
        )),
    ):
        for name in fields:
            assert getattr(shared, name) == summed(each, name), name
        assert shared.crypto_seconds > 0
    # The same keys occur in both partitions, so per-key counts must add.
    assert set(add_each[0].tag_counts) & set(add_each[1].tag_counts)
    assert set(reveal_each[0].final_counts) & set(reveal_each[1].final_counts)


def test_short_tags_match_long_tags():
    rng = random.Random(31)
    schema = Schema((Column("k", TYPE_INT64), Column("v", TYPE_UTF8)))
    rows = [[rng.randint(0, 30), rng.choice("abcdef")] for _ in range(3000)]
    plain = PlainPartition(1, rows)
    family = plan_family("SELECT * FROM t WHERE k = ?a OR v = ?b", schema)
    table_key, family_key = random_key(), random_key()
    outputs = []
    for tag_length in (1, 16):
        enc_part = encrypt_partition(plain, schema, table_key)
        add_family(
            enc_part, schema, table_key, family, family_key, FamilyParams(tag_length=tag_length)
        )
        view = plan_view("SELECT * FROM t WHERE k IN (3, 7, 11) OR v = 'c'", family, schema)
        keys = generate_view_keys(view, family_key, tag_length=tag_length)
        outputs.append(reveal_partition(enc_part, schema, family, keys))
    assert outputs[0] == outputs[1]
    assert outputs[0] == eval_view(schema, rows, "SELECT * FROM t WHERE k IN (3, 7, 11) OR v = 'c'")


def test_counter_synchrony_full_and_prefix(boats_schema, boats_rows):
    rng = random.Random(32)
    rows = [list(rng.choice(boats_rows)) for _ in range(200)]
    family = plan_family(FAMILY_SQL, boats_schema)
    view_sql = VIEW_SQL
    for n in (200, 67):
        prefix = PlainPartition(3, [list(r) for r in rows[:n]])
        enc_part = encrypt_partition(prefix, boats_schema, TABLE_KEY)
        add_stats = AddFamilyStats()
        add_family(enc_part, boats_schema, TABLE_KEY, family, FAMILY_KEY, stats=add_stats)
        view = plan_view(view_sql, family, boats_schema)
        keys = generate_view_keys(view, FAMILY_KEY)
        stats = RevealStats()
        reveal_partition(enc_part, boats_schema, family, keys, stats=stats)
        for (pred, key), count in stats.final_counts.items():
            assert count == add_stats.tag_counts.get(key, 0)


def test_cross_predicate_selection_keys_disjoint(rng):
    # With overwhelming probability no selection key value serves two
    # predicate indices; recompute the keys from the derivation chain.
    for _ in range(10):
        schema = random_schema(rng, max_columns=4)
        rows = random_rows(rng, schema, max_rows=64)
        _, _, family, _ = random_family_and_view(rng, schema)
        if family.n_pred < 2:
            continue
        family_key = random_key()
        seen: dict[bytes, int] = {}
        for j0, pred in enumerate(family.predicates):
            pred_key = BlockCipher(family_key).prf(pack_block(j0 + 1))
            for row in rows:
                s = BlockCipher(pred_key).mac(pred.evaluate(row, schema))
                assert seen.setdefault(s, j0) == j0



def test_view_key_blob_rejects_counts_past_the_end():
    with pytest.raises(BackendError, match="truncated"):
        ViewKeySet.deserialize(b"MVK1\x00\x01")
    header = b"MVK1\x00\x01" + bytes(8) + b"\x04"
    with pytest.raises(BackendError, match="truncated"):
        ViewKeySet.deserialize(header + b"\xff\xff")  # 65,535 predicates, no bytes
    with pytest.raises(BackendError, match="truncated"):
        ViewKeySet.deserialize(header + b"\x00\x01\xff\xff\xff\xff")  # 2^32 - 1 keys
    with pytest.raises(BackendError, match="tag length"):
        ViewKeySet.deserialize(b"MVK1\x00\x01" + bytes(8) + b"\x00\x00\x00")


_BLOB = ViewKeySet("0011223344556677", 4, ((bytes(16), bytes(range(16))), (), (b"k" * 16,))).serialize()


@settings(max_examples=500, deadline=500, derandomize=True)
@given(
    st.one_of(
        st.integers(0, len(_BLOB) - 1).map(lambda n: _BLOB[:n]),
        st.binary(min_size=1, max_size=32).map(lambda tail: _BLOB + tail),
        st.tuples(st.integers(0, len(_BLOB) - 1), st.integers(1, 255)).map(
            lambda f: _BLOB[: f[0]] + bytes([_BLOB[f[0]] ^ f[1]]) + _BLOB[f[0] + 1 :]
        ),
    )
)
def test_mutated_view_key_blobs_raise_only_backend_errors(data):
    started = time.perf_counter()
    try:
        keys = ViewKeySet.deserialize(data)
    except BackendError:
        return
    assert all(len(k) == 16 for pred in keys.keys for k in pred)
    assert time.perf_counter() - started < 0.5


def test_view_key_blob_round_trip(boats_schema, boats_partition):
    family, _, _ = _setup_boats(boats_schema, boats_partition)
    view = plan_view(VIEW_SQL, family, boats_schema)
    keys = generate_view_keys(view, FAMILY_KEY, tag_length=2)
    blob = keys.serialize()
    back = ViewKeySet.deserialize(blob)
    assert back == keys
    assert back.tag_length == 2
    assert back.family_id == family.family_id


def test_end_to_end_completeness_randomized():
    rng = random.Random(33)
    for trial in range(100):
        schema = random_schema(rng)
        rows = random_rows(rng, schema, max_rows=40)
        _, view_sql, family, view = random_family_and_view(rng, schema)
        table_key, family_key = random_key(), random_key()
        plain = PlainPartition(1, [list(r) for r in rows])
        enc_part = encrypt_partition(plain, schema, table_key)
        add_family(enc_part, schema, table_key, family, family_key)
        keys = generate_view_keys(view, family_key)
        got = reveal_partition(enc_part, schema, family, keys)
        expected = eval_view(schema, rows, view_sql)
        assert got == expected, f"trial {trial}: {view_sql}"


def test_tag_unlinkability_shape_bound():
    # For a key used in two rows of one partition, 1-byte truncated tags
    # collide with probability about 2^-8; 500 value pairs give a tight
    # empirical check without flakiness.
    schema = Schema((Column("v", TYPE_INT64),))
    rows = []
    for value in range(500):
        rows.extend([[value], [value]])
    plain = PlainPartition(1, rows)
    family = plan_family("SELECT * FROM t WHERE v = ?x", schema)
    table_key = random_key()
    enc_part = encrypt_partition(plain, schema, table_key)
    add_family(
        enc_part, schema, table_key, family, random_key(), FamilyParams(tag_length=1)
    )
    tags = enc_part.families[family.family_id].tagging
    equal_pairs = sum(1 for i in range(500) if tags[2 * i] == tags[2 * i + 1])
    assert equal_pairs <= 10  # expected ~2 of 500


def test_family_overhead_is_additive(boats_schema, boats_partition):
    # Encrypted cells byte-for-byte match the plaintext encoding lengths;
    # family columns are pure per-row overhead on top.
    from sealview.encoding import encode_cell as _encode
    from sealview.mep import serialize_encrypted

    table_key = random_key()
    enc_part = encrypt_partition(boats_partition, boats_schema, table_key)
    for row, plain_row in zip(enc_part.rows, boats_partition.rows):
        for cell, value, col in zip(row, plain_row, boats_schema.columns):
            assert len(cell) == len(_encode(value, col.type))
    base = len(serialize_encrypted(enc_part, boats_schema))
    family = plan_family(FAMILY_SQL, boats_schema)
    add_family(enc_part, boats_schema, table_key, family, FAMILY_KEY)
    grown = len(serialize_encrypted(enc_part, boats_schema))
    cols = enc_part.families[family.family_id]
    per_row = len(cols.projection[0]) + len(cols.selection[0]) + len(cols.tagging[0])
    assert grown == base + 8 + 12 + 4 * per_row  # id + widths + 4 rows


# ------------------------------------------------ tag search vs reference


def _reveal_checked(enc_part, schema, family, keys):
    """Tagged reveal, asserted equal to the use_tags=False reference."""
    stats = RevealStats()
    tagged = reveal_partition(enc_part, schema, family, keys, stats=stats)
    naive = reveal_partition(enc_part, schema, family, keys, use_tags=False)
    assert tagged == naive
    return tagged, stats


def test_tag_search_matches_reference_in_memory_and_round_tripped():
    rng = random.Random(34)
    for trial in range(60):
        schema = random_schema(rng)
        rows = random_rows(rng, schema, max_rows=40)
        _, view_sql, family, view = random_family_and_view(rng, schema)
        tag_length = rng.choice((1, 2, 4, 16))
        table_key, family_key = random_key(), random_key()
        if sum(len(values) for values in view.values) > 256:
            continue  # the reference tries every key on every row
        enc_part = encrypt_partition(PlainPartition(1, [list(r) for r in rows]), schema, table_key)
        add_stats = AddFamilyStats()
        add_family(
            enc_part, schema, table_key, family, family_key,
            FamilyParams(tag_length=tag_length), stats=add_stats,
        )
        keys = generate_view_keys(view, family_key, tag_length=tag_length)
        back = parse_encrypted(serialize_encrypted(enc_part, schema), schema)
        expected = eval_view(schema, rows, view_sql)
        for part in (enc_part, back):
            got, stats = _reveal_checked(part, schema, family, keys)
            assert got == expected, f"trial {trial}: {view_sql}"
            for (_, key), count in stats.final_counts.items():
                assert count == add_stats.tag_counts.get(key, 0)


def test_one_byte_tags_confirm_false_positives():
    rng = random.Random(35)
    schema = Schema((Column("k", TYPE_INT64), Column("v", TYPE_UTF8)))
    rows = [[rng.randint(0, 60), rng.choice("abcdef")] for _ in range(2000)]
    family = plan_family("SELECT * FROM t WHERE k = ?a OR v = ?b", schema)
    table_key, family_key = random_key(), random_key()
    enc_part = encrypt_partition(PlainPartition(1, rows), schema, table_key)
    add_family(enc_part, schema, table_key, family, family_key, FamilyParams(tag_length=1))
    view_sql = "SELECT * FROM t WHERE k IN (3, 7) OR v = 'c'"
    keys = generate_view_keys(plan_view(view_sql, family, schema), family_key, tag_length=1)
    got, stats = _reveal_checked(enc_part, schema, family, keys)
    assert got == eval_view(schema, rows, view_sql)
    assert stats.tag_hits == stats.decrypt_attempts > stats.decrypt_successes


def test_row_matched_by_two_predicates_emitted_once(boats_schema, boats_partition):
    family, enc_part, _ = _setup_boats(boats_schema, boats_partition)
    keys = generate_view_keys(plan_view(VIEW_SQL, family, boats_schema), FAMILY_KEY)
    back = parse_encrypted(serialize_encrypted(enc_part, boats_schema), boats_schema)
    for part in (enc_part, back):
        rows, stats = _reveal_checked(part, boats_schema, family, keys)
        # Row 2 (Interlake, red) is found by both keys.
        assert rows == [("Interlake", "blue"), ("Interlake", "red"), ("Marine", "red")]
        assert stats.decrypt_successes == 4
        assert stats.rows_emitted == 3
        by_pred = {pred: count for (pred, _), count in stats.final_counts.items()}
        assert by_pred == {1: 2, 2: 2}


def test_keys_with_colliding_truncated_first_tags():
    schema = Schema((Column("k", TYPE_INT64),))
    family = plan_family("SELECT * FROM t WHERE k = ?x", schema)
    partition_id = 1
    first_tags: dict[bytes, list[int]] = {}
    for value in range(100):
        view = plan_view(f"SELECT * FROM t WHERE k = {value}", family, schema)
        (key,) = generate_view_keys(view, FAMILY_KEY, tag_length=1).keys[0]
        tau = BlockCipher(key).prf(pack_block(partition_id))
        first_tags.setdefault(BlockCipher(tau).prf(pack_block(0))[:1], []).append(value)
    a, b = next(values for values in first_tags.values() if len(values) > 1)[:2]

    rng = random.Random(36)
    rows = [[rng.choice((a, b, a + 1000, b + 1000))] for _ in range(300)]
    enc_part = encrypt_partition(PlainPartition(partition_id, rows), schema, TABLE_KEY)
    add_stats = AddFamilyStats()
    add_family(
        enc_part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(tag_length=1),
        stats=add_stats,
    )
    view_sql = f"SELECT * FROM t WHERE k IN ({a}, {b})"
    keys = generate_view_keys(plan_view(view_sql, family, schema), FAMILY_KEY, tag_length=1)
    got, stats = _reveal_checked(enc_part, schema, family, keys)
    assert got == eval_view(schema, rows, view_sql)
    # The first row holding a or b is an aligned hit for both keys.
    assert stats.decrypt_attempts > stats.decrypt_successes == len(got)
    assert sorted(stats.final_counts.values()) == sorted(
        sum(1 for row in rows if row[0] == v) for v in (a, b)
    )


# ------------------------------------- batched reader vs sequential scan


def _reference_open(family, schema, partition_id, r0, pk, entry):
    """The projected cells' keys if `pk` opens row r0's projection entry,
    else None, re-derived with BlockCipher alone."""
    cipher = BlockCipher(pk)
    if len(family.projected) == 1:
        return [pk] if cipher.prf(ZERO_BLOCK) == entry else None
    if len(family.projected) == len(schema):
        if cipher.prf(ZERO_BLOCK) != entry:
            return None
        return [cipher.prf(pack_block(c + 1)) for c in family.projected]
    blob, check = split_concat(entry)
    if check != cipher.ctr(CellPosition(DOMAIN_PROJECTION_CHECK, partition_id, r0 + 1), ZERO_BLOCK):
        return None
    return split_concat(cipher.ctr(CellPosition(DOMAIN_PROJECTION_BLOB, partition_id, r0 + 1), blob))


def _sequential_reveal(enc_part, schema, family, keys):
    """A reveal that looks for one expected tag at a time, row by row in
    the key's own slot, and confirms each hit before it looks for the
    next: its rows, its RevealStats, whether some key met a false
    positive before its last true hit, and how many misaligned hits a
    search of each key's slot, copied out on its own, would meet. Such a
    search looks for the key's next expected tag from the row after its
    last hit, and meets a misaligned hit when the tag's first occurrence
    there straddles two rows' tags."""
    p, n_rows, tl = enc_part.partition_id, enc_part.n_rows, keys.tag_length
    cols = enc_part.families[family.family_id]
    stats = RevealStats(rows_scanned=n_rows)
    matched = {}
    miss_mid_chain = False
    misaligned = 0
    for j0, pred_keys in enumerate(keys.keys):
        row_tags = [cols.tagging[r0][j0 * tl : (j0 + 1) * tl] for r0 in range(n_rows)]
        own_tags = b"".join(row_tags)
        for key in pred_keys:
            slot_cipher = BlockCipher(BlockCipher(key).prf(ZERO_BLOCK))
            tag_cipher = BlockCipher(BlockCipher(key).prf(pack_block(p)))
            count, misses, last_hit, search_from = 0, [], -1, 0
            tag = tag_cipher.prf(pack_block(count))[:tl]
            for r0 in range(n_rows):
                if row_tags[r0] != tag:
                    continue
                misaligned += own_tags.find(tag, search_from * tl) != r0 * tl
                search_from = r0 + 1
                stats.tag_hits += 1
                stats.decrypt_attempts += 1
                slot = cols.selection[r0][16 * j0 : 16 * j0 + 16]
                pk = slot_cipher.ctr(CellPosition(DOMAIN_SELECTION, p, r0 + 1, j0 + 1), slot)
                cell_keys = _reference_open(family, schema, p, r0, pk, cols.projection[r0])
                if cell_keys is None:
                    misses.append(r0)
                    continue
                stats.decrypt_successes += 1
                count, last_hit = count + 1, r0
                tag = tag_cipher.prf(pack_block(count))[:tl]
                matched.setdefault(r0, cell_keys)
            stats.final_counts[(j0 + 1, key)] = count
            miss_mid_chain |= any(r0 < last_hit for r0 in misses)
            # No row after the last hit holds the next tag at its offset.
            misaligned += own_tags.find(tag, search_from * tl) >= 0
    types = [schema.columns[c].type for c in family.projected]
    rows = [
        tuple(
            decode_cell(ote(k, enc_part.columns[c][r0]), t)
            for c, k, t in zip(family.projected, matched[r0], types)
        )
        for r0 in sorted(matched)
    ]
    stats.rows_emitted = len(rows)
    return rows, stats, miss_mid_chain, misaligned


_READER_VIEWS = (
    "SELECT a FROM t WHERE a >= 1 AND a <= 4",
    "SELECT * FROM t WHERE a IN (0, 2, 5) OR b = 'yy'",
    "SELECT b, c FROM t WHERE c IN (0, 1) OR b = NULL",
)
# Many keys over many rows. With 2-byte tags, about 10 of the searches
# are expected to meet a misaligned hit; 3-byte tags copy a slot whose
# width is not a power of two.
_MANY_KEYS_CASE = (
    "SELECT * FROM t WHERE a = ?x OR c = ?y",
    "SELECT * FROM t WHERE a IN ({}) OR c = 1".format(", ".join(map(str, range(128)))),
    128,
    5000,
)


def _counters(stats):
    return (
        stats.rows_scanned, stats.tag_hits, stats.decrypt_attempts, stats.decrypt_successes,
        stats.rows_emitted, stats.final_counts,
    )


def test_batched_reader_matches_sequential_scan():
    rng = random.Random(0x5CA7)
    schema = _REFERENCE_SCHEMA
    misses_mid_chain = misaligned_hits = 0
    cases = [(sql, view_sql, 6, 500) for sql, view_sql in zip(_REFERENCE_FAMILIES, _READER_VIEWS)]
    for case, (family_sql, view_sql, a_values, n_rows) in enumerate(cases + [_MANY_KEYS_CASE]):
        family = plan_family(family_sql, schema)
        rows = [[rng.randrange(a_values), rng.choice(["x", "yy", None]), rng.randrange(3)] for _ in range(n_rows)]
        for tag_length in (1, 2, 3):
            partition_id, family_key = case + 2, bytes([case + 50]) * 16
            enc_part = encrypt_partition(PlainPartition(partition_id, [list(r) for r in rows]), schema, TABLE_KEY)
            add_family(
                enc_part, schema, TABLE_KEY, family, family_key,
                FamilyParams(tag_length=tag_length, rng_seed=case),
            )
            keys = generate_view_keys(plan_view(view_sql, family, schema), family_key, tag_length)
            want, want_stats, miss_mid_chain, misaligned = _sequential_reveal(enc_part, schema, family, keys)
            stats = RevealStats()
            assert reveal_partition(enc_part, schema, family, keys, stats=stats) == want
            assert _counters(stats) == _counters(want_stats)
            assert want == eval_view(schema, rows, view_sql)
            misses_mid_chain += miss_mid_chain
            misaligned_hits += misaligned
    assert misses_mid_chain, "no false positive came before a key's last true hit"
    assert misaligned_hits, "no search met a misaligned hit"


@pytest.mark.parametrize("tag_length", [1, 4])
def test_untagged_reference_tries_every_key_on_every_row(tag_length):
    """The reference scan tries each key against each row, so it makes
    keys times rows attempts and no tag hits, and it confirms, emits and
    counts exactly what the tagged scan does."""
    rng = random.Random(0x4EF + tag_length)
    schema = _REFERENCE_SCHEMA
    cases = [(sql, view_sql, 6, 500) for sql, view_sql in zip(_REFERENCE_FAMILIES, _READER_VIEWS)]
    for case, (family_sql, view_sql, a_values, n_rows) in enumerate(cases + [_MANY_KEYS_CASE]):
        family = plan_family(family_sql, schema)
        rows = [[rng.randrange(a_values), rng.choice(["x", "yy", None]), rng.randrange(3)] for _ in range(n_rows)]
        enc_part = encrypt_partition(PlainPartition(case + 2, rows), schema, TABLE_KEY)
        add_family(enc_part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(tag_length, rng_seed=case))
        keys = generate_view_keys(plan_view(view_sql, family, schema), FAMILY_KEY, tag_length)
        tagged_stats, naive_stats = RevealStats(), RevealStats()
        tagged = reveal_partition(enc_part, schema, family, keys, stats=tagged_stats)
        naive = reveal_partition(enc_part, schema, family, keys, use_tags=False, stats=naive_stats)
        assert naive == tagged == eval_view(schema, rows, view_sql)
        assert naive_stats.decrypt_attempts == keys.total_keys() * n_rows
        assert naive_stats.tag_hits == 0
        for name in ("rows_scanned", "decrypt_successes", "rows_emitted", "final_counts"):
            assert getattr(naive_stats, name) == getattr(tagged_stats, name), name


@pytest.mark.parametrize("tag_length", [1, 16])
def test_scan_then_finish_is_the_reveal(tag_length):
    """`reveal_partition` is a `PartitionScan` then its `finish`, with
    the same rows and counters. The scan counts nothing, and its first
    candidates are every attempt the finish makes unless a tag hit is a
    false positive, which 16-byte tags do not meet."""
    rng = random.Random(0x5CA9 + tag_length)
    schema = _REFERENCE_SCHEMA
    for case, (family_sql, view_sql) in enumerate(zip(_REFERENCE_FAMILIES, _READER_VIEWS)):
        family = plan_family(family_sql, schema)
        rows = [[rng.randrange(6), rng.choice(["x", "yy", None]), rng.randrange(3)] for _ in range(500)]
        enc_part = encrypt_partition(PlainPartition(case + 2, rows), schema, TABLE_KEY)
        add_family(enc_part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(tag_length, rng_seed=case))
        keys = generate_view_keys(plan_view(view_sql, family, schema), FAMILY_KEY, tag_length)
        want_stats, stats = RevealStats(), RevealStats()
        want = reveal_partition(enc_part, schema, family, keys, stats=want_stats)
        scan = PartitionScan(enc_part, schema, family, keys)
        candidates = scan.candidate_count()
        assert scan.finish(stats) == want == eval_view(schema, rows, view_sql)
        assert _counters(stats) == _counters(want_stats)
        if tag_length == 16:
            assert candidates == stats.decrypt_attempts == stats.decrypt_successes
        else:
            assert candidates <= stats.decrypt_attempts


def _count_block_ciphers(monkeypatch) -> Counter:
    """Count BlockCipher constructions made from sealview.backend, the
    way the benchmark's trace counts key schedules, and from
    sealview.primitives, where a one-time transform of a message over 16
    bytes prepares its key."""
    counts = Counter()

    class Counted(BlockCipher):
        __slots__ = ()

        def __init__(self, key):
            counts["setups"] += 1
            super().__init__(key)

    monkeypatch.setattr(backend, "BlockCipher", Counted)
    monkeypatch.setattr(primitives, "BlockCipher", Counted)
    return counts


@pytest.mark.parametrize("tag_length", [1, 4])
@pytest.mark.parametrize("use_tags", [True, False])
def test_view_key_set_prepares_each_selection_key_once(monkeypatch, use_tags, tag_length):
    rng = random.Random(0x5E7 + tag_length)
    schema = _REFERENCE_SCHEMA
    family = plan_family(_REFERENCE_FAMILIES[1], schema)
    parts = []
    for pid in range(1, 9):
        rows = [[rng.randrange(6), rng.choice(["x", "yy", None]), rng.randrange(3)] for _ in range(60)]
        enc_part = encrypt_partition(PlainPartition(pid, rows), schema, TABLE_KEY)
        add_family(enc_part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(tag_length, rng_seed=pid))
        parts.append(enc_part)
    keys = generate_view_keys(plan_view(_READER_VIEWS[1], family, schema), FAMILY_KEY, tag_length)
    blob = keys.serialize()
    fresh_copies = [ViewKeySet.deserialize(blob) for _ in parts]
    counts = _count_block_ciphers(monkeypatch)

    def reveal_all(key_sets):
        counts.clear()
        out = []
        for enc_part, key_set in zip(parts, key_sets):
            stats = RevealStats()
            rows = reveal_partition(enc_part, schema, family, key_set, use_tags=use_tags, stats=stats)
            out.append((rows, _counters(stats)))
        return out, counts["setups"]

    shared, shared_setups = reveal_all([keys] * len(parts))
    fresh, fresh_setups = reveal_all(fresh_copies)
    assert shared == fresh
    assert any(rows for rows, _ in shared)
    assert fresh_setups - shared_setups == (len(parts) - 1) * keys.total_keys()
    # The prepared ciphers are not part of the set's value.
    assert keys == ViewKeySet.deserialize(blob)
    assert keys.serialize() == blob
    copy = pickle.loads(pickle.dumps(keys))
    assert copy == keys and copy.serialize() == blob
    assert reveal_all([copy] * len(parts))[0] == shared


@pytest.mark.parametrize("case", range(3))
def test_corrupted_projection_entries_raise_only_documented_errors(case):
    rng = random.Random(0xBAD + case)
    schema, family_sql, view_sql = _REFERENCE_SCHEMA, _REFERENCE_FAMILIES[case], _READER_VIEWS[case]
    family = plan_family(family_sql, schema)
    rows = [[rng.randrange(6), rng.choice(["x", "yy", None]), rng.randrange(3)] for _ in range(30)]
    enc_part = encrypt_partition(PlainPartition(1, rows), schema, TABLE_KEY)
    add_family(enc_part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(tag_length=2, rng_seed=case))
    keys = generate_view_keys(plan_view(view_sql, family, schema), FAMILY_KEY, tag_length=2)
    cols = enc_part.families[family.family_id]
    width = cols.projection.width
    # A key-blob entry: count, blob length, blob, check length, check.
    length_fields = (0, 4, width - 20) if width > 16 else ()
    matched = [r0 for r0, row in enumerate(rows) if row in [list(r) for r in eval_view(schema, rows, view_sql)]]
    outcomes = Counter()
    for _ in range(200):
        data = bytearray(cols.projection.data)
        for _ in range(rng.randint(1, 3)):
            base = rng.choice(matched or range(len(rows))) * width
            if length_fields and rng.random() < 0.5:
                off = base + rng.choice(length_fields)
                value = int.from_bytes(data[off : off + 4], "big")
                value = rng.choice((rng.randrange(1 << 32), value + rng.randint(-3, 3)))
                data[off : off + 4] = (value % (1 << 32)).to_bytes(4, "big")
            else:
                data[base + rng.randrange(width)] ^= rng.randrange(1, 256)
        enc_part.families[family.family_id] = FamilyColumns(
            FixedWidthColumn(bytes(data), width), cols.selection, cols.tagging
        )
        for use_tags in (True, False):
            try:
                reveal_partition(enc_part, schema, family, keys, use_tags=use_tags)
            except (BackendError, CryptoError, EncodingError) as exc:
                outcomes[type(exc).__name__] += 1
            else:
                outcomes["returned"] += 1
    assert outcomes["returned"]
    if length_fields:
        assert outcomes["CryptoError"]


def test_key_blob_of_the_wrong_length_raises_only_under_its_own_key():
    """A key-blob entry whose blob is longer or shorter than the family's
    blob is malformed under its row's own projection key, whose check
    still matches, and is a plain miss under any other key."""
    schema, family = _REFERENCE_SCHEMA, plan_family(_REFERENCE_FAMILIES[2], _REFERENCE_SCHEMA)
    partition_id, seed = 3, 11
    rng = random.Random(0xB10B)
    rows = [[rng.randrange(6), rng.choice(["x", "yy", None]), rng.randrange(3)] for _ in range(12)]
    enc_part = encrypt_partition(PlainPartition(partition_id, rows), schema, TABLE_KEY)
    add_family(enc_part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(rng_seed=seed))
    # The projection keys, drawn as FamilyParams documents for a seed.
    draw = random.Random(seed * 1_000_003 + partition_id).randbytes(16 * len(rows))
    pks = [draw[off : off + 16] for off in range(0, len(draw), 16)]
    entries = enc_part.families[family.family_id].projection
    projection = backend._Projection(family, len(schema), partition_id)
    for r0, pk in enumerate(pks):
        other = pks[(r0 + 1) % len(pks)]
        assert projection.open(r0, pk, entries[r0]) is not None
        blob, check = split_concat(entries[r0])
        for bad_blob in (blob + bytes(16), blob[:-4]):
            entry = secure_concat([bad_blob, check])
            with pytest.raises(BackendError, match="blob length"):
                projection.open(r0, pk, entry)
            assert projection.open(r0, other, entry) is None


def test_derivation_table_names_callables_of_the_backend():
    """Every name on the right of the derivation table in the backend's
    docstring resolves from `sealview.backend` to a callable, so renaming
    or deleting one of them without the table fails here."""
    table = backend.__doc__.split("both call:\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert len(table) >= 10
    names = []
    for line in table:
        right = re.split(r"\s{2,}", line.strip())[-1]
        assert re.fullmatch(r"[A-Za-z_][\w.]*(, [A-Za-z_][\w.]*)*", right), line
        names += right.split(", ")
    assert "_Projection.inputs" in names and "_prf_each" in names
    for name in names:
        assert callable(functools.reduce(getattr, name.split("."), backend)), name


# ------------------------------------- long cells and key-setup counts


_LONG_CELL_SCHEMA = Schema((Column("a", TYPE_INT64), Column("b", TYPE_UTF8), Column("c", TYPE_UTF8)))
_LONG_CELL_CASES = (
    ("SELECT c FROM t WHERE c = ?x", "SELECT c FROM t WHERE c IN ({0}, {2})"),  # one column
    ("SELECT * FROM t WHERE b = ?x OR a = ?y", "SELECT * FROM t WHERE b = {1} OR a = 2"),  # every column
    ("SELECT b, c FROM t WHERE b = ?x", "SELECT b, c FROM t WHERE b IN ({0}, {3})"),  # key blob
)


def test_cells_over_sixteen_bytes_under_every_projection_kind():
    """Utf8 cells of 17 to 40 bytes take the one-time transform's
    keystream branch, in WHERE and projected columns alike."""
    rng = random.Random(0x10C6)
    words = ["".join(rng.choices(string.ascii_lowercase, k=k)) for k in (16, 23, 30, 39)]
    rows = [[rng.randrange(4), rng.choice(words), rng.choice(words)] for _ in range(40)]
    schema, partition_id = _LONG_CELL_SCHEMA, 2
    enc_part = encrypt_partition(PlainPartition(partition_id, [list(r) for r in rows]), schema, TABLE_KEY)
    assert {len(cell) for c in (1, 2) for cell in enc_part.columns[c]} == {17, 24, 31, 40}
    for r0, row in enumerate(rows):
        row_key = BlockCipher(TABLE_KEY).prf(pack_block(partition_id, r0 + 1))
        for c, (value, col) in enumerate(zip(row, schema.columns)):
            cell_key = BlockCipher(row_key).prf(pack_block(c + 1))
            assert enc_part.columns[c][r0] == ote(cell_key, encode_cell(value, col.type))
    kinds = set()
    for family_sql, view_sql in _LONG_CELL_CASES:
        view_sql = view_sql.format(*(f"'{w}'" for w in words))
        family = plan_family(family_sql, schema)
        part = backend.EncryptedPartition(partition_id, enc_part.columns)
        add_family(part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(tag_length=4, rng_seed=3))
        cols = part.families[family.family_id]
        reference = _reference_family_columns(rows, schema, partition_id, TABLE_KEY, family, FAMILY_KEY, 4, 3)
        assert (cols.projection.data, cols.selection.data, cols.tagging.data) == reference[:3]
        keys = generate_view_keys(plan_view(view_sql, family, schema), FAMILY_KEY)
        want = eval_view(schema, rows, view_sql)
        assert 0 < len(want) < len(rows)
        for use_tags in (True, False):
            assert reveal_partition(part, schema, family, keys, use_tags=use_tags) == want
        n_proj = len(family.projected)
        kinds.add("one column" if n_proj == 1 else "every column" if n_proj == len(schema) else "key blob")
    assert kinds == {"one column", "every column", "key blob"}


_SETUP_SCHEMA = Schema(
    (
        Column("id", TYPE_INT64),
        Column("grp", TYPE_INT64),
        Column("v", TYPE_INT64),
        Column("label", TYPE_UTF8, nullable=True),
    )
)
_SETUP_FAMILIES = (
    "SELECT * FROM t WHERE grp = ?x",  # eq: every column
    "SELECT id, grp, label FROM t WHERE grp = ?g OR label = ?l",  # subset: key blob
    "SELECT * FROM t WHERE v >= ?lo AND v <= ?hi",  # range: every column
    "SELECT label FROM t WHERE label = ?l",  # one column
)


@pytest.mark.parametrize("capacity", [0, 512])
def test_writer_key_setups_follow_the_per_row_formula(monkeypatch, capacity):
    """The writer makes exactly the key setups its derivations need: more
    would buy speed with setups, and fewer would mean a dropped check."""
    rng = random.Random(0x5E7 + capacity)
    labels = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(4, 24))) for _ in range(12)]
    rows = [[i, rng.randrange(8), rng.randrange(1 << 20), rng.choice(labels + [None])] for i in range(120)]
    schema, n_rows = _SETUP_SCHEMA, len(rows)
    # A Utf8 encoding is one byte longer than its text.
    long_labels = sum(1 for row in rows if row[3] is not None and len(row[3]) + 1 > 16)
    assert 0 < long_labels < n_rows
    counts = _count_block_ciphers(monkeypatch)
    enc_part = encrypt_partition(PlainPartition(1, rows), schema, TABLE_KEY)
    # The table key, each row key, and each cell over 16 bytes.
    assert counts["setups"] == 1 + n_rows + long_labels
    for sql in _SETUP_FAMILIES:
        family = plan_family(sql, schema)
        counts.clear()
        stats = AddFamilyStats()
        params = FamilyParams(cache_capacity=capacity, rng_seed=1)
        add_family(enc_part, schema, TABLE_KEY, family, FAMILY_KEY, params, stats=stats)
        # A one-column or key-blob projection prepares one more key per row
        # for its entry; a whole-row one takes its entry from the row key's call.
        projection_keys = 0 if len(family.projected) == len(schema) else n_rows
        long_where_cells = long_labels if 3 in family.where_columns() else 0
        table_family_predicate_keys = 1 + 1 + family.n_pred
        assert counts["setups"] == (
            n_rows + 3 * stats.cache_misses + projection_keys + long_where_cells + table_family_predicate_keys
        ), sql


_READER_SETUP_CASES = (
    ("SELECT c FROM t WHERE c = ?x", "SELECT c FROM t WHERE c IN ({0}, {2}, 'absent')"),  # one column
    ("SELECT * FROM t WHERE b = ?x OR a = ?y", "SELECT * FROM t WHERE b = {1} OR a IN (2, 99)"),  # every column
    ("SELECT b, c FROM t WHERE b = ?x", "SELECT b, c FROM t WHERE b IN ({0}, {3}, 'absent')"),  # key blob
)


@pytest.mark.parametrize("tag_length", [1, 4])
@pytest.mark.parametrize("case", range(3))
def test_reader_key_setups_follow_the_per_key_formula(monkeypatch, case, tag_length):
    """With its selection ciphers prepared, a tagged reveal of a partition
    makes exactly the key setups its derivations and checks need: one
    tagging key per view key, one slot key per key whose first tag some
    row holds, one projection key per decrypt attempt, and one per
    projected cell over 16 bytes."""
    rng = random.Random(0x5E7 + 10 * case + tag_length)
    words = ["".join(rng.choices(string.ascii_lowercase, k=k)) for k in (5, 16, 23, 39)]
    rows = [[rng.randrange(4), rng.choice(words), rng.choice(words)] for _ in range(200)]
    schema, partition_id = _LONG_CELL_SCHEMA, 2
    family_sql, view_sql = _READER_SETUP_CASES[case]
    view_sql = view_sql.format(*(f"'{w}'" for w in words))
    family = plan_family(family_sql, schema)
    enc_part = encrypt_partition(PlainPartition(partition_id, [list(r) for r in rows]), schema, TABLE_KEY)
    add_family(enc_part, schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(tag_length=tag_length, rng_seed=3))
    keys = generate_view_keys(plan_view(view_sql, family, schema), FAMILY_KEY, tag_length)
    reveal_partition(enc_part, schema, family, keys)  # prepares the set's selection ciphers
    cols = enc_part.families[family.family_id]
    reaching = 0
    for j0, pred_keys in enumerate(keys.keys):
        own_tags = {cols.tagging[r0][j0 * tag_length : (j0 + 1) * tag_length] for r0 in range(len(rows))}
        for key in pred_keys:
            tag_key = BlockCipher(key).prf(pack_block(partition_id))
            reaching += BlockCipher(tag_key).prf(pack_block(0))[:tag_length] in own_tags
    counts = _count_block_ciphers(monkeypatch)
    stats = RevealStats()
    out = reveal_partition(enc_part, schema, family, keys, stats=stats)
    types = [schema.columns[c].type for c in family.projected]
    long_cells = sum(len(encode_cell(v, t)) > 16 for row in out for v, t in zip(row, types))
    assert out == eval_view(schema, rows, view_sql)
    assert long_cells and stats.decrypt_attempts
    if tag_length == 4:
        assert reaching < keys.total_keys(), "every key reached a candidate"
    assert counts["setups"] == keys.total_keys() + reaching + stats.decrypt_attempts + long_cells


# --------------------------------------------- cell offsets, read lazily


@pytest.mark.parametrize("bad_end", ["out-of-order", "past-the-end"])
def test_reveal_checks_the_offsets_of_the_cells_it_opens(boats_schema, bad_end):
    """Row 4's bname end offset is set below row 3's, or past the column's
    end, in the file. A reveal that opens row 4 raises a format error; one
    that opens neither row 4 nor row 5 (whose cell starts at that offset)
    returns the intact partition's rows and counters, as does one whose
    only bad cells lie in a column it does not project."""
    rows = [[100 + i, f"boat{i}", ("red", "blue", "green")[i % 3]] for i in range(12)]
    family = plan_family("SELECT bname, color FROM boats WHERE color IN ?c", boats_schema)
    enc_part = encrypt_partition(PlainPartition(1, rows), boats_schema, TABLE_KEY)
    add_family(enc_part, boats_schema, TABLE_KEY, family, FAMILY_KEY, FamilyParams(rng_seed=7))
    blob = serialize_encrypted(enc_part, boats_schema)

    def tampered(column):
        cells = enc_part.columns[column]
        end = cells.ends[2] if bad_end == "out-of-order" else len(cells.data) + 1
        return parse_encrypted(with_cell_end(blob, column, 4, end), boats_schema)

    def reveal(part, color):
        view = plan_view(f"SELECT bname, color FROM boats WHERE color = '{color}'", family, boats_schema)
        keys = generate_view_keys(view, FAMILY_KEY)
        stats = RevealStats()
        return reveal_partition(part, boats_schema, family, keys, stats=stats), _counters(stats)

    intact = parse_encrypted(blob, boats_schema)
    with pytest.raises(PartitionFormatError, match="non-decreasing"):
        reveal(tampered(1), "blue")  # rows 1, 4, 7 and 10
    red = reveal(intact, "red")  # rows 0, 3, 6 and 9
    assert red[0] == [(f"boat{i}", "red") for i in (0, 3, 6, 9)]
    assert reveal(tampered(1), "red") == red
    assert reveal(tampered(0), "blue") == reveal(intact, "blue")  # bid is not projected
