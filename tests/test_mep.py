"""Partition file format and CSV round trips."""

import hashlib
import io
import json
import re
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealview.backend import FamilyParams, add_family, encrypt_partition, random_key
from sealview.encoding import TYPE_INT64, TYPE_UTF8, encode_cell
from sealview.manifest import FamilyRecord, ManifestError, TableManifest
from sealview.mep import (
    PartitionFormatError,
    csv_to_partition,
    parse_encrypted,
    parse_partition,
    parse_plain,
    partition_to_csv,
    serialize_encrypted,
    serialize_plain,
)
from sealview.model import (
    CellColumn,
    Column,
    EncryptedPartition,
    FamilyColumns,
    FixedWidthColumn,
    PlainPartition,
    Schema,
)
from sealview.planner import plan_family


def test_plain_round_trip(boats_schema, boats_partition):
    blob = serialize_plain(boats_partition, boats_schema)
    schema, part = parse_plain(blob, boats_schema)
    assert schema == boats_schema
    assert part.partition_id == 1
    assert part.rows == boats_partition.rows


def test_empty_partition_round_trip(boats_schema):
    blob = serialize_plain(PlainPartition(5, []), boats_schema)
    _, part = parse_plain(blob)
    assert part.partition_id == 5
    assert part.rows == []


def test_encrypted_round_trip(boats_schema, boats_partition):
    family = plan_family("SELECT * FROM t WHERE color = ?x", boats_schema)
    table_key = random_key()
    enc_part = encrypt_partition(boats_partition, boats_schema, table_key)
    add_family(enc_part, boats_schema, table_key, family, random_key(), FamilyParams())
    blob = serialize_encrypted(enc_part, boats_schema)
    back = parse_encrypted(blob, boats_schema)
    assert back.partition_id == enc_part.partition_id
    assert back.rows == enc_part.rows
    fid = family.family_id
    assert back.families[fid].projection == enc_part.families[fid].projection
    assert back.families[fid].selection == enc_part.families[fid].selection
    assert back.families[fid].tagging == enc_part.families[fid].tagging


def test_magic_version_and_truncation_errors(boats_schema, boats_partition):
    blob = serialize_plain(boats_partition, boats_schema)
    with pytest.raises(PartitionFormatError, match="magic"):
        parse_partition(b"XXXX" + blob[4:])
    with pytest.raises(PartitionFormatError, match="version"):
        parse_partition(blob[:4] + b"\x00\x09" + blob[6:])
    with pytest.raises(PartitionFormatError, match="truncated"):
        parse_partition(blob[:-3])
    with pytest.raises(PartitionFormatError, match="trailing"):
        parse_partition(blob + b"\x00")


def test_schema_mismatch_detected(boats_schema, boats_partition):
    blob = serialize_plain(boats_partition, boats_schema)
    other = Schema((Column("a", TYPE_INT64),))
    with pytest.raises(PartitionFormatError, match="schema"):
        parse_plain(blob, other)


def test_csv_parses_running_example_row(boats_schema):
    part = csv_to_partition("101,Interlake,blue\n", boats_schema, 1)
    assert part.rows == [[101, "Interlake", "blue"]]


def test_csv_null_token_and_quoting():
    schema = Schema(
        (Column("n", TYPE_INT64, nullable=True), Column("s", TYPE_UTF8, nullable=True))
    )
    part = csv_to_partition('7,"a,b"\nNULL,NULL\n-3,"say ""hi"""\n', schema, 1)
    assert part.rows == [[7, "a,b"], [None, None], [-3, 'say "hi"']]
    out = io.StringIO()
    partition_to_csv([tuple(r) for r in part.rows], out)
    back = csv_to_partition(out.getvalue(), schema, 1)
    assert back.rows == part.rows


def test_csv_rejects_bad_shapes(boats_schema):
    with pytest.raises(PartitionFormatError, match="fields"):
        csv_to_partition("1,2\n", boats_schema, 1)
    with pytest.raises(PartitionFormatError, match="integer"):
        csv_to_partition("x,Interlake,blue\n", boats_schema, 1)


def test_manifest_round_trip(boats_schema):
    family = plan_family("SELECT * FROM t WHERE color = ?x", boats_schema)
    manifest = TableManifest(
        name="boats",
        schema=boats_schema,
        partitions=[(1, 4), (2, 0)],
        families=[FamilyRecord(family.family_id, family, 4, 8)],
    )
    text = manifest.to_json()
    back = TableManifest.from_json(text)
    assert back.name == "boats"
    assert back.schema == boats_schema
    assert back.partitions == [(1, 4), (2, 0)]
    assert back.families[0].family == family
    assert back.generation == 0
    assert back.to_json() == text


def test_manifest_rejects_duplicates(boats_schema):
    with pytest.raises(ManifestError, match="duplicate partition"):
        TableManifest("t", boats_schema, [(1, 4), (1, 2)])
    family = plan_family("SELECT * FROM t WHERE color = ?x", boats_schema)
    rec = FamilyRecord(family.family_id, family, 4, 8)
    with pytest.raises(ManifestError, match="duplicate family"):
        TableManifest("t", boats_schema, [(1, 4)], [rec, rec])


def test_manifest_rejects_out_of_schema_family(boats_schema):
    family = plan_family("SELECT * FROM t WHERE color = ?x", boats_schema)
    small = Schema((Column("only", TYPE_INT64),))
    with pytest.raises(ManifestError, match="outside the schema"):
        TableManifest("t", small, [(1, 4)], [FamilyRecord(family.family_id, family, 4, 8)])


def _manifest_doc(boats_schema) -> dict:
    family = plan_family("SELECT * FROM t WHERE color = ?x", boats_schema)
    manifest = TableManifest("boats", boats_schema, [(1, 4), (2, 0)], [FamilyRecord(family.family_id, family, 4, 8)], 3)
    return json.loads(manifest.to_json())


def test_manifest_rejects_ill_typed_fields(boats_schema):
    doc = _manifest_doc(boats_schema)
    assert TableManifest.from_json(json.dumps(doc)).generation == 3
    family = doc["families"][0]
    bad = {
        "version 1": {**doc, "format_version": 1},
        "version True": {**doc, "format_version": True},
        "lacks 'generation'": {k: v for k, v in doc.items() if k != "generation"},
        "'generation' must be >= 0": {**doc, "generation": -1},
        "'generation' must be of type int": {**doc, "generation": 1.0},
        "'table' must be of type str": {**doc, "table": 7},
        "'id' must be >= 1": {**doc, "partitions": [{"id": 0, "rows": 1}]},
        "'rows' must be of type int": {**doc, "partitions": [{"id": 1, "rows": True}]},
        "partition entry must be a JSON object": {**doc, "partitions": [[1, 2]]},
        "schema column must be a JSON object": {**doc, "schema": [1]},
        "bad manifest schema": {**doc, "schema": [{"name": "a", "type": "float"}]},
        "bad canonical form": {**doc, "families": [{**family, "canonical": "zz"}]},
        "does not match": {**doc, "families": [{**family, "family_id": "00" * 8}]},
        "'tag_length_bytes' must be in 1..16": {**doc, "families": [{**family, "tag_length_bytes": 17}]},
    }
    for message, broken in bad.items():
        with pytest.raises(ManifestError, match=re.escape(message)):
            TableManifest.from_json(json.dumps(broken))
    for text in ('{"format_version":1}', "[1]", "[" * 100_000, b"\xff"):
        with pytest.raises(ManifestError):
            TableManifest.from_json(text)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _manifest_texts(draw):
    """Arbitrary text, or a valid manifest with one field replaced or dropped."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200))
    doc = _manifest_doc(Schema((Column("bid", TYPE_INT64), Column("bname", TYPE_UTF8), Column("color", TYPE_UTF8))))
    target = draw(st.sampled_from([doc, doc["partitions"][0], doc["schema"][0], doc["families"][0]]))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(_JSON_VALUES)
    return json.dumps(doc)


@settings(max_examples=1000, deadline=500, derandomize=True)
@given(_manifest_texts())
def test_any_manifest_text_raises_only_manifest_errors(text):
    started = time.perf_counter()
    try:
        TableManifest.from_json(text)
    except ManifestError:
        pass
    assert time.perf_counter() - started < 0.5


# ------------------------------------------------------------------ MEP2


def _assert_same_partition(a: EncryptedPartition, b: EncryptedPartition):
    assert a.partition_id == b.partition_id
    assert a.n_rows == b.n_rows
    for col_a, col_b in zip(a.columns, b.columns, strict=True):
        assert list(col_a) == list(col_b)
    assert sorted(a.families) == sorted(b.families)
    for fid, fam in a.families.items():
        other = b.families[fid]
        for name in ("projection", "selection", "tagging"):
            assert list(getattr(fam, name)) == list(getattr(other, name)), name


def _digest(part: EncryptedPartition) -> str:
    """Hash of every cell ciphertext (row-major) and family entry,
    independent of the file layout."""
    h = hashlib.sha256()
    for row in part.rows:
        for cell in row:
            h.update(struct.pack(">I", len(cell)) + cell)
    for fid in sorted(part.families):
        fam = part.families[fid]
        h.update(bytes.fromhex(fid))
        for col in (fam.projection, fam.selection, fam.tagging):
            for entry in col:
                h.update(entry)
    return h.hexdigest()


_KA_SCHEMA = Schema(
    (
        Column("id", TYPE_INT64),
        Column("label", TYPE_UTF8, nullable=True),
        Column("grp", TYPE_INT64),
    )
)
_KA_FAMILIES = (
    ("SELECT * FROM t WHERE grp = ?g", bytes(range(16, 32))),
    ("SELECT label, grp FROM t WHERE grp = ?g OR label = ?l", bytes(range(32, 48))),
    ("SELECT grp FROM t WHERE grp >= ?lo AND grp <= ?hi", bytes(range(48, 64))),
)


def _known_answer_partition(n_rows: int = 40) -> EncryptedPartition:
    """NULL cells, 1-byte cells and cells longer than 16 bytes, under
    fixed keys and a fixed projection-key seed; three families cover the
    SELECT-*, general and single-column projection paths."""
    table_key = bytes(range(16))
    rows = [[i, None if i % 5 == 0 else "x" * (i % 23), i % 3] for i in range(n_rows)]
    part = encrypt_partition(PlainPartition(2, rows), _KA_SCHEMA, table_key)
    for sql, key in _KA_FAMILIES:
        add_family(
            part, _KA_SCHEMA, table_key, plan_family(sql, _KA_SCHEMA), key,
            FamilyParams(tag_length=3, rng_seed=11),
        )
    return part


def test_ciphertexts_and_family_entries_unchanged_for_fixed_keys():
    # Digest recorded from the row-major MEP1 implementation: the column
    # layout must not change a single ciphertext or family entry.
    part = _known_answer_partition()
    expected = "3d796a5a76d23d5ee14796b5b08dbbea6a7d96a9f533d0f2c34f95e83d2c59a7"
    assert _digest(part) == expected
    back = parse_encrypted(serialize_encrypted(part, _KA_SCHEMA), _KA_SCHEMA)
    assert _digest(back) == expected
    _assert_same_partition(part, back)


@pytest.mark.parametrize("n_rows", [0, 1, 40])
def test_encrypted_round_trip_cell_for_cell(n_rows):
    part = _known_answer_partition(n_rows)
    blob = serialize_encrypted(part, _KA_SCHEMA)
    back = parse_encrypted(blob, _KA_SCHEMA)
    _assert_same_partition(part, back)
    assert serialize_encrypted(back, _KA_SCHEMA) == blob


def test_round_trip_zero_byte_and_long_cells():
    cells = [b"", b"\x01", bytes(range(17)), b"", bytes(200)]
    part = EncryptedPartition(
        3,
        [CellColumn.from_cells(cells), CellColumn.from_cells([b"ab"] * 5)],
        {"0011223344556677": FamilyColumns(
            *(FixedWidthColumn.from_entries([bytes([r]) * w for r in range(5)]) for w in (16, 32, 2))
        )},
    )
    schema = Schema((Column("a", TYPE_UTF8), Column("b", TYPE_UTF8)))
    back = parse_encrypted(serialize_encrypted(part, schema), schema)
    _assert_same_partition(part, back)
    assert list(back.columns[0]) == cells
    assert back.columns[0][2] == bytes(range(17)) and back.columns[0][-1] == bytes(200)


def test_plain_round_trip_nulls_and_empty():
    schema = Schema(
        (Column("n", TYPE_INT64, nullable=True), Column("s", TYPE_UTF8, nullable=True))
    )
    rows = [[None, None], [-(2**63), ""], [2**63 - 1, "é" * 20], [0, None]]
    for part in (PlainPartition(4, rows), PlainPartition(4, [])):
        _, back = parse_plain(serialize_plain(part, schema), schema)
        assert back.rows == part.rows


def test_file_size_matches_row_major_layout(boats_schema, boats_partition):
    # One u32 end offset per cell costs what one u32 length prefix did.
    table_key = random_key()
    part = encrypt_partition(boats_partition, boats_schema, table_key)
    header = 4 + 13 + sum(2 + len(c.name.encode()) + 2 for c in boats_schema.columns)
    cells = sum(4 + len(cell) for row in part.rows for cell in row)
    assert len(serialize_encrypted(part, boats_schema)) == header + cells + 2


def _mep1_blob() -> bytes:
    """A one-row plain partition in the retired row-major MEP1 layout."""
    cell = encode_cell(7, TYPE_INT64)
    return (
        b"MEP1" + struct.pack(">HBIIH", 1, 0, 1, 1, 1)
        + struct.pack(">H", 1) + b"a" + struct.pack(">BB", 0, 0)
        + struct.pack(">I", len(cell)) + cell + struct.pack(">H", 0)
    )


def test_mep1_rejected_as_unsupported_version():
    with pytest.raises(PartitionFormatError, match="version 1 .*no longer supported"):
        parse_partition(_mep1_blob())


def _with_column_name(blob: bytes, name: bytes) -> bytes:
    # boats schema: the first column name ("bid") starts at byte 19.
    return blob[:17] + struct.pack(">H", len(name)) + name + blob[22:]


def test_header_corruption_is_a_format_error(boats_schema, boats_partition):
    blob = serialize_plain(boats_partition, boats_schema)
    assert blob[17:22] == b"\x00\x03bid"
    bad = {
        "UTF-8": _with_column_name(blob, b"b\xffd"),
        "non-empty": _with_column_name(blob, b""),
        "duplicate": _with_column_name(blob, b"bname"),
        "type code": blob[:22] + b"\x07" + blob[23:],
        "nullable": blob[:23] + b"\x02" + blob[24:],
        "flags": blob[:6] + b"\x05" + blob[7:],
        "partition ids": blob[:7] + b"\x00\x00\x00\x00" + blob[11:],
    }
    for message, data in bad.items():
        with pytest.raises(PartitionFormatError, match=message):
            parse_partition(data)


def test_non_monotone_offsets_rejected(boats_schema, boats_partition):
    blob = serialize_plain(boats_partition, boats_schema)
    cells_at = 4 + 13 + sum(2 + len(c.name) + 2 for c in boats_schema.columns)
    first, second = blob[cells_at : cells_at + 4], blob[cells_at + 4 : cells_at + 8]
    swapped = blob[:cells_at] + second + first + blob[cells_at + 8 :]
    with pytest.raises(PartitionFormatError, match="non-decreasing"):
        parse_partition(swapped)
    huge_count = blob[:11] + struct.pack(">I", 2**31) + blob[15:]
    with pytest.raises(PartitionFormatError, match="truncated"):
        parse_partition(huge_count)


def test_families_must_be_ascending():
    part = _known_answer_partition(3)
    blob = serialize_encrypted(part, _KA_SCHEMA)
    fids = sorted(part.families)
    tampered = blob.replace(bytes.fromhex(fids[1]), bytes.fromhex(fids[0]))
    with pytest.raises(PartitionFormatError, match="out of order"):
        parse_partition(tampered)


_FUZZ_BLOBS = (
    serialize_encrypted(_known_answer_partition(6), _KA_SCHEMA),
    serialize_plain(PlainPartition(1, [[1, "abc", 2], [3, None, 4]]), _KA_SCHEMA),
)


@st.composite
def _mutated_partitions(draw):
    blob = draw(st.sampled_from(_FUZZ_BLOBS))
    kind = draw(st.sampled_from(("truncate", "flip", "append")))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=64))
    at = draw(st.integers(0, len(blob) - 1))
    mask = draw(st.integers(1, 255))
    return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]


@settings(max_examples=1500, deadline=500, derandomize=True)
@given(_mutated_partitions())
def test_mutated_partitions_raise_only_format_errors(data):
    started = time.perf_counter()
    try:
        _, part = parse_partition(data)
    except PartitionFormatError:
        return
    # Whatever parses must be whole: every cell and entry is reachable.
    if isinstance(part, EncryptedPartition):
        assert all(len(col) == part.n_rows for col in part.columns)
        for row in part.rows:
            assert len(row) == len(part.columns)
        for fam in part.families.values():
            for col in (fam.projection, fam.selection, fam.tagging):
                assert len(list(col)) == part.n_rows
    assert time.perf_counter() - started < 0.5
