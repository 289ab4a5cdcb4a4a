"""The columnar plaintext path against the protocol.

Random tables are written both as CSV and as plain MEP2 sources, read
back, and encrypted; every cell must equal the derivation rules computed
with BlockCipher alone (row key, then cell key, then `ote`), as the
reference in `test_backend` does. Every fault of the path raises the
exact type and message pinned below, which are those of the row-by-row
code this path replaced, including which fault wins when there are
several.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealview.backend import encrypt_partition
from sealview.encoding import INT64_MAX, INT64_MIN, TYPE_INT64, TYPE_UTF8, EncodingError, encode_cell
from sealview.mep import PartitionFormatError, csv_to_partition, serialize_encrypted, serialize_plain
from sealview.model import Column, PlainPartition, Schema, SchemaError
from sealview.orchestrator import parse_plain_source
from sealview.primitives import BlockCipher, ote, pack_block

TABLE_KEY = bytes.fromhex("00112233445566778899aabbccddeeff")

_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _int_field(value: int, form: str) -> str:
    """`value` in one of the spellings `int()` accepts."""
    sign, digits = ("-", str(-value)) if value < 0 else ("", str(value))
    if form == "space":
        return f" {value} "
    if form == "plus":
        return sign + digits if sign else "+" + digits
    if form == "underscore":
        return sign + "_".join(digits)
    if form == "arabic":
        return sign + digits.translate(_ARABIC_INDIC)
    return str(value)


def _text_field(value: str) -> str:
    return '"' + value.replace('"', '""') + '"'


_INT_FORMS = st.sampled_from(["plain", "space", "plus", "underscore", "arabic"])
_INTS = st.one_of(st.sampled_from([INT64_MIN, INT64_MAX, 0, -1, 1000]), st.integers(INT64_MIN, INT64_MAX))
# Commas, quotes and newlines need quoting; "NULL" is the CSV null token.
_TEXT = st.text(
    st.one_of(st.sampled_from(list('ab ,"\n') + ["é", "中", "😀"]), st.characters(blacklist_categories=("Cs",))),
    max_size=20,
).filter(lambda s: s != "NULL" and "\r" not in s and "\x00" not in s)


@st.composite
def tables(draw):
    """A schema, its rows, and the rows as CSV text."""
    columns = []
    for c in range(draw(st.integers(1, 4))):
        columns.append(Column(f"c{c}", draw(st.sampled_from([TYPE_INT64, TYPE_UTF8])), draw(st.booleans())))
    schema = Schema(tuple(columns))
    rows, lines = [], []
    for _ in range(draw(st.integers(0, 12))):
        row, fields = [], []
        for col in columns:
            values = _INTS if col.type == TYPE_INT64 else _TEXT
            value = draw(st.one_of(st.none(), values) if col.nullable else values)
            row.append(value)
            if value is None:
                fields.append("NULL")
            elif col.type == TYPE_INT64:
                fields.append(_int_field(value, draw(_INT_FORMS)))
            else:
                fields.append(_text_field(value))
        rows.append(row)
        lines += [""] * draw(st.integers(0, 1)) + [",".join(fields)]  # a blank line holds no record
    return schema, rows, "".join(line + "\n" for line in lines)


def _reference_cells(rows, schema, partition_id):
    """Each column's ciphertexts, row by row, from BlockCipher alone."""
    columns = [[] for _ in schema.columns]
    for r0, row in enumerate(rows):
        row_key = BlockCipher(TABLE_KEY).prf(pack_block(partition_id, r0 + 1))
        for c, (value, col) in enumerate(zip(row, schema.columns)):
            cell_key = BlockCipher(row_key).prf(pack_block(c + 1))
            columns[c].append(ote(cell_key, encode_cell(value, col.type)))
    return columns


@settings(max_examples=80, deadline=None)
@given(tables(), st.integers(1, 2**32 - 1))
def test_csv_and_plain_mep_sources_encrypt_to_the_derived_cells(table, partition_id):
    schema, rows, text = table
    mep = serialize_plain(PlainPartition(partition_id, rows), schema)
    sources = [
        parse_plain_source((partition_id, "csv", Path("part.csv")), text.encode("utf-8"), schema),
        parse_plain_source((partition_id, "mep", Path("part.mep")), mep, schema),
    ]
    expected = _reference_cells(rows, schema, partition_id)
    blobs = set()
    for plain in sources:
        assert plain.partition_id == partition_id and plain.n_rows == len(rows)
        assert plain.rows == rows
        enc_part = encrypt_partition(plain, schema, TABLE_KEY)
        assert enc_part.n_rows == len(rows)
        assert [list(column) for column in enc_part.columns] == expected
        blobs.add(serialize_encrypted(enc_part, schema))
    assert len(blobs) == 1


_SCHEMA = Schema((Column("a", TYPE_INT64), Column("b", TYPE_UTF8, nullable=True), Column("c", TYPE_INT64, nullable=True)))
_BIG_FIELD = '"' + "x" * 131073 + '"'  # over the csv module's default field limit

CSV_FAULTS = [
    ("1,a,2\n2,b\n", PartitionFormatError, "line 2: 2 fields, schema has 3"),
    ("1,a,x\n", PartitionFormatError, "line 1: bad integer 'x'"),
    ("1,a,1.5\n", PartitionFormatError, "line 1: bad integer '1.5'"),
    ("1,a,2\n3,b,\n", PartitionFormatError, "line 2: bad integer ''"),
    (f"1,{_BIG_FIELD},2\n", PartitionFormatError, "line 1: field larger than field limit (131072)"),
    ('1,"x\ny",2\n2,b\n', PartitionFormatError, "line 3: 2 fields, schema has 3"),
    ("1,a,2\n\n\n4,b,5,6\n", PartitionFormatError, "line 4: 4 fields, schema has 3"),
    ("NULL,a,2\n", SchemaError, "null in non-nullable column 'a'"),
    ("9223372036854775808,a,1\n", EncodingError, "9223372036854775808 out of Int64 range"),
    # Two faults: the first record in the file wins, then the first field.
    ("1,a,2\nq,a,2\n3,b\n", PartitionFormatError, "line 2: bad integer 'q'"),
    ("1,a,z\nq,b,1\n", PartitionFormatError, "line 1: bad integer 'z'"),
    ("1,a\n1,a,x\n", PartitionFormatError, "line 1: 2 fields, schema has 3"),
    (f"1,a,q\n2,{_BIG_FIELD},2\n", PartitionFormatError, "line 1: bad integer 'q'"),
    (f"2,{_BIG_FIELD},2\n1,a,q\n", PartitionFormatError, "line 1: field larger than field limit (131072)"),
    # Two faults past ingestion: column by column, so column a's before c's.
    ("1,a,99999999999999999999\nNULL,b,1\n", SchemaError, "null in non-nullable column 'a'"),
    ("1,a,-9223372036854775809\n-9223372036854775809,b,1\n", EncodingError, "-9223372036854775809 out of Int64 range"),
]


@pytest.mark.parametrize("text, error, message", CSV_FAULTS)
def test_csv_faults_raise_as_before(text, error, message):
    with pytest.raises(error) as caught:
        encrypt_partition(csv_to_partition(text, _SCHEMA, 1), _SCHEMA, TABLE_KEY)
    assert type(caught.value) is error and str(caught.value) == message


ROW_FAULTS = [
    ([[1, "a", 2], [2]], SchemaError, "row 1 has 1 cells, schema has 3"),
    ([[1, "a", 2, 3]], SchemaError, "row 0 has 4 cells, schema has 3"),
    ([[None, "a", 1], [1, "a"]], SchemaError, "row 1 has 2 cells, schema has 3"),
    ([[1, None, 2.5], [None, "b", 3]], SchemaError, "null in non-nullable column 'a'"),
    ([[1, 5, "x"], [2, "b", 3]], EncodingError, "expected str, got int"),
    ([[1 << 63, "a", None], [True, "b", 1]], EncodingError, "9223372036854775808 out of Int64 range"),
    ([[1, "a", None], [True, "b", 1]], EncodingError, "expected int, got bool"),
    (
        [[1, "\ud800", None]],
        UnicodeEncodeError,
        "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed",
    ),
]


@pytest.mark.parametrize("rows, error, message", ROW_FAULTS)
def test_row_faults_raise_as_before(rows, error, message):
    with pytest.raises(error) as caught:
        encrypt_partition(PlainPartition(1, rows), _SCHEMA, TABLE_KEY)
    assert type(caught.value) is error and str(caught.value) == message
