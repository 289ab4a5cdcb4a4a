"""Partition file format and CSV ingestion/egress.

One file per partition, format MEP2. All integers are big-endian:

    magic "MEP2" | version u16 (2) | flags u8 (0 plain, 1 encrypted)
    partition_id u32 | row_count u32 | column_count u16
    per column: name (u16 length + utf-8) | type u8 | nullable u8 (0 or 1)
    per column, in schema order:
        row_count x u32 cell end offsets, non-decreasing, relative to
        the column's first cell byte | the cells, back to back
    family_count u16, then per family (strictly ascending id):
        family_id (8 raw bytes) | projection/selection/tagging entry
        widths u32 x3 | projection column | selection column |
        tagging column, each row_count x its width bytes

A column's byte length is its last end offset, and a family section's
is fixed by its widths, so the tagging column of any family and any
single cell are found from the header fields alone, without reading
other cells. Plain partitions store the canonical cell encodings and no
families; encrypted ones store ciphertexts (same lengths). Encrypted
payloads do not benefit from compression, so none is applied. MEP1, the
row-major predecessor with a u32 length before every cell, is rejected.

Parsing does work per column, not per row: it takes a column's offsets
as one array and its bytes up to the last offset. It rejects a bad
magic or version, truncated offsets or cells, a bad schema, families
out of order or of bad widths, and trailing bytes. The cell offsets are
checked where they are read (`CellColumn`): reading one cell checks its
two offsets, and a reader of a whole column (iteration, serialization,
and so the decoding of a plain partition at parse) checks all of them
once. An encrypted file with an offset out of order thus parses, and
only a read that reaches the bad offset raises PartitionFormatError, so
a reveal pays for the rows it opens, not for those it skips.

CSV (RFC 4180) is supported for plaintext ingestion and view egress
only; the unquoted token NULL means a null cell, which makes the
literal string "NULL" unrepresentable in CSV at this layer.
"""

from __future__ import annotations

import csv
import io
import struct
import sys
from array import array

from .encoding import TYPE_INT64, TYPE_UTF8, ByteReader, EncodingError, decode_cell, encode_cell
from .model import (
    CellColumn,
    Column,
    EncryptedPartition,
    FamilyColumns,
    FixedWidthColumn,
    PartitionFormatError,
    PlainPartition,
    Schema,
    SchemaError,
)

MAGIC = b"MEP2"
VERSION = 2
FLAG_PLAIN = 0
FLAG_ENCRYPTED = 1

_RETIRED_MAGIC = b"MEP1"
_TYPE_CODES = {TYPE_INT64: 0, TYPE_UTF8: 1}
_TYPE_NAMES = {v: k for k, v in _TYPE_CODES.items()}

_U32 = "I" if array("I").itemsize == 4 else "L"  # the array type code of a C u32
_LITTLE_ENDIAN = sys.byteorder == "little"

NULL_TOKEN = "NULL"


def _header(flags: int, partition_id: int, n_rows: int, schema: Schema) -> list[bytes]:
    out = [MAGIC, struct.pack(">HBIIH", VERSION, flags, partition_id, n_rows, len(schema))]
    for col in schema.columns:
        name = col.name.encode("utf-8")
        out.append(struct.pack(">H", len(name)) + name)
        out.append(struct.pack(">BB", _TYPE_CODES[col.type], int(col.nullable)))
    return out


def _swapped(ends: array) -> array:
    """`ends` flipped between MEP2's big-endian u32s and native ones (a
    flip only on a little-endian host; its own inverse)."""
    if _LITTLE_ENDIAN:
        ends.byteswap()
    return ends


def _cell_section(col: CellColumn) -> bytes:
    col.check()
    return _swapped(array(_U32, col.ends)).tobytes() + col.data


def serialize_plain(partition: PlainPartition, schema: Schema) -> bytes:
    out = _header(FLAG_PLAIN, partition.partition_id, len(partition.rows), schema)
    for c, col in enumerate(schema.columns):
        cells = [encode_cell(row[c], col.type) for row in partition.rows]
        out.append(_cell_section(CellColumn.from_cells(cells)))
    out.append(struct.pack(">H", 0))
    return b"".join(out)


def serialize_encrypted(partition: EncryptedPartition, schema: Schema) -> bytes:
    n_rows = partition.n_rows
    if len(partition.columns) != len(schema):
        raise PartitionFormatError("partition column count does not match the schema")
    out = _header(FLAG_ENCRYPTED, partition.partition_id, n_rows, schema)
    out.extend(_cell_section(col) for col in partition.columns)
    family_ids = sorted(partition.families)
    out.append(struct.pack(">H", len(family_ids)))
    for family_id in family_ids:
        fam = partition.families[family_id]
        sections = (fam.projection, fam.selection, fam.tagging)
        if any(len(col) != n_rows for col in sections):
            raise PartitionFormatError("family columns out of step with partition rows")
        out.append(bytes.fromhex(family_id))
        out.append(struct.pack(">III", *(col.width for col in sections)))
        out.extend(col.data for col in sections)
    return b"".join(out)


def _cell_column(rd: ByteReader, n_rows: int) -> CellColumn:
    """The column's offsets as stored, unchecked (see `CellColumn`), and
    its bytes up to the last one."""
    ends = _swapped(array(_U32, rd.take(4 * n_rows)))
    return CellColumn(rd.take(ends[-1] if ends else 0), ends)


def _read_schema(rd: ByteReader, n_cols: int) -> Schema:
    cols = []
    for _ in range(n_cols):
        (name_len,) = rd.unpack(">H")
        raw_name = rd.take(name_len)
        type_code, nullable = rd.unpack(">BB")
        if type_code not in _TYPE_NAMES:
            raise PartitionFormatError(f"unknown column type code {type_code}")
        if nullable > 1:
            raise PartitionFormatError(f"bad nullable flag {nullable}")
        try:
            cols.append(Column(raw_name.decode("utf-8"), _TYPE_NAMES[type_code], bool(nullable)))
        except UnicodeDecodeError as exc:
            raise PartitionFormatError("column name is not valid UTF-8") from exc
        except SchemaError as exc:
            raise PartitionFormatError(f"bad schema: {exc}") from exc
    try:
        return Schema(tuple(cols))
    except SchemaError as exc:
        raise PartitionFormatError(f"bad schema: {exc}") from exc


def _read_family(rd: ByteReader, n_rows: int) -> FamilyColumns:
    widths = rd.unpack(">III")
    if n_rows and not all(widths):
        raise PartitionFormatError("family entry widths must be positive")
    return FamilyColumns(*(FixedWidthColumn(rd.take(n_rows * w), w) for w in widths))


def parse_partition(data: bytes) -> tuple[Schema, PlainPartition | EncryptedPartition]:
    """Parse a MEP2 file; any malformation raises PartitionFormatError,
    here or, for a cell offset, where the cell is read."""
    if data[:4] == _RETIRED_MAGIC:
        raise PartitionFormatError(
            "partition format version 1 (MEP1) is no longer supported; "
            "re-encrypt the table to write MEP2"
        )
    rd = ByteReader(data, PartitionFormatError, "partition file")
    rd.header(MAGIC, VERSION)
    flags, partition_id, n_rows, n_cols = rd.unpack(">BIIH")
    if flags not in (FLAG_PLAIN, FLAG_ENCRYPTED):
        raise PartitionFormatError(f"unknown partition flags {flags}")
    if partition_id < 1:
        raise PartitionFormatError("partition ids start at 1")
    schema = _read_schema(rd, n_cols)
    columns = [_cell_column(rd, n_rows) for _ in range(n_cols)]

    (n_families,) = rd.unpack(">H")
    families: dict[str, FamilyColumns] = {}
    family_id = ""
    for _ in range(n_families):
        previous, family_id = family_id, rd.take(8).hex()
        if family_id <= previous:
            raise PartitionFormatError("family sections out of order or repeated")
        families[family_id] = _read_family(rd, n_rows)
    rd.end()

    if flags == FLAG_ENCRYPTED:
        return schema, EncryptedPartition(partition_id, columns, families)
    if families:
        raise PartitionFormatError("plain partitions carry no family columns")
    try:
        decoded = [
            [decode_cell(cell, col.type) for cell in cells]
            for cells, col in zip(columns, schema.columns)
        ]
    except EncodingError as exc:
        raise PartitionFormatError(f"bad plain cell: {exc}") from exc
    return schema, PlainPartition(partition_id, [list(row) for row in zip(*decoded)])


def parse_encrypted(data: bytes, schema: Schema) -> EncryptedPartition:
    file_schema, part = parse_partition(data)
    if not isinstance(part, EncryptedPartition):
        raise PartitionFormatError("expected an encrypted partition")
    if file_schema != schema:
        raise PartitionFormatError("partition schema does not match the manifest")
    return part


def parse_plain(data: bytes, schema: Schema | None = None) -> tuple[Schema, PlainPartition]:
    file_schema, part = parse_partition(data)
    if not isinstance(part, PlainPartition):
        raise PartitionFormatError("expected a plain partition")
    if schema is not None and file_schema != schema:
        raise PartitionFormatError("partition schema does not match the manifest")
    return file_schema, part


# ---------------------------------------------------------------------- CSV


def decode_csv(data: bytes, name: str) -> str:
    """The text of CSV file `name`; EncodingError if it is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{name} is not UTF-8: {exc}") from None


def csv_to_partition(text: str, schema: Schema, partition_id: int) -> PlainPartition:
    """The partition in CSV `text`; a bad record raises
    PartitionFormatError naming the line it ends on."""
    rows = []
    reader = csv.reader(io.StringIO(text))
    try:
        for record in reader:
            line_no = reader.line_num
            if not record:
                continue
            if len(record) != len(schema):
                raise PartitionFormatError(
                    f"line {line_no}: {len(record)} fields, schema has {len(schema)}"
                )
            row = []
            for raw, col in zip(record, schema.columns):
                if raw == NULL_TOKEN:
                    row.append(None)
                elif col.type == TYPE_INT64:
                    try:
                        row.append(int(raw))
                    except ValueError as exc:
                        raise PartitionFormatError(f"line {line_no}: bad integer {raw!r}") from exc
                else:
                    row.append(raw)
            rows.append(row)
    except csv.Error as exc:  # only the reader raises it, e.g. for a field over its size limit
        raise PartitionFormatError(f"line {reader.line_num}: {exc}") from exc
    return PlainPartition(partition_id, rows)


def partition_to_csv(rows: list[tuple], out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([NULL_TOKEN if v is None else v for v in row])
