"""Edit one cell end offset of a serialized encrypted MEP2 partition."""

import struct

from sealview.mep import parse_partition


def with_cell_end(blob: bytes, column: int, row: int, end: int) -> bytes:
    """`blob` with column `column`'s end offset for `row` set to `end`.
    Every other byte stays, so the file still parses whenever `row` is
    not the column's last row: parsing reads no offset but the last."""
    schema, part = parse_partition(blob)
    at = 4 + 13 + sum(2 + len(col.name.encode()) + 2 for col in schema.columns)
    at += sum(4 * len(col) + len(col.data) for col in part.columns[:column]) + 4 * row
    return blob[:at] + struct.pack(">I", end) + blob[at + 4 :]
