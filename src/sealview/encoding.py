"""Canonical cell-value encodings.

Every cell is stored and encrypted as bytes; the encoding is injective
per column type so predicate evaluation and round trips are exact.
Int64 values map through an offset so that unsigned byte order equals
signed numeric order, which the range-cover machinery relies on. NULL is
a first-class value: strings always carry a presence tag byte, and a
null Int64 is a 9-byte tagged form distinguishable from every 8-byte
value encoding.

`ByteReader` is the one bounds-checked reader of the binary formats read
back from storage or handed over as files: partitions, canonical
families, view key blobs and key files.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from itertools import repeat

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_SIGN_OFFSET = 1 << 63

TYPE_INT64 = "int64"
TYPE_UTF8 = "utf8"


class EncodingError(ValueError):
    """Value does not match its declared column type."""


def encode_int64(value: int | None) -> bytes:
    if value is None:
        return b"\x00" + b"\x00" * 8
    if not isinstance(value, int) or isinstance(value, bool):
        raise EncodingError(f"expected int, got {type(value).__name__}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise EncodingError(f"{value} out of Int64 range")
    return struct.pack(">Q", value + _SIGN_OFFSET)


def decode_int64(data: bytes) -> int | None:
    if len(data) == 8:
        return struct.unpack(">Q", data)[0] - _SIGN_OFFSET
    if len(data) == 9 and data[0] == 0:
        return None
    raise EncodingError(f"malformed Int64 encoding of {len(data)} bytes")


def encode_utf8(value: str | None) -> bytes:
    if value is None:
        return b"\x00"
    if not isinstance(value, str):
        raise EncodingError(f"expected str, got {type(value).__name__}")
    return b"\x01" + value.encode("utf-8")


def decode_utf8(data: bytes) -> str | None:
    if not data:
        raise EncodingError("empty Utf8 encoding")
    if data[0] == 0:
        if len(data) != 1:
            raise EncodingError("null Utf8 encoding carries payload")
        return None
    if data[0] != 1:
        raise EncodingError(f"bad Utf8 tag byte {data[0]:#x}")
    try:
        return data[1:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError("Utf8 payload is not valid UTF-8") from exc


def encode_cell(value, column_type: str) -> bytes:
    if column_type == TYPE_INT64:
        return encode_int64(value)
    if column_type == TYPE_UTF8:
        return encode_utf8(value)
    raise EncodingError(f"unknown column type {column_type!r}")


def encode_column(values: Sequence, column_type: str) -> bytes | list[bytes]:
    """`encode_cell` of each of a column's values. An Int64 column of
    ints alone (so no NULL) comes back as its 8-byte cells packed back
    to back by one `struct.pack`, any other column as the list of its
    cells. A value that does not encode raises as `encode_cell` does, at
    the column's first such value."""
    if column_type == TYPE_INT64 and set(map(type, values)) <= {int}:
        try:
            return struct.pack(f">{len(values)}Q", *map(_SIGN_OFFSET.__add__, values))
        except struct.error:
            pass  # a value out of range, which encode_cell names below
    return list(map(encode_cell, values, repeat(column_type)))


def decode_cell(data: bytes, column_type: str):
    if column_type == TYPE_INT64:
        return decode_int64(data)
    if column_type == TYPE_UTF8:
        return decode_utf8(data)
    raise EncodingError(f"unknown column type {column_type!r}")


def int64_to_unsigned(value: int) -> int:
    """Map a signed Int64 into the order-preserving unsigned domain."""
    return value + _SIGN_OFFSET


class ByteReader:
    """Cursor over one binary blob: a 4-byte magic, a u16 version, then
    counted reads, then nothing. Nothing is sliced or allocated before
    the bytes it needs are known to be there, so work and memory stay
    bounded by the input, and every malformation raises `error` with a
    message naming `what`."""

    __slots__ = ("data", "off", "error", "what")

    def __init__(self, data: bytes, error: type[Exception], what: str):
        self.data, self.off, self.error, self.what = data, 0, error, what

    def need(self, n: int) -> None:
        if n > len(self.data) - self.off:
            raise self.error(f"truncated {self.what}")

    def take(self, n: int) -> bytes:
        self.need(n)
        self.off += n
        return self.data[self.off - n : self.off]

    def unpack(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        self.need(size)
        self.off += size
        return struct.unpack_from(fmt, self.data, self.off - size)

    def header(self, magic: bytes, version: int) -> None:
        """Check the magic before reading anything, then the version."""
        if self.data[self.off : self.off + len(magic)] != magic:
            raise self.error(f"bad {self.what} magic")
        self.off += len(magic)
        (found,) = self.unpack(">H")
        if found != version:
            raise self.error(f"unsupported {self.what} version {found}")

    def end(self) -> None:
        if self.off != len(self.data):
            raise self.error(f"trailing bytes in {self.what}")
