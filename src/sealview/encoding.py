"""Canonical cell-value encodings.

Every cell is stored and encrypted as bytes; the encoding is injective
per column type so predicate evaluation and round trips are exact.
Int64 values map through an offset so that unsigned byte order equals
signed numeric order, which the range-cover machinery relies on. NULL is
a first-class value: strings always carry a presence tag byte, and a
null Int64 is a 9-byte tagged form distinguishable from every 8-byte
value encoding.
"""

from __future__ import annotations

import struct

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


def decode_cell(data: bytes, column_type: str):
    if column_type == TYPE_INT64:
        return decode_int64(data)
    if column_type == TYPE_UTF8:
        return decode_utf8(data)
    raise EncodingError(f"unknown column type {column_type!r}")


def int64_to_unsigned(value: int) -> int:
    """Map a signed Int64 into the order-preserving unsigned domain."""
    return value + _SIGN_OFFSET
