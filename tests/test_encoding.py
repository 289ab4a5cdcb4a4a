import random
import struct

import pytest

from sealview.backend import (
    BackendError,
    FamilyParams,
    ViewKeySet,
    add_family,
    encrypt_partition,
    generate_view_keys,
)
from sealview.encoding import (
    EncodingError,
    INT64_MAX,
    INT64_MIN,
    TYPE_INT64,
    TYPE_UTF8,
    decode_cell,
    encode_cell,
)
from sealview.keys import KeyFileError, read_key, write_key
from sealview.mep import PartitionFormatError, parse_partition, serialize_encrypted
from sealview.model import Column, PlainPartition, Schema
from sealview.planner import CanonicalFamily, PlannerError, plan_family, plan_view


def test_int64_zero_encoding():
    assert encode_cell(0, TYPE_INT64) == bytes.fromhex("8000000000000000")


def test_int64_encoding_is_order_preserving():
    assert encode_cell(-1, TYPE_INT64) < encode_cell(0, TYPE_INT64) < encode_cell(1, TYPE_INT64)
    rng = random.Random(11)
    values = sorted(rng.randint(INT64_MIN, INT64_MAX) for _ in range(500))
    encoded = [encode_cell(v, TYPE_INT64) for v in values]
    assert encoded == sorted(encoded)


def test_round_trip_random_values():
    rng = random.Random(12)
    for _ in range(10_000):
        v = rng.randint(INT64_MIN, INT64_MAX)
        assert decode_cell(encode_cell(v, TYPE_INT64), TYPE_INT64) == v
    for _ in range(10_000):
        s = "".join(rng.choice("abé中xyz '\"") for _ in range(rng.randrange(0, 12)))
        assert decode_cell(encode_cell(s, TYPE_UTF8), TYPE_UTF8) == s


def test_null_encodings():
    assert encode_cell(None, TYPE_INT64) == b"\x00" * 9
    assert encode_cell(None, TYPE_UTF8) == b"\x00"
    assert decode_cell(b"\x00" * 9, TYPE_INT64) is None
    assert decode_cell(b"\x00", TYPE_UTF8) is None


def test_decode_rejects_malformed():
    with pytest.raises(EncodingError):
        decode_cell(b"\x02abc", TYPE_UTF8)
    with pytest.raises(EncodingError):
        decode_cell(b"\x01\x00\x00", TYPE_INT64)
    with pytest.raises(EncodingError):
        decode_cell(b"", TYPE_UTF8)


def test_encode_rejects_out_of_range():
    with pytest.raises(EncodingError):
        encode_cell(1 << 63, TYPE_INT64)
    with pytest.raises(EncodingError):
        encode_cell("text", TYPE_INT64)


# ------------------------------------------- the binary formats read back

_SCHEMA = Schema((Column("bid", TYPE_INT64), Column("bname", TYPE_UTF8), Column("color", TYPE_UTF8)))
_FAMILY = plan_family("SELECT bid, color FROM t WHERE color = ?c OR bid >= ?lo", _SCHEMA)
_KEY = bytes(range(16))


def _partition(tmp_path):
    rows = [[101, "Interlake", "blue"], [102, "Clipper", "red"], [103, "Marine", "red"]]
    part = encrypt_partition(PlainPartition(1, rows), _SCHEMA, _KEY)
    add_family(part, _SCHEMA, _KEY, _FAMILY, _KEY, FamilyParams(tag_length=2, rng_seed=1))
    return serialize_encrypted(part, _SCHEMA), parse_partition, PartitionFormatError


def _family(tmp_path):
    return _FAMILY.serialize(), CanonicalFamily.deserialize, PlannerError


def _view_keys(tmp_path):
    view = plan_view("SELECT bid, color FROM t WHERE color IN ('red', 'blue')", _FAMILY, _SCHEMA)
    return generate_view_keys(view, _KEY, tag_length=2).serialize(), ViewKeySet.deserialize, BackendError


def _key_file(tmp_path):
    path = tmp_path / "t.tablekey"
    write_key(path, _KEY)

    def parse(data):
        path.write_bytes(data)
        return read_key(path)

    return path.read_bytes(), parse, KeyFileError


@pytest.mark.parametrize("build", [_partition, _family, _view_keys, _key_file], ids=["MEP2", "MCF1", "MVK1", "MKY1"])
def test_binary_formats_share_one_reader(tmp_path, build):
    """Each format: a 4-byte magic, checked first; a u16 version; counted
    reads that stop at the end of the input; and no trailing bytes."""
    blob, parse, error = build(tmp_path)
    parse(blob)
    for n in range(len(blob)):
        with pytest.raises(error, match="truncated" if n >= 4 else "magic"):
            parse(blob[:n])
    with pytest.raises(error, match="trailing"):
        parse(blob + b"\x00")
    with pytest.raises(error, match="magic"):
        parse(bytes([blob[0] ^ 1]) + blob[1:])
    (version,) = struct.unpack_from(">H", blob, 4)
    with pytest.raises(error, match="version"):
        parse(blob[:4] + struct.pack(">H", version + 1) + blob[6:])
