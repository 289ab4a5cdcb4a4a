"""Symmetric-key primitives used by every other layer.

All keys are 16-byte strings (AES-128). The fixed-length PRF is the raw
block cipher; the variable-length PRF is CBC-MAC over the block cipher
with an 8-byte big-endian length prefix, which makes the encoding
prefix-free. Encryption is counter mode with nonces derived from cell
positions, so ciphertexts carry no stored nonce and have the same length
as the plaintext. One-time encryption uses the key itself as a pad for
short messages and zero-nonce counter mode for long ones.

Everything here is a pure function of its inputs and safe to call from
any number of workers; there is no shared mutable state. Preparing an
AES key takes 3-5 µs on a 2-vCPU x86-64 host, against 0.5-0.8 µs for
encrypting one block under a prepared key, so every keyed primitive
is a method of BlockCipher, which prepares its key once and should be
held by callers that reuse a key. The one exception is the one-time
transform, which takes raw keys, so that a message of 16 bytes or less,
padded by the key itself, costs no key schedule at all. `ote_many` is
its batch form, which transforms a whole column of cells with one XOR,
and `ote` its one-pair case.

BlockCipher prepares its key by calling the cipher binding's
`create_encryption_ctx(AES(key), ECB())` directly, which is what
`Cipher(AES(key), ECB()).encryptor()` returns in the end, so every
output byte is the same. The wrapper's own Python checks made up about
two thirds of a setup (10-16 µs through the wrapper, on the same host),
and each is already implied here:
- `Cipher` checks that the algorithm is a `CipherAlgorithm` (an ABC
  `isinstance`): it is the `AES` built on the line before;
- `Cipher` asserts that the mode is a `Mode`: it is the module's `ECB`;
- `ECB.validate_for_algorithm` rejects AES keys over 256 bits:
  BlockCipher has already required exactly 16 bytes;
- `encryptor` refuses a mode with an authentication tag that is set:
  ECB has no tag.
`AES(key)` still checks that the key is bytes-like. The binding is a
private module of `cryptography`, so `pyproject.toml` requires the
release this was verified on.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

from cryptography.hazmat.bindings._rust import openssl as _rust_openssl
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import ECB

KEY_LEN = 16
BLOCK_LEN = 16
ZERO_BLOCK = b"\x00" * BLOCK_LEN

# Domain tags keep counter blocks disjoint across the places a single key
# could conceivably be used for more than one encryption.
DOMAIN_PROJECTION_BLOB = 0x01
DOMAIN_PROJECTION_CHECK = 0x02
DOMAIN_SELECTION = 0x03
DOMAIN_CELL = 0x04

_MAX_CTR_BLOCKS = 1 << 24  # 3-byte in-message block counter
_LENGTH = struct.Struct(">Q")  # mac's length prefix
_U32 = struct.Struct(">I")  # secure_concat's count and part lengths
_FOUR_U32 = struct.Struct(">4I")  # pack_block's layout, compiled once: it runs per row
# A counter block: the 13-byte position prefix (domain, partition, row,
# slot), then the u24 block index as its top byte and low two bytes.
_COUNTER_BLOCK = struct.Struct(">BIIIBH")
_OTE_POSITION = (0, 0, 0, 0)  # the all-zero prefix, which no cell position has
# ECB here is the raw block permutation; every mode this module offers
# (PRF, CBC-MAC, CTR) is built from it explicitly. ECB has no state, so
# one instance serves every cipher and saves building one per key.
_ECB = ECB()
_create_encryption_ctx = _rust_openssl.ciphers.create_encryption_ctx


class CryptoError(Exception):
    """Malformed input to a primitive (never a wrong-key signal)."""


@dataclass(frozen=True)
class CellPosition:
    """Deterministic nonce source: where in the table an encryption sits.

    Serializes to a fixed 13-byte prefix (tag, partition, row, slot, all
    big-endian); the remaining 3 bytes of the counter block count blocks
    within one message. Partition ids start at 1, so position prefixes
    never collide with the all-zero prefix used by one-time encryption.
    """

    domain: int
    partition: int
    row: int
    slot: int = 0

    def prefix(self) -> bytes:
        return _COUNTER_BLOCK.pack(self.domain, self.partition, self.row, self.slot, 0, 0)[:13]


def counter_blocks(length: int, domain: int, partition: int, row: int, slot: int = 0) -> bytes:
    """The counter blocks that encrypt a message of `length` bytes at
    CellPosition(domain, partition, row, slot), without building one:
    block i is the position's prefix followed by i as a big-endian u24.
    It and the two batch packers below, `counter_block_packer` and
    `first_counter_blocks`, are the only encoders of counter blocks, and
    all three pack with `_COUNTER_BLOCK`, as `CellPosition.prefix` does."""
    nblocks = -(-length // BLOCK_LEN)
    if nblocks >= _MAX_CTR_BLOCKS:
        raise CryptoError("message too long for the 3-byte block counter")
    pack = _COUNTER_BLOCK.pack
    if nblocks == 1:
        return pack(domain, partition, row, slot, 0, 0)
    return b"".join([pack(domain, partition, row, slot, i >> 16, i & 0xFFFF) for i in range(nblocks)])


def counter_block_packer(messages, partition: int):
    """A function of a 1-based row that returns, back to back,
    `counter_blocks(length, domain, partition, row, slot)` for each
    (domain, length, slot) of `messages`, packed by one struct compiled
    here: for a caller that encrypts the same messages at every row."""
    fields = []
    for domain, length, slot in messages:
        nblocks = -(-length // BLOCK_LEN)
        if nblocks >= _MAX_CTR_BLOCKS:
            raise CryptoError("message too long for the 3-byte block counter")
        for i in range(nblocks):
            fields += (domain, partition, 0, slot, i >> 16, i & 0xFFFF)
    n = len(fields) // 6
    pack = struct.Struct(">" + _COUNTER_BLOCK.format[1:] * n).pack

    def at_row(row: int) -> bytes:
        row_fields = fields.copy()
        row_fields[2::6] = repeat(row, n)
        return pack(*row_fields)

    return at_row


def first_counter_blocks(domain: int, partition: int, rows, slot: int = 0) -> bytes:
    """Counter block 0 at CellPosition(domain, partition, row, slot) for
    each of `rows` (1-based), back to back: the whole keystream input of
    a message of up to 16 bytes at each."""
    pack = _COUNTER_BLOCK.pack
    return b"".join([pack(domain, partition, row, slot, 0, 0) for row in rows])


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise CryptoError("xor_bytes length mismatch")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


class BlockCipher:
    """AES-128 under one key, with the key schedule prepared once."""

    __slots__ = ("key", "_raw")

    def __init__(self, key: bytes):
        if len(key) != KEY_LEN:
            raise CryptoError(f"key must be {KEY_LEN} bytes, got {len(key)}")
        self.key = key
        self._raw = _create_encryption_ctx(AES(key), _ECB).update

    def prf(self, block: bytes) -> bytes:
        if len(block) != BLOCK_LEN:
            raise CryptoError(f"prf input must be {BLOCK_LEN} bytes, got {len(block)}")
        return self._raw(block)

    def prf_many(self, blocks: bytes) -> bytes:
        if len(blocks) % BLOCK_LEN:
            raise CryptoError("prf_many input must be a multiple of 16 bytes")
        return self._raw(blocks)

    def mac(self, data: bytes) -> bytes:
        """CBC-MAC with a length prefix: a PRF over arbitrary-length input.

        The 8-byte big-endian length prefix makes the padded encoding
        prefix-free, which is what makes CBC-MAC a PRF over inputs of any
        length. The output is 16 bytes and usable directly as a key.
        """
        buf = _LENGTH.pack(len(data)) + data
        rem = len(buf) % BLOCK_LEN
        if rem:
            buf += b"\x00" * (BLOCK_LEN - rem)
        raw = self._raw
        state = ZERO_BLOCK
        for off in range(0, len(buf), BLOCK_LEN):
            state = raw(xor_bytes(state, buf[off : off + BLOCK_LEN]))
        return state

    def mac_many(self, messages: list[bytes] | tuple[bytes, ...]) -> list[bytes]:
        """`mac` of each message, in input order, computed column-wise.

        Messages of the same padded length are chained side by side: each
        CBC step XORs the group's next blocks into its states as one
        integer and encrypts them in one ECB call, so a batch costs one
        AES call per block step instead of one per block.
        """
        groups: dict[int, list[int]] = {}
        for i, data in enumerate(messages):
            groups.setdefault(-(-(len(data) + 8) // BLOCK_LEN), []).append(i)
        out: list[bytes] = [b""] * len(messages)
        raw = self._raw
        for nblocks, members in groups.items():
            width = nblocks * BLOCK_LEN
            bufs = [_LENGTH.pack(len(messages[i])) + messages[i] for i in members]
            bufs = [buf + b"\x00" * (width - len(buf)) for buf in bufs]
            state = bytes(len(members) * BLOCK_LEN)
            for off in range(0, width, BLOCK_LEN):
                state = raw(xor_bytes(state, b"".join(buf[off : off + BLOCK_LEN] for buf in bufs)))
            for k, i in enumerate(members):
                out[i] = state[k * BLOCK_LEN : (k + 1) * BLOCK_LEN]
        return out

    def keystream(self, length: int, domain: int, partition: int, row: int, slot: int = 0) -> bytes:
        """The first `length` keystream bytes at a cell position."""
        return self._raw(counter_blocks(length, domain, partition, row, slot))[:length]

    def ctr(self, pos: CellPosition, data: bytes) -> bytes:
        """Counter-mode transform (its own inverse) at a cell position.

        A (key, position) pair must never transform two different
        messages. No expansion: the output is as long as the input.
        """
        return xor_bytes(data, self.keystream(len(data), pos.domain, pos.partition, pos.row, pos.slot))


def ote_many(keys: Sequence[bytes], msgs: Sequence[bytes]) -> bytes:
    """`ote` of each (key, message) pair, back to back, from one XOR over
    the whole batch. A message of up to 16 bytes is padded with its key's
    prefix; a longer one with the key's zero-prefix keystream, which
    costs one key setup."""
    if len(keys) != len(msgs):
        raise CryptoError(f"ote_many got {len(keys)} keys for {len(msgs)} messages")
    bad = set(map(len, keys)) - {KEY_LEN}
    if bad:
        raise CryptoError(f"key must be {KEY_LEN} bytes, got {min(bad)}")
    pads = [
        key[:n] if n <= KEY_LEN else BlockCipher(key).keystream(n, *_OTE_POSITION)
        for key, n in zip(keys, map(len, msgs))
    ]
    return xor_bytes(b"".join(msgs), b"".join(pads))


def ote_packed(keys: bytes, msgs: bytes) -> bytes:
    """`ote_many` of equal-length messages of up to 16 bytes, packed back
    to back in `msgs`, under the 16-byte keys packed back to back in
    `keys`: one XOR with each key's prefix of the messages' length, read
    out of `keys` with one strided slice per byte of it."""
    n = len(keys) // KEY_LEN
    width = len(msgs) // n if n else 0
    if len(keys) % KEY_LEN or width * n != len(msgs) or width > KEY_LEN:
        raise CryptoError(f"ote_packed got {len(msgs)} message bytes for {len(keys)} key bytes")
    pad = bytearray(len(msgs))
    for b in range(width):
        pad[b::width] = keys[b::KEY_LEN]
    return xor_bytes(msgs, pad)


def ote(key: bytes, msg: bytes) -> bytes:
    """One-time transform (its own inverse); a key must transform one message, ever.

    A message of up to 16 bytes is XORed with the key itself, so it costs
    no key schedule; a longer one is counter mode under the key with the
    all-zero prefix, which no cell position uses. This is the one-pair
    case of `ote_many`.
    """
    return ote_many((key,), (msg,))


def pack_block(*fields: int) -> bytes:
    """Pack small non-negative integers as big-endian u32s into one block.

    This is how fixed-width PRF inputs (partition and row ids, column and
    predicate indices, counters) are laid out; u32 per field is ample at
    the scale a single deployment handles.
    """
    if len(fields) > 4:
        raise CryptoError("pack_block holds at most four u32 fields")
    return _FOUR_U32.pack(*fields, *(0,) * (4 - len(fields)))


def pack_blocks(*fields: Sequence[int]) -> bytes:
    """`pack_block(*row)` for each row of `fields`, back to back, packed
    in one call: `fields` holds up to four sequences of equal length,
    the first of which gives every block's first field, and so on."""
    if len(fields) > 4:
        raise CryptoError("pack_block holds at most four u32 fields")
    n = len(fields[0])
    flat = [0] * (4 * n)
    for i, values in enumerate(fields):
        flat[i::4] = values
    return struct.pack(f">{4 * n}I", *flat)


def secure_concat(parts: list[bytes] | tuple[bytes, ...]) -> bytes:
    """Injective, self-delimiting concatenation.

    Encodes the part count and each part's length as big-endian u32s, so
    distinct lists never collide. Used both as the PRF-input combiner and
    as the value combiner when conjunctions are merged.
    """
    pack = _U32.pack
    out = [pack(len(parts))]
    for part in parts:
        out.append(pack(len(part)))
        out.append(part)
    return b"".join(out)


def split_concat(data: bytes) -> list[bytes]:
    """Decode secure_concat output; raises CryptoError on malformed input."""
    end = len(data)
    if end < 4:
        raise CryptoError("truncated concatenation header")
    unpack_from = _U32.unpack_from
    (count,) = unpack_from(data, 0)
    off = 4
    parts = []
    for _ in range(count):
        if off + 4 > end:
            raise CryptoError("truncated part length")
        (plen,) = unpack_from(data, off)
        off += 4
        if off + plen > end:
            raise CryptoError("truncated part body")
        parts.append(data[off : off + plen])
        off += plen
    if off != end:
        raise CryptoError("trailing bytes after concatenation")
    return parts


def hash_string(data: bytes) -> int:
    """SHA-256 of the input, read as a big-endian 256-bit integer."""
    return int.from_bytes(hashlib.sha256(data).digest(), "big")
