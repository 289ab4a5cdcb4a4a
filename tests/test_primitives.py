"""Known-answer vectors, round trips, and statistical smoke tests."""

import random
import struct

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from sealview.primitives import (
    BlockCipher,
    CellPosition,
    CryptoError,
    DOMAIN_CELL,
    DOMAIN_SELECTION,
    ZERO_BLOCK,
    counter_block_packer,
    counter_blocks,
    first_counter_blocks,
    hash_string,
    ote,
    ote_many,
    pack_block,
    pack_blocks,
    secure_concat,
    split_concat,
    xor_bytes,
)

# FIPS-197 appendix C.1 vector.
AES_KAT_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
AES_KAT_IN = bytes.fromhex("00112233445566778899aabbccddeeff")
AES_KAT_OUT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

SHA256_EMPTY = 0xE3B0C44298FC1C149AFBF4C8996FB92427AE41E4649B934CA495991B7852B855


def test_prf_block_known_answer():
    assert BlockCipher(AES_KAT_KEY).prf(AES_KAT_IN) == AES_KAT_OUT


def test_prf_block_deterministic():
    out1 = BlockCipher(AES_KAT_KEY).prf(AES_KAT_IN)
    out2 = BlockCipher(AES_KAT_KEY).prf(AES_KAT_IN)
    assert out1 == out2


def test_prf_block_key_sensitivity():
    rng = random.Random(1)
    for _ in range(100):
        key = rng.randbytes(16)
        bit = 1 << rng.randrange(128)
        key2 = (int.from_bytes(key, "big") ^ bit).to_bytes(16, "big")
        block = rng.randbytes(16)
        assert BlockCipher(key).prf(block) != BlockCipher(key2).prf(block)


def test_prf_block_rejects_bad_length():
    with pytest.raises(CryptoError):
        BlockCipher(AES_KAT_KEY).prf(b"short")
    with pytest.raises(CryptoError):
        BlockCipher(b"short")
    with pytest.raises(CryptoError):
        ote(b"short", b"x")


def test_prf_blocks_matches_single_calls():
    rng = random.Random(2)
    key = rng.randbytes(16)
    blocks = [rng.randbytes(16) for _ in range(20)]
    batched = BlockCipher(key).prf_many(b"".join(blocks))
    for i, block in enumerate(blocks):
        assert batched[i * 16 : (i + 1) * 16] == BlockCipher(key).prf(block)


def test_prf_var_length_prefix_separates_inputs():
    key = AES_KAT_KEY
    cipher = BlockCipher(key)
    assert cipher.mac(b"") != cipher.mac(b"\x00")
    assert cipher.mac(b"ab") != cipher.mac(b"a")


def test_prf_var_deterministic_and_fixed_width():
    key = AES_KAT_KEY
    for msg in [b"", b"x", b"hello world", b"A" * 100]:
        out = BlockCipher(key).mac(msg)
        assert out == BlockCipher(key).mac(msg)
        assert len(out) == 16


def test_prf_var_differs_from_prf_block_on_block_input():
    # The variable-length PRF includes a length prefix; it is a separate
    # function, not an extension of the fixed-length one.
    block = AES_KAT_IN
    assert BlockCipher(AES_KAT_KEY).mac(block) != BlockCipher(AES_KAT_KEY).prf(block)


def test_enc_dec_round_trip_random():
    rng = random.Random(3)
    for _ in range(1000):
        key = rng.randbytes(16)
        msg = rng.randbytes(rng.randrange(0, 64))
        pos = CellPosition(DOMAIN_CELL, rng.randrange(1, 100), rng.randrange(100), rng.randrange(8))
        cipher = BlockCipher(key)
        assert cipher.ctr(pos, cipher.ctr(pos, msg)) == msg


def test_enc_no_expansion():
    key = AES_KAT_KEY
    pos = CellPosition(DOMAIN_CELL, 1, 0, 1)
    for n in (1, 16, 17, 1000):
        assert len(BlockCipher(key).ctr(pos, b"\x00" * n)) == n


def test_enc_key_privacy_sample():
    rng = random.Random(4)
    pos = CellPosition(DOMAIN_SELECTION, 1, 0, 1)
    for _ in range(100):
        k1, k2 = rng.randbytes(16), rng.randbytes(16)
        assert BlockCipher(k1).ctr(pos, ZERO_BLOCK) != BlockCipher(k2).ctr(pos, ZERO_BLOCK)


def test_enc_position_changes_ciphertext():
    cipher = BlockCipher(AES_KAT_KEY)
    a = cipher.ctr(CellPosition(DOMAIN_CELL, 1, 5, 2), ZERO_BLOCK)
    b = cipher.ctr(CellPosition(DOMAIN_CELL, 1, 5, 3), ZERO_BLOCK)
    c = cipher.ctr(CellPosition(DOMAIN_SELECTION, 1, 5, 2), ZERO_BLOCK)
    assert len({a, b, c}) == 3


def test_ote_short_is_pad():
    key = AES_KAT_KEY
    msg = b"12345678"
    assert xor_bytes(ote(key, msg), key[:8]) == msg
    assert ote(key, ZERO_BLOCK) == key


def test_ote_round_trip_long():
    rng = random.Random(5)
    for n in (17, 300, 5000):
        key = rng.randbytes(16)
        msg = rng.randbytes(n)
        ct = ote(key, msg)
        assert len(ct) == n
        assert ote(key, ct) == msg


# Independent recomputations from raw AES, at lengths around one block.
KAT_LENGTHS = (0, 1, 15, 16, 17, 100)


def _aes_ecb(key: bytes, data: bytes) -> bytes:
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(data)


def _counter_keystream(key: bytes, prefix: bytes, length: int) -> bytes:
    """AES of the counter blocks prefix || u24 index, truncated."""
    blocks = b"".join(prefix + i.to_bytes(3, "big") for i in range(-(-length // 16)))
    return _aes_ecb(key, blocks)[:length]


def test_prf_many_matches_the_public_cipher_api_on_random_keys():
    rng = random.Random(400)
    for _ in range(200):
        key = rng.randbytes(16)
        cipher = BlockCipher(key)
        for nblocks in (0, 1, 17):
            blocks = rng.randbytes(16 * nblocks)
            assert cipher.prf_many(blocks) == _aes_ecb(key, blocks)


@pytest.mark.parametrize("length", [0, 15, 17, 24, 32])
def test_block_cipher_rejects_every_key_length_but_sixteen(length):
    # AES itself takes 24- and 32-byte keys, so only BlockCipher's own
    # check stops those.
    with pytest.raises(CryptoError):
        BlockCipher(bytes(length))


def test_block_cipher_rejects_a_str_key():
    with pytest.raises(TypeError, match="key must be bytes-like"):
        BlockCipher("k" * 16)


@pytest.mark.parametrize("length", KAT_LENGTHS)
def test_mac_matches_raw_aes_cbc_mac(length):
    rng = random.Random(length)
    key, msg = rng.randbytes(16), rng.randbytes(length)
    buf = struct.pack(">Q", length) + msg
    buf += b"\x00" * (-len(buf) % 16)
    state = bytes(16)
    for off in range(0, len(buf), 16):
        state = _aes_ecb(key, bytes(a ^ b for a, b in zip(state, buf[off : off + 16])))
    assert BlockCipher(key).mac(msg) == state


def test_mac_many_matches_mac_in_input_order():
    # Mixed lengths put messages of 1, 2, 3 and 7 blocks side by side in one
    # batch, and interleave them, so a reordered result shows.
    rng = random.Random(300)
    key = rng.randbytes(16)
    cipher = BlockCipher(key)
    messages = [rng.randbytes(n) for n in (0, 1, 7, 8, 9, 23, 24, 25, 100, 8, 0, 24)]
    assert cipher.mac_many(messages) == [cipher.mac(m) for m in messages]
    assert cipher.mac_many([]) == []


@pytest.mark.parametrize("length", KAT_LENGTHS)
def test_ctr_matches_raw_aes_counter_blocks(length):
    rng = random.Random(100 + length)
    key, msg = rng.randbytes(16), rng.randbytes(length)
    pos = CellPosition(DOMAIN_SELECTION, 3, 7, 2)
    stream = _counter_keystream(key, pos.prefix(), length)
    assert BlockCipher(key).ctr(pos, msg) == bytes(a ^ b for a, b in zip(msg, stream))


def test_first_counter_block_is_block_zero_at_the_position():
    for fields in [(DOMAIN_SELECTION, 3, 7, 2), (DOMAIN_CELL, 1, 0, 0), (0xFF, 2**32 - 1, 2**32 - 1, 2**32 - 1)]:
        assert counter_blocks(16, *fields) == CellPosition(*fields).prefix() + bytes(3)
    key, msg = AES_KAT_KEY, bytes(range(16))
    stream = BlockCipher(key).prf(counter_blocks(16, DOMAIN_SELECTION, 3, 7, 2))
    assert BlockCipher(key).ctr(CellPosition(DOMAIN_SELECTION, 3, 7, 2), msg) == xor_bytes(msg, stream)


@pytest.mark.parametrize("length", KAT_LENGTHS)
def test_ote_matches_key_pad_or_zero_prefix_ctr(length):
    rng = random.Random(200 + length)
    key, msg = rng.randbytes(16), rng.randbytes(length)
    pad = key if length <= 16 else _counter_keystream(key, bytes(13), length)
    assert ote(key, msg) == bytes(a ^ b for a, b in zip(msg, pad))


def test_ote_many_matches_ote_and_raw_aes_on_mixed_lengths():
    # Pads of both kinds side by side, and each length twice, so a pad
    # taken from the wrong key or a misplaced cell shows.
    rng = random.Random(500)
    lengths = [0, 1, 8, 15, 16, 17, 100] * 2
    rng.shuffle(lengths)
    keys = [rng.randbytes(16) for _ in lengths]
    msgs = [rng.randbytes(n) for n in lengths]
    got = ote_many(keys, msgs)
    assert got == b"".join(map(ote, keys, msgs))
    pads = [key if len(m) <= 16 else _counter_keystream(key, bytes(13), len(m)) for key, m in zip(keys, msgs)]
    assert got == b"".join(bytes(a ^ b for a, b in zip(msg, pad)) for msg, pad in zip(msgs, pads))
    assert ote_many([], []) == b""


@pytest.mark.parametrize("key_len", [15, 17])
@pytest.mark.parametrize("position", [0, 3, 6])
def test_ote_many_rejects_a_bad_key_anywhere_in_the_batch(key_len, position):
    # Short messages would use only a prefix of the bad key, so only the
    # key check stops it.
    keys = [bytes(16)] * 7
    keys[position] = bytes(key_len)
    for msg_len in (0, 1, 20):
        with pytest.raises(CryptoError):
            ote_many(keys, [bytes(msg_len)] * 7)


def test_ote_many_rejects_unequal_key_and_message_counts():
    for n_keys, n_msgs in ((3, 2), (2, 3), (0, 1), (1, 0)):
        with pytest.raises(CryptoError):
            ote_many([bytes(16)] * n_keys, [b"m"] * n_msgs)


def test_secure_concat_injective_basics():
    assert secure_concat([b"ab"]) != secure_concat([b"a", b"b"])
    assert secure_concat([]) == b"\x00\x00\x00\x00"


def test_secure_concat_round_trip_fuzz():
    rng = random.Random(6)
    for _ in range(1000):
        parts = [rng.randbytes(rng.randrange(0, 20)) for _ in range(rng.randrange(0, 6))]
        assert split_concat(secure_concat(parts)) == parts


def test_secure_concat_no_collisions_across_splits():
    rng = random.Random(7)
    seen = {}
    for _ in range(2000):
        parts = tuple(rng.randbytes(rng.randrange(0, 6)) for _ in range(rng.randrange(0, 4)))
        blob = secure_concat(list(parts))
        if blob in seen:
            assert seen[blob] == parts
        seen[blob] = parts


def test_split_concat_rejects_malformed():
    for bad in (b"", b"\x00\x00\x00\x02\x00\x00\x00\x01a", secure_concat([b"x"]) + b"!"):
        with pytest.raises(CryptoError):
            split_concat(bad)


def test_hash_string_known_answer():
    assert hash_string(b"") == SHA256_EMPTY
    assert hash_string(b"abc") == hash_string(b"abc")
    assert hash_string(b"abc") != hash_string(b"abd")


def test_pack_block_layout():
    assert pack_block(1, 2) == b"\x00\x00\x00\x01\x00\x00\x00\x02" + b"\x00" * 8
    assert pack_block(0) == ZERO_BLOCK
    assert len(pack_block(7, 8, 9)) == 16


def test_batch_packers_match_the_single_block_encoders():
    rows = [1, 7, 70_000, 1 << 31]
    assert first_counter_blocks(DOMAIN_SELECTION, 9, rows, 3) == b"".join(
        counter_blocks(16, DOMAIN_SELECTION, 9, r, 3) for r in rows
    )
    assert pack_blocks(range(5, 40)) == b"".join(map(pack_block, range(5, 40)))
    messages = ((DOMAIN_CELL, 64, 0), (DOMAIN_SELECTION, 16, 2), (DOMAIN_CELL, 17, 5))
    at_row = counter_block_packer(messages, 4)
    for r in rows:
        assert at_row(r) == b"".join(counter_blocks(n, d, 4, r, s) for d, n, s in messages)
    with pytest.raises(CryptoError):
        counter_block_packer(((DOMAIN_CELL, 16 << 24, 0),), 1)


def test_prf_output_byte_uniformity():
    # Chi-square smoke test on byte frequencies over 10^5 PRF outputs.
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(8)
    counts = [0] * 256
    n_blocks = 100_000
    per_key = 1000
    for _ in range(n_blocks // per_key):
        key = rng.randbytes(16)
        blocks = b"".join(pack_block(9, i) for i in range(per_key))
        for byte in BlockCipher(key).prf_many(blocks):
            counts[byte] += 1
    total = sum(counts)
    expected = total / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    p_value = scipy_stats.chi2.sf(chi2, 255)
    assert p_value > 0.001
