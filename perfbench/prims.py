"""Known-answer checks and microbenchmarks of the public BlockCipher calls.

The known-answer check compares `BlockCipher` with AES from the
`cryptography` package used directly, so a faster primitive that
computes the wrong function fails the run instead of posting a number.
"""

from __future__ import annotations

import random
import statistics
import struct
import time

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from sealview.primitives import DOMAIN_SELECTION, BlockCipher, CellPosition

# FIPS-197 appendix C.1.
_FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
_FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
_FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def _aes_ecb(key: bytes, data: bytes) -> bytes:
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(data)


def _cbc_mac(key: bytes, data: bytes) -> bytes:
    buf = struct.pack(">Q", len(data)) + data
    buf += b"\x00" * (-len(buf) % 16)
    return Cipher(algorithms.AES(key), modes.CBC(b"\x00" * 16)).encryptor().update(buf)[-16:]


def _ctr(key: bytes, prefix: bytes, data: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.CTR(prefix + b"\x00\x00\x00")).encryptor()
    return enc.update(data)


def known_answer_failures(seed: int, cases: int = 64) -> list[str]:
    """Names of the BlockCipher calls that disagree with raw AES."""
    failures = []
    if BlockCipher(_FIPS_KEY).prf(_FIPS_PT) != _FIPS_CT:
        failures.append("prf (FIPS-197 vector)")
    rng = random.Random(seed)
    for _ in range(cases):
        key, block = rng.randbytes(16), rng.randbytes(16)
        data = rng.randbytes(rng.randrange(0, 80))
        pos = CellPosition(DOMAIN_SELECTION, rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 20))
        cipher = BlockCipher(key)
        if cipher.prf(block) != _aes_ecb(key, block):
            failures.append("prf")
        if cipher.prf_many(block + key) != _aes_ecb(key, block + key):
            failures.append("prf_many")
        if cipher.mac(data) != _cbc_mac(key, data):
            failures.append("mac")
        if cipher.ctr(pos, data) != _ctr(key, pos.prefix(), data):
            failures.append("ctr")
    return sorted(set(failures))


def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean time of one call, in µs."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(calls)
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


def microbenchmarks(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    keys = [rng.randbytes(16) for _ in range(2000)]
    cipher = BlockCipher(keys[0])
    block = rng.randbytes(16)
    value = rng.randbytes(8)  # an encoded int64, the common g(row) value
    pos = CellPosition(DOMAIN_SELECTION, 1, 1, 1)

    def schedules(n):
        for i in range(n):
            BlockCipher(keys[i % len(keys)])

    def prfs(n):
        for _ in range(n):
            cipher.prf(block)

    def macs(n):
        for _ in range(n):
            cipher.mac(value)

    def ctrs(n):
        for _ in range(n):
            cipher.ctr(pos, block)

    return {
        "primitives.key_schedule_us": _per_call_us(schedules, 2000),
        "primitives.prf_us": _per_call_us(prfs, 20000),
        "primitives.mac_us": _per_call_us(macs, 10000),
        "primitives.ctr_us": _per_call_us(ctrs, 10000),
    }
