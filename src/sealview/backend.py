"""Per-partition cryptographic protocol.

Four operations: encrypt a plaintext partition cell by cell; instantiate
a view family by appending projection, selection, and tagging columns;
mint view keys from a family key; and reveal a view by scanning tags and
decrypting matching rows.

Key derivation chains (all 16-byte keys):

    row key        = PRF(table key, partition || row)
    cell key       = PRF(row key, column)
    predicate key  = PRF(family key, predicate index)
    selection key  = PRF_var(predicate key, g(row))
    view key       = PRF_var(predicate key, bound value)
    tagging key    = PRF(selection key, partition)
    tag            = PRF(tagging key, count)[:tag_length]

Indices are 1-based inside PRF inputs; partition ids never equal 0, so
the tagging key input never collides with the selection-column
encryption key input PRF(selection key, 0).
"""

from __future__ import annotations

import secrets
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from .encoding import decode_cell, encode_cell
from .model import (
    CellColumn,
    EncryptedPartition,
    FamilyColumns,
    FixedWidthColumn,
    PlainPartition,
    Schema,
    SchemaError,
)
from .planner.canonical import CanonicalFamily, CanonicalView
from .primitives import (
    BlockCipher,
    CellPosition,
    DOMAIN_PROJECTION_BLOB,
    DOMAIN_PROJECTION_CHECK,
    DOMAIN_SELECTION,
    KEY_LEN,
    ZERO_BLOCK,
    ote_dec,
    ote_enc,
    pack_block,
    secure_concat,
    split_concat,
)

DEFAULT_TAG_LENGTH = 4
DEFAULT_CACHE_CAPACITY = 512


class BackendError(Exception):
    """Structural problem with a partition or its parameters."""


def random_key() -> bytes:
    return secrets.token_bytes(KEY_LEN)


@dataclass
class FamilyParams:
    tag_length: int = DEFAULT_TAG_LENGTH
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    rng_seed: int | None = None  # deterministic projection keys when set

    def __post_init__(self):
        if not 1 <= self.tag_length <= 16:
            raise BackendError("tag_length must be between 1 and 16 bytes")
        if self.cache_capacity < 0:
            raise BackendError("cache capacity must be non-negative")


class SelectionCache:
    """Bounded LRU from selection key to prepared key material.

    A hit returns the selection-column encryption key and the partition's
    tagging key with their AES schedules already expanded; recomputing
    them costs three key schedules per row and predicate, which dominates
    instantiation time when a column repeats values.
    """

    def __init__(self, capacity: int, partition_id: int):
        self.capacity = capacity
        self._partition_block = pack_block(partition_id)
        self._entries: OrderedDict[bytes, tuple[BlockCipher, BlockCipher]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, selection_key: bytes) -> tuple[BlockCipher, BlockCipher]:
        entry = self._entries.get(selection_key) if self.capacity else None
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(selection_key)
            return entry
        self.misses += 1
        derived = BlockCipher(selection_key).prf_many(ZERO_BLOCK + self._partition_block)
        entry = (BlockCipher(derived[:16]), BlockCipher(derived[16:]))
        if self.capacity:
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            self._entries[selection_key] = entry
        return entry


@dataclass
class AddFamilyStats:
    rows: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    crypto_seconds: float = 0.0
    tag_counts: dict = field(default_factory=dict)  # selection key -> occurrences


@dataclass
class RevealStats:
    """Counters of one or more reveals.

    `tag_hits` counts occurrences of a key's next expected tag at an
    aligned offset in that key's own predicate slot; each one costs one
    decrypt attempt, and attempts minus successes are the truncation
    false positives. With tags disabled, every key-row pair is an attempt.
    """

    rows_scanned: int = 0
    tag_hits: int = 0
    decrypt_attempts: int = 0
    decrypt_successes: int = 0
    rows_emitted: int = 0
    crypto_seconds: float = 0.0
    final_counts: dict = field(default_factory=dict)  # (predicate, key) -> count


@dataclass
class ViewKeySet:
    """Per-predicate view keys, tied to one family instantiation."""

    family_id: str
    tag_length: int
    keys: tuple[tuple[bytes, ...], ...]

    def __post_init__(self):
        if not 1 <= self.tag_length <= 16:
            raise BackendError(f"view key tag length {self.tag_length} is not 1 to 16 bytes")

    def total_keys(self) -> int:
        return sum(len(k) for k in self.keys)

    def serialize(self) -> bytes:
        out = [b"MVK1", struct.pack(">H", 1)]
        out.append(bytes.fromhex(self.family_id))
        out.append(struct.pack(">BH", self.tag_length, len(self.keys)))
        for pred_keys in self.keys:
            out.append(struct.pack(">I", len(pred_keys)))
            out.extend(pred_keys)
        return b"".join(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "ViewKeySet":
        """Parse a blob; every count is checked against the bytes that
        remain before it is used, and any malformation is a BackendError."""
        if data[:4] != b"MVK1":
            raise BackendError("bad view key blob magic")
        if len(data) < 17:
            raise BackendError("truncated view key blob")
        (version,) = struct.unpack_from(">H", data, 4)
        if version != 1:
            raise BackendError(f"unsupported view key blob version {version}")
        family_id = data[6:14].hex()
        tag_length, n_pred = struct.unpack_from(">BH", data, 14)
        off = 17
        preds = []
        for _ in range(n_pred):
            if off + 4 > len(data):
                raise BackendError("truncated view key blob")
            (count,) = struct.unpack_from(">I", data, off)
            off += 4
            if off + 16 * count > len(data):
                raise BackendError("truncated view key blob")
            keys = tuple(data[off + i * 16 : off + (i + 1) * 16] for i in range(count))
            off += 16 * count
            preds.append(keys)
        if off != len(data):
            raise BackendError("trailing bytes in view key blob")
        return cls(family_id, tag_length, tuple(preds))


def _row_keys(table_cipher: BlockCipher, partition_id: int, n_rows: int) -> list[bytes]:
    packed = b"".join(pack_block(partition_id, r) for r in range(1, n_rows + 1))
    flat = table_cipher.prf_many(packed)
    return [flat[i * 16 : (i + 1) * 16] for i in range(n_rows)]


def _cell_keys(row_cipher: BlockCipher, columns: list[int]) -> dict[int, bytes]:
    """Cell keys for 1-based column indices, derived in one batch."""
    flat = row_cipher.prf_many(b"".join(pack_block(c) for c in columns))
    return {c: flat[i * 16 : (i + 1) * 16] for i, c in enumerate(columns)}


def encrypt_partition(
    plain: PlainPartition, schema: Schema, table_key: bytes
) -> EncryptedPartition:
    """Encrypt every cell under its own key; no family columns yet."""
    plain.validate(schema)
    n_col = len(schema)
    columns = list(range(1, n_col + 1))
    types = [c.type for c in schema.columns]
    row_keys = _row_keys(BlockCipher(table_key), plain.partition_id, len(plain.rows))
    cells: list[list[bytes]] = [[] for _ in range(n_col)]
    for row, row_key in zip(plain.rows, row_keys):
        keys = _cell_keys(BlockCipher(row_key), columns)
        for c, value in enumerate(row):
            cells[c].append(ote_enc(keys[c + 1], encode_cell(value, types[c])))
    return EncryptedPartition(plain.partition_id, [CellColumn.from_cells(col) for col in cells])


class _MissingCell:
    def __repr__(self):
        return "<undecrypted cell>"


_MISSING = _MissingCell()


def add_family(
    enc_part: EncryptedPartition,
    schema: Schema,
    table_key: bytes,
    family: CanonicalFamily,
    family_key: bytes,
    params: FamilyParams | None = None,
    stats: AddFamilyStats | None = None,
) -> EncryptedPartition:
    """Append this family's projection/selection/tagging columns.

    Only cells referenced by the WHERE predicates are decrypted; the
    projection layer works with cell keys, never plaintext.
    """
    params = params or FamilyParams()
    family_id = family.family_id
    if family_id in enc_part.families:
        raise BackendError(f"family {family_id} already instantiated in partition")
    n_col = len(schema)
    if any(c >= n_col for c in family.where_columns() | set(family.projected)):
        raise SchemaError("family references a column outside the schema")

    p = enc_part.partition_id
    n_proj = family.n_proj
    general_case = not (n_proj == 1 or n_proj == n_col)
    where_cols = sorted(family.where_columns())
    # Columns whose cell keys are needed: WHERE evaluation always, plus the
    # projected cell keys when they go into the encrypted projection blob.
    key_cols = set(where_cols)
    if general_case:
        key_cols.update(family.projected)
    elif n_proj == 1:
        key_cols.add(family.projected[0])
    key_cols_1b = sorted(c + 1 for c in key_cols)
    types = [c.type for c in schema.columns]

    family_cipher = BlockCipher(family_key)
    pred_ciphers = [
        BlockCipher(family_cipher.prf(pack_block(j))) for j in range(1, family.n_pred + 1)
    ]
    cache = SelectionCache(params.cache_capacity, p)
    counts: dict[bytes, int] = {}
    rng = None
    if params.rng_seed is not None:
        import random as _random

        rng = _random.Random(params.rng_seed * 1_000_003 + p)

    row_keys = _row_keys(BlockCipher(table_key), p, enc_part.n_rows)
    where_cells = {c: list(enc_part.columns[c]) for c in where_cols}
    tag_len = params.tag_length
    projection: list[bytes] = []
    selection: list[bytes] = []
    tagging: list[bytes] = []
    started = time.perf_counter()

    for r0, row_key in enumerate(row_keys):
        r = r0 + 1
        row_cipher = BlockCipher(row_key)
        keys = _cell_keys(row_cipher, key_cols_1b)
        values: list = [_MISSING] * n_col
        for c in where_cols:
            values[c] = decode_cell(ote_dec(keys[c + 1], where_cells[c][r0]), types[c])

        if n_proj == 1:
            pk = keys[family.projected[0] + 1]
            projection.append(BlockCipher(pk).prf(ZERO_BLOCK))
        elif n_proj == n_col:
            pk = row_key
            projection.append(row_cipher.prf(ZERO_BLOCK))
        else:
            pk = rng.randbytes(16) if rng is not None else secrets.token_bytes(16)
            pk_cipher = BlockCipher(pk)
            blob = secure_concat([keys[c + 1] for c in family.projected])
            projection.append(
                secure_concat(
                    [
                        pk_cipher.ctr(CellPosition(DOMAIN_PROJECTION_BLOB, p, r), blob),
                        pk_cipher.ctr(CellPosition(DOMAIN_PROJECTION_CHECK, p, r), ZERO_BLOCK),
                    ]
                )
            )

        sel_entries = []
        tag_entries = []
        for j0, pred in enumerate(family.predicates):
            g_value = pred.evaluate(values, schema)
            s = pred_ciphers[j0].mac(g_value)
            enc_cipher, tau_cipher = cache.lookup(s)
            sel_entries.append(enc_cipher.ctr(CellPosition(DOMAIN_SELECTION, p, r, j0 + 1), pk))
            count = counts.get(s, 0)
            tag_entries.append(tau_cipher.prf(pack_block(count))[:tag_len])
            counts[s] = count + 1
        selection.append(b"".join(sel_entries))
        tagging.append(b"".join(tag_entries))

    enc_part.families[family_id] = FamilyColumns(
        *map(FixedWidthColumn.from_entries, (projection, selection, tagging))
    )
    if stats is not None:
        stats.rows += enc_part.n_rows
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses
        stats.crypto_seconds += time.perf_counter() - started
        stats.tag_counts = counts
    return enc_part


def generate_view_keys(
    view: CanonicalView, family_key: bytes, tag_length: int = DEFAULT_TAG_LENGTH
) -> ViewKeySet:
    """Derive one key per bound value per predicate."""
    family_cipher = BlockCipher(family_key)
    preds = []
    for j0, values in enumerate(view.values):
        pred_cipher = BlockCipher(family_cipher.prf(pack_block(j0 + 1)))
        seen = set()
        keys = []
        for value in values:
            k = pred_cipher.mac(value)
            if k not in seen:
                seen.add(k)
                keys.append(k)
        preds.append(tuple(keys))
    return ViewKeySet(view.family.family_id, tag_length, tuple(preds))


class _KeyEntry:
    __slots__ = ("key", "predicate", "dec_key", "_dec_cipher", "tau_cipher", "count", "net")

    def __init__(self, key: bytes, predicate: int, partition_id: int, tag_length: int):
        self.key = key
        self.predicate = predicate  # 1-based
        derived = BlockCipher(key).prf_many(ZERO_BLOCK + pack_block(partition_id))
        self.dec_key = derived[:16]
        self._dec_cipher = None  # built on first tag hit; most keys never hit
        self.tau_cipher = BlockCipher(derived[16:])
        self.count = 0
        self.net = self.tau_cipher.prf(ZERO_BLOCK)[:tag_length]

    @property
    def dec_cipher(self) -> BlockCipher:
        if self._dec_cipher is None:
            self._dec_cipher = BlockCipher(self.dec_key)
        return self._dec_cipher

    def advance(self, tag_length: int) -> None:
        self.count += 1
        self.net = self.tau_cipher.prf(pack_block(self.count))[:tag_length]


def _family_columns(enc_part: EncryptedPartition, family_id: str) -> FamilyColumns:
    cols = enc_part.families.get(family_id)
    if cols is None:
        raise BackendError(f"family {family_id} not instantiated in partition")
    if cols.row_count() != enc_part.n_rows:
        raise BackendError("family columns out of step with partition rows")
    return cols


class _RowOpener:
    """Confirms view keys against rows, then decrypts the confirmed rows.

    Confirmation decrypts the key's selection slot and checks the
    projection entry; that zero check is what turns a truncated-tag false
    positive into a clean failure. It yields the row's projection key,
    the same for every predicate, from which the row is decoded once.
    """

    def __init__(self, enc_part: EncryptedPartition, cols: FamilyColumns,
                 schema: Schema, family: CanonicalFamily):
        if enc_part.n_rows and cols.selection.width < 16 * family.n_pred:
            raise BackendError("selection column too short")
        self.enc_part = enc_part
        self.cols = cols
        self.schema = schema
        self.family = family
        n_proj = family.n_proj
        self.general_case = not (n_proj == 1 or n_proj == len(schema))

    def confirm(self, r0: int, dec_cipher: BlockCipher, predicate: int) -> BlockCipher | None:
        """The row's projection-key cipher, or None on a wrong key."""
        p = self.enc_part.partition_id
        sel = self.cols.selection
        off = r0 * sel.width + 16 * (predicate - 1)
        pk = dec_cipher.ctr(
            CellPosition(DOMAIN_SELECTION, p, r0 + 1, predicate), sel.data[off : off + 16]
        )
        pk_cipher = BlockCipher(pk)
        proj_entry = self.cols.projection[r0]
        if not self.general_case:
            return pk_cipher if pk_cipher.prf(ZERO_BLOCK) == proj_entry else None
        parts = split_concat(proj_entry)
        if len(parts) != 2:
            raise BackendError("malformed projection entry")
        check = pk_cipher.ctr(CellPosition(DOMAIN_PROJECTION_CHECK, p, r0 + 1), parts[1])
        return pk_cipher if check == ZERO_BLOCK else None

    def decode(self, r0: int, pk_cipher: BlockCipher) -> tuple:
        """The projected plaintext row, under a confirmed projection key."""
        family = self.family
        projected = family.projected
        if family.n_proj == 1:
            cell_keys = {projected[0]: pk_cipher.key}
        elif not self.general_case:
            flat = pk_cipher.prf_many(b"".join(pack_block(c + 1) for c in projected))
            cell_keys = {c: flat[i * 16 : (i + 1) * 16] for i, c in enumerate(projected)}
        else:
            blob_ct = split_concat(self.cols.projection[r0])[0]
            p = self.enc_part.partition_id
            blob = pk_cipher.ctr(CellPosition(DOMAIN_PROJECTION_BLOB, p, r0 + 1), blob_ct)
            key_list = split_concat(blob)
            if len(key_list) != family.n_proj:
                raise BackendError("projection blob key count mismatch")
            cell_keys = dict(zip(projected, key_list))
        columns = self.enc_part.columns
        types = self.schema.columns
        return tuple(
            decode_cell(ote_dec(cell_keys[c], columns[c][r0]), types[c].type) for c in projected
        )


def reveal_partition(
    enc_part: EncryptedPartition,
    schema: Schema,
    family: CanonicalFamily,
    view_keys: ViewKeySet,
    use_tags: bool = True,
    stats: RevealStats | None = None,
) -> list[tuple]:
    """Decrypt the rows this view key set can open, in row order.

    With tags enabled, each key searches its own predicate's slot of the
    contiguous tagging column for its next expected tag; rows no key's
    tag hits cost no cryptographic work. A hit is confirmed by decryption
    before the key's counter advances, so truncation false positives
    change nothing, and hits outside the key's own slot can only be false
    positives (a true match always shows in the key's own slot). Rows
    matched by any key are decoded once each, in row order, so a row
    matching several predicates is emitted once while every matching key
    still advances. With tags disabled, every key is tried against every
    row: the reference the tagged path must agree with.
    """
    if view_keys.family_id != family.family_id:
        raise BackendError("view keys were minted for a different family")
    cols = _family_columns(enc_part, family.family_id)
    if len(view_keys.keys) != family.n_pred:
        raise BackendError("view key set predicate count mismatch")
    p = enc_part.partition_id
    n_rows = enc_part.n_rows
    tag_len = view_keys.tag_length
    opener = _RowOpener(enc_part, cols, schema, family)
    track = stats is not None
    entries = [
        _KeyEntry(key, j0 + 1, p, tag_len)
        for j0, pred_keys in enumerate(view_keys.keys)
        for key in pred_keys
    ]
    out: list[tuple] = []

    if not use_tags:
        started = time.perf_counter()
        for r0 in range(n_rows):
            for entry in entries:
                if track:
                    stats.decrypt_attempts += 1
                pk_cipher = opener.confirm(r0, entry.dec_cipher, entry.predicate)
                if pk_cipher is not None:
                    out.append(opener.decode(r0, pk_cipher))
                    if track:
                        stats.decrypt_successes += 1
                    break
        if track:
            stats.rows_scanned += n_rows
            stats.rows_emitted += len(out)
            stats.crypto_seconds += time.perf_counter() - started
        return out

    stride = family.n_pred * tag_len
    if n_rows and cols.tagging.width != stride:
        raise BackendError("tagging column does not match the tag length")
    find = cols.tagging.data.find
    clock = time.perf_counter
    crypto_time = 0.0
    matched: dict[int, BlockCipher] = {}
    for entry in entries:
        slot = (entry.predicate - 1) * tag_len
        start = slot
        while True:
            pos = find(entry.net, start)
            if pos < 0:
                break
            r0, misalign = divmod(pos - slot, stride)
            start = (r0 + 1) * stride + slot
            if misalign:
                continue  # another slot, or across slot boundaries
            if track:
                stats.tag_hits += 1
                stats.decrypt_attempts += 1
                t0 = clock()
            pk_cipher = opener.confirm(r0, entry.dec_cipher, entry.predicate)
            if track:
                crypto_time += clock() - t0
            if pk_cipher is None:
                continue  # truncation false positive; no state change
            if track:
                stats.decrypt_successes += 1
            matched.setdefault(r0, pk_cipher)
            entry.advance(tag_len)

    t0 = clock()
    out = [opener.decode(r0, matched[r0]) for r0 in sorted(matched)]
    if track:
        stats.rows_scanned += n_rows
        stats.rows_emitted += len(out)
        stats.crypto_seconds += crypto_time + clock() - t0
        for entry in entries:
            stats.final_counts[(entry.predicate, entry.key)] = entry.count
    return out
