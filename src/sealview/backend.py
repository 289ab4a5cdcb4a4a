"""Per-partition cryptographic protocol.

Four operations: encrypt a plaintext partition cell by cell; instantiate
a view family by appending projection, selection, and tagging columns;
mint view keys from a family key; and reveal a view by scanning tags and
decrypting matching rows.

Key derivation chains (all 16-byte keys). Each line is implemented once,
by the code named on its right, which the owner's writer and the reader
both call:

    row key        = PRF(table key, partition || row)      _row_keys
    cell key       = PRF(row key, column)                  _cell_key_inputs
    predicate key  = PRF(family key, predicate index)      _predicate_ciphers
    selection key  = PRF_var(predicate key, g(row))        add_family
    view key       = PRF_var(predicate key, bound value)   generate_view_keys
    slot key       = PRF(selection key, 0)                 _SelectionKey
    tagging key    = PRF(selection key, partition)         _SelectionKey
    tag            = PRF(tagging key, count)[:tag_length]  _SelectionKey.tags
    selection slot = CTR(slot key, projection key)         _SelectionKey.slots
    projection key and entry                               _Projection.seal, .open

Indices are 0-based everywhere but inside PRF inputs and cell positions,
where they are 1-based; the code named above converts. Partition ids
never equal 0, so the tagging key input never collides with the slot key
input PRF(selection key, 0).
"""

from __future__ import annotations

import random
import secrets
import struct
import time
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
    DOMAIN_PROJECTION_BLOB,
    DOMAIN_PROJECTION_CHECK,
    DOMAIN_SELECTION,
    KEY_LEN,
    ZERO_BLOCK,
    counter_blocks,
    first_counter_block,
    ote,
    pack_block,
    secure_concat,
    split_concat,
    xor_bytes,
)

DEFAULT_TAG_LENGTH = 4
DEFAULT_CACHE_CAPACITY = 512


class BackendError(Exception):
    """Structural problem with a partition or its parameters."""


def random_key() -> bytes:
    return secrets.token_bytes(KEY_LEN)


@dataclass
class FamilyParams:
    """How `add_family` writes a family.

    `cache_capacity` sets selection-key reuse: 0 derives a selection
    key's slot and tagging keys afresh for every row that uses it, and any
    positive value derives them once per distinct key and partition. It
    changes time only, never bytes.
    """

    tag_length: int = DEFAULT_TAG_LENGTH
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    rng_seed: int | None = None  # deterministic projection keys when set

    def __post_init__(self):
        if not 1 <= self.tag_length <= 16:
            raise BackendError("tag_length must be between 1 and 16 bytes")
        if self.cache_capacity < 0:
            raise BackendError("cache capacity must be non-negative")


def _prf_keys(cipher: BlockCipher, inputs: bytes) -> list[bytes]:
    """The cipher's PRF of each 16-byte block of `inputs`, in one batch."""
    flat = cipher.prf_many(inputs)
    return [flat[off : off + 16] for off in range(0, len(flat), 16)]


def _row_keys(table_key: bytes, partition_id: int, n_rows: int) -> list[bytes]:
    """Row keys of rows 0..n_rows-1 of a partition."""
    inputs = b"".join(pack_block(partition_id, r0 + 1) for r0 in range(n_rows))
    return _prf_keys(BlockCipher(table_key), inputs)


def _cell_key_inputs(columns) -> bytes:
    """The PRF inputs, under a row key, of the given 0-based columns'
    cell keys, back to back: `_prf_keys` of them gives the cell keys in
    column order."""
    return b"".join(pack_block(c + 1) for c in columns)


def _predicate_ciphers(family_key: bytes, n_pred: int) -> list[BlockCipher]:
    """Ciphers under the predicate keys of predicates 0..n_pred-1."""
    keys = _prf_keys(BlockCipher(family_key), b"".join(pack_block(j0 + 1) for j0 in range(n_pred)))
    return [BlockCipher(k) for k in keys]


class _SelectionKey:
    """The two keys a selection key derives in one partition: the slot key,
    which encrypts projection keys into selection slots, and the tagging
    key, which makes the tags. Both work on batches: the writer passes
    every occurrence of the key in a partition, the reader the candidate
    occurrences of one chain. It takes the selection key as a prepared
    cipher, so that a caller opening many partitions with one key
    prepares it once."""

    __slots__ = ("partition_id", "_slot_key", "_slot_cipher", "tag_cipher")

    def __init__(self, selection_cipher: BlockCipher, partition_id: int):
        self.partition_id = partition_id
        self._slot_key, tag_key = _prf_keys(selection_cipher, ZERO_BLOCK + pack_block(partition_id))
        self._slot_cipher = None  # built on first use; most reader keys never need it
        self.tag_cipher = BlockCipher(tag_key)

    def tags(self, counts, tag_length: int) -> list[bytes]:
        """The tags of this key's occurrence numbers `counts` (0-based)."""
        flat = self.tag_cipher.prf_many(b"".join(map(pack_block, counts)))
        return [flat[off : off + tag_length] for off in range(0, len(flat), 16)]

    def slots(self, positions, data: bytes) -> bytes:
        """CTR transform (its own inverse) of the 16-byte selection slots
        at the 0-based (row, predicate) `positions`, given back to back."""
        if self._slot_cipher is None:
            self._slot_cipher = BlockCipher(self._slot_key)
        p = self.partition_id
        blocks = b"".join(first_counter_block(DOMAIN_SELECTION, p, r0 + 1, j0 + 1) for r0, j0 in positions)
        return xor_bytes(data, self._slot_cipher.prf_many(blocks))


_ONE_COLUMN, _WHOLE_ROW, _KEY_BLOB = range(3)
_CHECK_INPUT = ZERO_BLOCK  # under a projection key, the input of its check value


class _Projection:
    """One family's projection entries in one partition: the writer seals
    them, the reader opens them.

    A row's projection key opens every projected cell of the row. What it
    is follows from the projection alone:
    - one column: that column's cell key;
    - every column: the row key, from which each cell key derives;
    - otherwise: a fresh key, under which the entry carries the projected
      cell keys.
    A key is confirmed by its check value: PRF(key, 0), which is the whole
    entry in the first two kinds, or in the third CTR(key, 0) at the check
    position, which follows the encrypted cell keys.
    """

    def __init__(self, family: CanonicalFamily, n_col: int, partition_id: int):
        self.projected = family.projected
        self.partition_id = partition_id
        n_proj = family.n_proj
        self.kind = _ONE_COLUMN if n_proj == 1 else _WHOLE_ROW if n_proj == n_col else _KEY_BLOB
        # The cell keys `seal` takes, unless the row key opens the cells.
        self.key_columns = () if self.kind == _WHOLE_ROW else self.projected
        # What `open` encrypts under a key of the first two kinds: the check
        # input, then for every column the projected cells' key inputs.
        self._open_inputs = _CHECK_INPUT
        if self.kind == _WHOLE_ROW:
            self._open_inputs += _cell_key_inputs(self.projected)

    def _blob_and_check_blocks(self, r0: int, blob_len: int) -> bytes:
        """Row r0's keystream blocks of a `blob_len`-byte cell-key blob,
        then its check block: under the projection key, the blob's pad
        and the check value."""
        p, r = self.partition_id, r0 + 1
        return counter_blocks(blob_len, DOMAIN_PROJECTION_BLOB, p, r) + first_counter_block(
            DOMAIN_PROJECTION_CHECK, p, r
        )

    def seal(
        self, r0: int, row_cipher: BlockCipher, cell_keys: dict[int, bytes], rng: random.Random
    ) -> tuple[bytes, bytes]:
        """Row r0's projection key and entry, from the cell keys of at
        least the `key_columns`; `rng` draws a fresh key."""
        if self.kind == _WHOLE_ROW:
            return row_cipher.key, row_cipher.prf(_CHECK_INPUT)
        keys = [cell_keys[c] for c in self.projected]
        if self.kind == _ONE_COLUMN:
            return keys[0], BlockCipher(keys[0]).prf(_CHECK_INPUT)
        pk = rng.randbytes(KEY_LEN)
        plain = secure_concat(keys)
        stream = BlockCipher(pk).prf_many(self._blob_and_check_blocks(r0, len(plain)))
        return pk, secure_concat([xor_bytes(plain, stream[: len(plain)]), stream[-16:]])

    def open(self, r0: int, pk: bytes, entry: bytes) -> list[bytes] | None:
        """The projected cells' keys, in projection order, if `pk` is row
        r0's projection key, else None; one key setup and one AES call."""
        if self.kind != _KEY_BLOB:
            out = BlockCipher(pk).prf_many(self._open_inputs)
            if out[:16] != entry:
                return None
            if self.kind == _ONE_COLUMN:
                return [pk]
            return [out[off : off + 16] for off in range(16, len(out), 16)]
        parts = split_concat(entry)
        if len(parts) != 2:
            raise BackendError("malformed projection entry")
        blob, check = parts
        stream = BlockCipher(pk).prf_many(self._blob_and_check_blocks(r0, len(blob)))
        if stream[-16:] != check:
            return None
        keys = split_concat(xor_bytes(blob, stream[: len(blob)]))
        if len(keys) != len(self.projected):
            raise BackendError("projection blob key count mismatch")
        return keys


@dataclass
class AddFamilyStats:
    """Counters of one or more family instantiations. `cache_misses`
    counts selection-key derivations (three key setups each), and
    `cache_hits` the (row, predicate) occurrences that reused one."""

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
    """Per-predicate view keys, tied to one family instantiation.

    The set also keeps a prepared cipher under each key it has revealed
    with (`selection_cipher`), which is not part of its value: equality,
    `serialize` and pickling ignore it.
    """

    family_id: str
    tag_length: int
    keys: tuple[tuple[bytes, ...], ...]
    _ciphers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.tag_length <= 16:
            raise BackendError(f"view key tag length {self.tag_length} is not 1 to 16 bytes")

    def __getstate__(self):
        return {**self.__dict__, "_ciphers": {}}  # a prepared cipher does not pickle

    def total_keys(self) -> int:
        return sum(len(k) for k in self.keys)

    def selection_cipher(self, key: bytes) -> BlockCipher:
        """A prepared cipher under `key`, built on its first use and kept
        for the set's life: the key is the same in every partition."""
        cipher = self._ciphers.get(key)
        if cipher is None:
            cipher = self._ciphers[key] = BlockCipher(key)
        return cipher

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


def encrypt_partition(
    plain: PlainPartition, schema: Schema, table_key: bytes
) -> EncryptedPartition:
    """Encrypt every cell under its own key; no family columns yet.

    Each cell is encoded once, and checked as it is: a row of the wrong
    length or a NULL in a non-nullable column raises SchemaError, and a
    value of the wrong type EncodingError.
    """
    n_col = len(schema)
    cells: list[list[bytes]] = [[] for _ in range(n_col)]
    cell_inputs = _cell_key_inputs(range(n_col))
    row_keys = _row_keys(table_key, plain.partition_id, len(plain.rows))
    for r0, (row, row_key) in enumerate(zip(plain.rows, row_keys)):
        if len(row) != n_col:
            raise SchemaError(f"row {r0} has {len(row)} cells, schema has {n_col}")
        keys = _prf_keys(BlockCipher(row_key), cell_inputs)
        for value, col, key, out in zip(row, schema.columns, keys, cells):
            if value is None and not col.nullable:
                raise SchemaError(f"null in non-nullable column {col.name!r}")
            out.append(ote(key, encode_cell(value, col.type)))
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
    n_rows, n_pred = enc_part.n_rows, family.n_pred
    projection = _Projection(family, n_col, p)
    where_cols = sorted(family.where_columns())
    key_cols = sorted(set(where_cols) | set(projection.key_columns))
    key_inputs = _cell_key_inputs(key_cols)
    types = [c.type for c in schema.columns]
    if params.rng_seed is None:
        rng = random.SystemRandom()
    else:
        rng = random.Random(params.rng_seed * 1_000_003 + p)
    where_cells = {c: list(enc_part.columns[c]) for c in where_cols}
    started = time.perf_counter()

    # Pass 1, row by row: projection keys and entries, and the inputs of
    # every predicate's selection-key MAC.
    proj_keys: list[bytes] = []
    proj_entries: list[bytes] = []
    pred_inputs: list[list[bytes]] = [[] for _ in range(n_pred)]
    for r0, row_key in enumerate(_row_keys(table_key, p, n_rows)):
        row_cipher = BlockCipher(row_key)
        keys = dict(zip(key_cols, _prf_keys(row_cipher, key_inputs)))
        values: list = [_MISSING] * n_col
        for c in where_cols:
            values[c] = decode_cell(ote(keys[c], where_cells[c][r0]), types[c])
        pk, proj_entry = projection.seal(r0, row_cipher, keys, rng)
        proj_keys.append(pk)
        proj_entries.append(proj_entry)
        for pred, inputs in zip(family.predicates, pred_inputs):
            inputs.append(pred.evaluate(values, schema))

    # Pass 2, key by key: each predicate's selection keys in one batch,
    # then each distinct key's occurrences, in row-major order, so that an
    # occurrence's index in its group is its tag count.
    sel_keys = [
        pred_cipher.mac_many(inputs)
        for pred_cipher, inputs in zip(_predicate_ciphers(family_key, n_pred), pred_inputs)
    ]
    groups: dict[bytes, list[tuple[int, int]]] = {}
    for r0, row_sel_keys in enumerate(zip(*sel_keys)):
        for j0, s in enumerate(row_sel_keys):
            groups.setdefault(s, []).append((r0, j0))
    tag_len = params.tag_length
    slots: list[bytes] = [b""] * (n_rows * n_pred)  # row-major, like the tags
    tags: list[bytes] = [b""] * (n_rows * n_pred)
    derivations = 0
    for s, occurrences in groups.items():
        # Capacity 0 derives the key afresh for every occurrence.
        step = len(occurrences) if params.cache_capacity else 1
        for start in range(0, len(occurrences), step):
            chunk = occurrences[start : start + step]
            sel = _SelectionKey(BlockCipher(s), p)
            derivations += 1
            sealed = sel.slots(chunk, b"".join(proj_keys[r0] for r0, _ in chunk))
            chunk_tags = sel.tags(range(start, start + len(chunk)), tag_len)
            for k, ((r0, j0), tag) in enumerate(zip(chunk, chunk_tags)):
                slots[r0 * n_pred + j0] = sealed[16 * k : 16 * k + 16]
                tags[r0 * n_pred + j0] = tag

    enc_part.families[family_id] = FamilyColumns(
        FixedWidthColumn.from_entries(proj_entries),
        FixedWidthColumn(b"".join(slots), 16 * n_pred if n_rows else 0),
        FixedWidthColumn(b"".join(tags), tag_len * n_pred if n_rows else 0),
    )
    if stats is not None:
        stats.rows += n_rows
        stats.cache_hits = n_rows * n_pred - derivations
        stats.cache_misses = derivations
        stats.crypto_seconds += time.perf_counter() - started
        stats.tag_counts = {s: len(occurrences) for s, occurrences in groups.items()}
    return enc_part


def generate_view_keys(
    view: CanonicalView, family_key: bytes, tag_length: int = DEFAULT_TAG_LENGTH
) -> ViewKeySet:
    """Derive one key per distinct bound value per predicate."""
    pred_ciphers = _predicate_ciphers(family_key, len(view.values))
    keys = (
        tuple(dict.fromkeys(pred_cipher.mac_many(values)))
        for pred_cipher, values in zip(pred_ciphers, view.values)
    )
    return ViewKeySet(view.family.family_id, tag_length, tuple(keys))


_FIRST_TAG_BATCH = 4  # tags a view key computes before it doubles the batch


class _KeyEntry(_SelectionKey):
    """A view key in one partition: its predicate, its confirmed
    occurrence count so far, and the tags of its occurrences, computed
    ahead in batches that double how many it holds."""

    __slots__ = ("key", "j0", "tag_length", "count", "_tags")

    def __init__(self, view_keys: ViewKeySet, key: bytes, j0: int, partition_id: int):
        super().__init__(view_keys.selection_cipher(key), partition_id)
        self.key = key
        self.j0 = j0
        self.tag_length = view_keys.tag_length
        self.count = 0
        self._tags: list[bytes] = []

    def tag(self, n: int) -> bytes:
        """The tag of occurrence n (0-based)."""
        tags = self._tags
        if n >= len(tags):
            tags += self.tags(range(len(tags), max(2 * n, _FIRST_TAG_BATCH)), self.tag_length)
        return tags[n]


def _family_columns(enc_part: EncryptedPartition, family_id: str) -> FamilyColumns:
    cols = enc_part.families.get(family_id)
    if cols is None:
        raise BackendError(f"family {family_id} not instantiated in partition")
    if cols.row_count() != enc_part.n_rows:
        raise BackendError("family columns out of step with partition rows")
    return cols


def reveal_partition(
    enc_part: EncryptedPartition,
    schema: Schema,
    family: CanonicalFamily,
    view_keys: ViewKeySet,
    use_tags: bool = True,
    stats: RevealStats | None = None,
) -> list[tuple]:
    """Decrypt the rows this view key set can open, in row order.

    With tags enabled, the keys run one at a time, and each follows its
    chain of expected tags through its own predicate's slot of the
    contiguous tagging column: it finds tag n at an aligned offset, then
    tag n + 1 from the next row on, and so on, as if every hit confirmed.
    Rows no key's tag hits cost no cryptographic work, and hits outside
    the key's own slot can only be false positives (a true match always
    shows in the key's own slot). One selection-slot decrypt serves all
    the chain's candidate rows, which are then confirmed in chain order.
    The first that fails is a truncation false positive: the key's count
    stays, and its chain restarts from the next row with the same tag, so
    every counter equals that of confirming each hit before searching for
    the next tag. Rows matched by any key are decoded once each, in row
    order, so a row matching several predicates is emitted once while
    every matching key still advances. With tags disabled, every key is
    tried against every row: the reference the tagged path must agree
    with.

    A key is confirmed against a row by decrypting its selection slot and
    opening the row's projection entry with the projection key that
    yields (`_Projection.open`); that check is what turns a truncated-tag
    false positive into a clean failure.
    """
    if view_keys.family_id != family.family_id:
        raise BackendError("view keys were minted for a different family")
    cols = _family_columns(enc_part, family.family_id)
    if len(view_keys.keys) != family.n_pred:
        raise BackendError("view key set predicate count mismatch")
    if enc_part.n_rows and cols.selection.width < 16 * family.n_pred:
        raise BackendError("selection column too short")
    stats = stats if stats is not None else RevealStats()
    n_rows = enc_part.n_rows
    tag_len = view_keys.tag_length
    projection = _Projection(family, len(schema), enc_part.partition_id)
    sel_width, sel_data = cols.selection.width, cols.selection.data
    proj_entries = cols.projection

    def projection_keys(entry: _KeyEntry, rows: list[int]) -> bytes:
        """The projection keys the key's selection slots at `rows` hold,
        back to back, from one decrypt."""
        j0 = entry.j0
        offs = [r0 * sel_width + 16 * j0 for r0 in rows]
        return entry.slots([(r0, j0) for r0 in rows], b"".join(sel_data[o : o + 16] for o in offs))

    entries = [
        _KeyEntry(view_keys, key, j0, enc_part.partition_id)
        for j0, pred_keys in enumerate(view_keys.keys)
        for key in pred_keys
    ]
    clock = time.perf_counter
    matched: dict[int, list[bytes]] = {}  # row -> its projected cells' keys, from any key

    if not use_tags:
        started = clock()
        for r0 in range(n_rows):
            for entry in entries:
                stats.decrypt_attempts += 1
                keys = projection.open(r0, projection_keys(entry, [r0]), proj_entries[r0])
                if keys is not None:
                    stats.decrypt_successes += 1
                    matched[r0] = keys
                    break
        crypto_time = clock() - started
    else:
        stride = family.n_pred * tag_len
        if n_rows and cols.tagging.width != stride:
            raise BackendError("tagging column does not match the tag length")
        find = cols.tagging.data.find

        def chain(entry: _KeyEntry, start: int) -> list[int]:
            """The rows of the key's next occurrences from tagging offset
            `start` on, found as if every hit confirmed."""
            slot = entry.j0 * tag_len
            rows: list[int] = []
            n = entry.count
            while (pos := find(entry.tag(n), start)) >= 0:
                r0, misalign = divmod(pos - slot, stride)
                start = (r0 + 1) * stride + slot
                if not misalign:  # else another slot, or across slot boundaries
                    rows.append(r0)
                    n += 1
            return rows

        crypto_time = 0.0
        for entry in entries:
            slot = entry.j0 * tag_len
            rows = chain(entry, slot)
            while rows:
                t0 = clock()
                pks = projection_keys(entry, rows)
                miss = None
                for k, r0 in enumerate(rows):
                    stats.tag_hits += 1
                    stats.decrypt_attempts += 1
                    keys = projection.open(r0, pks[16 * k : 16 * k + 16], proj_entries[r0])
                    if keys is None:
                        miss = r0
                        break
                    stats.decrypt_successes += 1
                    matched.setdefault(r0, keys)
                    entry.count += 1
                crypto_time += clock() - t0
                # Without a miss the chain ended at a tag that no later row
                # holds. A miss is a truncation false positive: the rest of
                # the chain assumed it, so search for the same tag again
                # from the next row on.
                rows = [] if miss is None else chain(entry, (miss + 1) * stride + slot)
        for entry in entries:
            stats.final_counts[(entry.j0 + 1, entry.key)] = entry.count

    t0 = clock()
    rows = sorted(matched)
    cell_keys = [matched[r0] for r0 in rows]
    values = []  # column by column, then zipped into rows
    for i, c in enumerate(family.projected):
        cells, ctype = enc_part.columns[c], schema.columns[c].type
        values.append([decode_cell(ote(keys[i], cells[r0]), ctype) for r0, keys in zip(rows, cell_keys)])
    out = list(zip(*values)) if values else [() for _ in rows]
    stats.rows_scanned += n_rows
    stats.rows_emitted += len(out)
    stats.crypto_seconds += crypto_time + clock() - t0
    return out
