"""Per-partition cryptographic protocol.

Four operations: encrypt a plaintext partition cell by cell; instantiate
a view family by appending projection, selection, and tagging columns;
mint view keys from a family key; and reveal a view by scanning tags and
decrypting matching rows.

Key derivation chains (all 16-byte keys). Each line is implemented once,
by the code named on its right, which the owner's writer and the reader
both call:

    row key        = PRF(table key, partition || row)      _row_keys
    cell key       = PRF(row key, column)                  _cell_key_inputs, _prf_each
    cell ciphertext = ote(cell key, encoding)              ote_many
    predicate key  = PRF(family key, predicate index)      _predicate_ciphers
    selection key  = PRF_var(predicate key, g(row))        add_family
    view key       = PRF_var(predicate key, bound value)   generate_view_keys
    slot key       = PRF(selection key, 0)                 _selection_keys
    tagging key    = PRF(selection key, partition)         _selection_keys
    tag            = PRF(tagging key, count)[:tag_length]  _tag_inputs
    selection slot = CTR(slot key, projection key)         _slot_inputs
    projection key and entry                               _Projection.inputs

`_Projection.inputs` is what a row's projection key encrypts, ending
with the check input. `_Projection.open` encrypts it for every kind, and
`_Projection.seal` for all but a whole-row projection, whose entries are
the row keys' outputs on the check input in the writer's one call per
row key.

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
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

from .encoding import ByteReader, decode_cell, encode_cell
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
    counter_block_packer,
    first_counter_blocks,
    ote_many,
    pack_block,
    pack_blocks,
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

    `rng_seed` is for tests and benchmarks only, which need partitions
    that are a function of their inputs. When set, every fresh
    projection key is drawn from `random.Random(rng_seed * 1_000_003 +
    partition)`, so anyone who reads storage and guesses the seed opens
    every key-blob projection entry, and with it every projected cell
    key, without any table, family or view key. Left None, the keys come
    from the operating system's CSPRNG.
    """

    tag_length: int = DEFAULT_TAG_LENGTH
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    rng_seed: int | None = None  # tests and benchmarks only: see above

    def __post_init__(self):
        if not 1 <= self.tag_length <= 16:
            raise BackendError("tag_length must be between 1 and 16 bytes")
        if self.cache_capacity < 0:
            raise BackendError("cache capacity must be non-negative")


def _blocks(data: bytes) -> list[bytes]:
    """`data` cut into 16-byte blocks."""
    return [data[off : off + 16] for off in range(0, len(data), 16)]


def _prf_keys(cipher: BlockCipher, inputs: bytes) -> list[bytes]:
    """The cipher's PRF of each 16-byte block of `inputs`, in one batch."""
    return _blocks(cipher.prf_many(inputs))


def _in_row_order(order: list[int], data: bytes) -> bytes:
    """`data`'s 16-byte blocks, the k-th of which belongs to row
    order[k], put back in row order."""
    by_row = dict(zip(order, _blocks(data)))
    return b"".join(map(by_row.__getitem__, range(len(order))))


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


def _prf_each(keys, inputs) -> bytes:
    """PRF under each of `keys` of its own 16-byte blocks of `inputs`,
    back to back: one key setup and one AES call per key."""
    return b"".join([BlockCipher(k).prf_many(x) for k, x in zip(keys, inputs)])


def _selection_keys(ciphers: list[BlockCipher], partition_id: int) -> tuple[list[bytes], list[bytes]]:
    """The slot key and the tagging key of each prepared selection cipher
    in one partition, one AES call each: the slot key encrypts projection
    keys into selection slots, and the tagging key makes the tags."""
    inputs = ZERO_BLOCK + pack_block(partition_id)
    pairs = [cipher.prf_many(inputs) for cipher in ciphers]
    return [pair[:16] for pair in pairs], [pair[16:] for pair in pairs]


def _tag_inputs(counts) -> bytes:
    """The PRF inputs, under a tagging key, of the occurrences `counts`
    (0-based), back to back: an occurrence's tag is the first tag-length
    bytes of its 16-byte PRF block."""
    return pack_blocks(counts)


def _slot_inputs(partition_id: int, j0: int, rows) -> bytes:
    """The CTR counter blocks, under a slot key, of predicate j0's 16-byte
    selection slots at the 0-based `rows`, back to back."""
    return first_counter_blocks(DOMAIN_SELECTION, partition_id, [r0 + 1 for r0 in rows], j0 + 1)


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
        n_proj = family.n_proj
        self.kind = _ONE_COLUMN if n_proj == 1 else _WHOLE_ROW if n_proj == n_col else _KEY_BLOB
        # The cell keys `seal` takes, unless the row key opens the cells.
        self.key_columns = () if self.kind == _WHOLE_ROW else self.projected
        # What a key of the first two kinds encrypts at every row: for every
        # column the projected cells' key inputs, then the check input.
        self._inputs = _cell_key_inputs(self.projected if self.kind == _WHOLE_ROW else ()) + _CHECK_INPUT
        if self.kind == _KEY_BLOB:
            # What `seal` packs at every row, compiled once: the blob, which
            # is secure_concat of the cell keys, zero-padded to the length
            # of its keystream and check blocks; those blocks; and the
            # entry, secure_concat of the encrypted blob and the check value.
            self._blob_len = blob_len = 4 + (4 + KEY_LEN) * n_proj
            self._stream_len = 16 * -(-blob_len // 16) + 16
            self._blob = struct.Struct(">I" + f"I{KEY_LEN}s" * n_proj + f"{self._stream_len - blob_len}x")
            self._seal_blocks = counter_block_packer(
                ((DOMAIN_PROJECTION_BLOB, blob_len, 0), (DOMAIN_PROJECTION_CHECK, 16, 0)), partition_id
            )
            self._entry = struct.Struct(f">II{blob_len}sI16s")

    def inputs(self, r0: int) -> bytes:
        """What row r0's projection key encrypts, ending with its check
        input: a key blob's keystream blocks, then its check block; or
        the first two kinds' fixed inputs."""
        return self._seal_blocks(r0 + 1) if self.kind == _KEY_BLOB else self._inputs

    def seal(
        self, row_keys: list[bytes], checks: list[bytes], cell_keys: dict[int, list[bytes]], rng: random.Random
    ) -> tuple[list[bytes], list[bytes]]:
        """Every row's projection key and entry, in row order. A whole-row
        projection's keys are `row_keys`, and its entries are `checks`,
        their outputs on the check input. The other kinds seal the cell
        keys of `key_columns`, which `cell_keys` maps to their cells'
        keys, and a key blob draws the rows' fresh keys from `rng`, in
        row order, in one draw."""
        if self.kind == _WHOLE_ROW:
            return row_keys, checks
        n_rows, n_proj = len(row_keys), len(self.projected)
        inputs = map(self.inputs, range(n_rows))
        if self.kind == _ONE_COLUMN:
            keys = cell_keys[self.projected[0]]
            return keys, _blocks(_prf_each(keys, inputs))
        pks = _blocks(rng.randbytes(KEY_LEN * n_rows))
        fields = [KEY_LEN] * (2 * n_proj)  # each key's length, then the key
        plain = []
        for keys in zip(*(cell_keys[c] for c in self.projected)):
            fields[1::2] = keys
            plain.append(self._blob.pack(n_proj, *fields))
        # Each padded blob XORs its whole keystream, so the check value
        # comes out where the blob's zero padding ends.
        sealed = xor_bytes(b"".join(plain), _prf_each(pks, inputs))
        w, n = self._stream_len, self._blob_len
        entries = [
            self._entry.pack(2, n, sealed[off : off + n], 16, sealed[off + w - 16 : off + w])
            for off in range(0, len(sealed), w)
        ]
        return pks, entries

    def open(self, r0: int, pk: bytes, entry: bytes) -> list[bytes] | None:
        """The projected cells' keys, in projection order, if `pk` is row
        r0's projection key, else None; one key setup and one AES call,
        on `inputs(r0)`. A key blob's stored length is read only once
        the check confirms the key."""
        check = entry
        if self.kind == _KEY_BLOB:
            parts = split_concat(entry)
            if len(parts) != 2:
                raise BackendError("malformed projection entry")
            blob, check = parts
        out = BlockCipher(pk).prf_many(self.inputs(r0))
        if out[-16:] != check:
            return None
        if self.kind == _ONE_COLUMN:
            return [pk]
        if self.kind == _WHOLE_ROW:
            return _blocks(out[:-16])
        if len(blob) != self._blob_len:
            raise BackendError("projection blob length mismatch")
        keys = split_concat(xor_bytes(blob, out[: len(blob)]))
        if len(keys) != len(self.projected):
            raise BackendError("projection blob key count mismatch")
        return keys


@dataclass
class AddFamilyStats:
    """Counters of one or more family instantiations: each call adds to
    every field, and to each key's count in `tag_counts`. `cache_misses`
    counts selection-key derivations (three key setups each), and
    `cache_hits` the (row, predicate) occurrences that reused one."""

    rows: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    crypto_seconds: float = 0.0
    tag_counts: dict = field(default_factory=dict)  # selection key -> occurrences


@dataclass
class RevealStats:
    """Counters of one or more reveals: each call adds to every field,
    and to each key's count in `final_counts`.

    A decrypt attempt is one key tried against one candidate row, and a
    success one that opened the row. With tags, `tag_hits` counts
    occurrences of a key's next expected tag at an aligned offset in that
    key's own predicate slot; each one costs one attempt, so the two are
    equal, and attempts minus successes are the truncation false
    positives. Without tags, every key is tried against every row, so
    attempts are keys times rows and `tag_hits` stays 0; successes,
    emitted rows and `final_counts` are those of the tagged scan.
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
        """Parse a blob; any malformation is a BackendError."""
        rd = ByteReader(data, BackendError, "view key blob")
        rd.header(b"MVK1", 1)
        family_id = rd.take(8).hex()
        tag_length, n_pred = rd.unpack(">BH")
        preds = []
        for _ in range(n_pred):
            (count,) = rd.unpack(">I")
            keys = rd.take(16 * count)
            preds.append(tuple(keys[off : off + 16] for off in range(0, len(keys), 16)))
        rd.end()
        return cls(family_id, tag_length, tuple(preds))


def encrypt_partition(
    plain: PlainPartition, schema: Schema, table_key: bytes
) -> EncryptedPartition:
    """Encrypt every cell under its own key; no family columns yet.

    Each row's cell keys come from one key setup and one AES call, and
    each column's cells from one `ote_many`. A row of the wrong length
    or a NULL in a non-nullable column raises SchemaError, and a value
    of the wrong type EncodingError. Of several faults, the first in
    this order raises: the first row of the wrong length; then, column
    by column, a NULL in a non-nullable column, then the column's first
    value that does not encode. So a bad row length anywhere comes
    before any bad value, and a bad value in column 0 before a NULL in
    column 1.
    """
    n_col = len(schema)
    rows = plain.rows
    for r0, row in enumerate(rows):
        if len(row) != n_col:
            raise SchemaError(f"row {r0} has {len(row)} cells, schema has {n_col}")
    cell_inputs = _cell_key_inputs(range(n_col))
    row_keys = _row_keys(table_key, plain.partition_id, len(rows))
    keys = _blocks(_prf_each(row_keys, repeat(cell_inputs)))
    columns = []
    for c, (col, values) in enumerate(zip(schema.columns, zip(*rows) if rows else [()] * n_col)):
        if not col.nullable and None in values:
            raise SchemaError(f"null in non-nullable column {col.name!r}")
        cells = list(map(encode_cell, values, repeat(col.type)))
        columns.append(CellColumn.from_sizes(ote_many(keys[c::n_col], cells), map(len, cells)))
    return EncryptedPartition(plain.partition_id, columns)


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
    types = [c.type for c in schema.columns]
    if params.rng_seed is None:
        rng = random.SystemRandom()
    else:
        rng = random.Random(params.rng_seed * 1_000_003 + p)
    started = time.perf_counter()

    # Pass 1, column by column. Each row makes one key setup and one AES
    # call, whose inputs are the check input when the row key is the
    # projection key, then the key inputs of `key_cols`. That gives the
    # projection keys and entries, and one `ote_many` per WHERE column
    # gives its cells' plaintext bytes.
    n_check = 1 if projection.kind == _WHOLE_ROW else 0
    inputs = _CHECK_INPUT * n_check + _cell_key_inputs(key_cols)
    stride = n_check + len(key_cols)
    row_keys = _row_keys(table_key, p, n_rows)
    blocks = _blocks(_prf_each(row_keys, repeat(inputs)))
    cell_keys = {c: blocks[i::stride] for i, c in enumerate(key_cols, n_check)}
    proj_keys, proj_entries = projection.seal(row_keys, blocks[::stride], cell_keys, rng)
    plain_cells = {}
    for c in where_cols:
        cells = enc_part.columns[c]
        plain = ote_many(cell_keys[c], cells)  # reads every cell, which checks `cells`
        plain_cells[c] = list(CellColumn(plain, cells.ends, cells.checked))
    # Each distinct cell is decoded once, so a malformed one still raises.
    decoded = {c: {b: decode_cell(b, types[c]) for b in dict.fromkeys(plain_cells[c])} for c in where_cols}
    all_proj_keys = b"".join(proj_keys)

    # Pass 2, predicate by predicate. A predicate is evaluated once per
    # distinct tuple of its columns' cells and MACed once per distinct
    # value. Predicate keys differ, so each selection key belongs to one
    # predicate, and its occurrences in row order are its row-major ones:
    # an occurrence's index among them is its tag count. A stable sort on
    # the key gathers each key's rows, and a derivation covers a run of
    # them: the key's whole run, or one occurrence at capacity 0. Three
    # passes over the derivations give their slot and tagging keys, their
    # slot keystreams (slices of the predicate's counter blocks, in sorted
    # order) and their tags (slices of the partition's count blocks). Both
    # streams go back to row order, to be written into the row-major
    # columns with one strided slice per byte.
    tag_len = params.tag_length
    selection = bytearray(16 * n_pred * n_rows)
    tagging = bytearray(tag_len * n_pred * n_rows)
    tag_counts: Counter = Counter()
    tag_inputs = _tag_inputs(range(n_rows))
    values: list = [_MISSING] * n_col
    for j0, (pred, pred_cipher) in enumerate(zip(family.predicates, _predicate_ciphers(family_key, n_pred))):
        cols = sorted(pred.columns())
        cells = list(zip(*(plain_cells[c] for c in cols)))
        value_of = {}
        for cell_tuple in dict.fromkeys(cells):
            for c, b in zip(cols, cell_tuple):
                values[c] = decoded[c][b]
            value_of[cell_tuple] = pred.evaluate(values, schema)
        distinct = list(dict.fromkeys(value_of.values()))
        key_of_value = dict(zip(distinct, pred_cipher.mac_many(distinct)))
        key_of_cells = {t: key_of_value[v] for t, v in value_of.items()}
        row_sel = list(map(key_of_cells.__getitem__, cells))
        order = sorted(range(n_rows), key=row_sel.__getitem__)
        counts = Counter(row_sel)
        derivations = []  # (key, first position in order, occurrences, first tag count)
        end = 0
        for s in sorted(counts):
            n = counts[s]
            if params.cache_capacity:
                derivations.append((s, end, n, 0))
            else:
                derivations += [(s, end + a, 1, a) for a in range(n)]
            end += n
        slot_keys, tag_keys = _selection_keys([BlockCipher(s) for s, _, _, _ in derivations], p)
        slot_inputs = _slot_inputs(p, j0, order)
        streams = _prf_each(slot_keys, [slot_inputs[16 * a : 16 * (a + n)] for _, a, n, _ in derivations])
        tag_blocks = _prf_each(tag_keys, [tag_inputs[16 * t : 16 * (t + n)] for _, _, n, t in derivations])
        tag_counts.update(counts)
        slot_column = xor_bytes(all_proj_keys, _in_row_order(order, streams))
        tag_column = _in_row_order(order, tag_blocks)
        for b in range(16):
            selection[16 * j0 + b :: 16 * n_pred] = slot_column[b::16]
        for b in range(tag_len):
            tagging[tag_len * j0 + b :: tag_len * n_pred] = tag_column[b::16]

    enc_part.families[family_id] = FamilyColumns(
        FixedWidthColumn.from_entries(proj_entries),
        FixedWidthColumn(bytes(selection), 16 * n_pred if n_rows else 0),
        FixedWidthColumn(bytes(tagging), tag_len * n_pred if n_rows else 0),
    )
    if stats is not None:
        derivations = len(tag_counts) if params.cache_capacity else n_rows * n_pred
        stats.rows += n_rows
        stats.cache_hits += n_rows * n_pred - derivations
        stats.cache_misses += derivations
        stats.crypto_seconds += time.perf_counter() - started
        for s, n in tag_counts.items():
            stats.tag_counts[s] = stats.tag_counts.get(s, 0) + n
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


class _KeyEntry:
    """A view key in one partition: its predicate, its slot key, its
    confirmed occurrence count so far, and the tags of its occurrences,
    computed ahead in batches that double how many it holds."""

    __slots__ = ("key", "j0", "count", "_slot_key", "_slot_cipher", "_tag_cipher", "_tag_length", "_tags")

    def __init__(self, key: bytes, j0: int, slot_key: bytes, tag_key: bytes, tag_length: int):
        self.key = key
        self.j0 = j0
        self.count = 0
        self._slot_key = slot_key
        self._slot_cipher = None  # built on first use; most keys never need it
        self._tag_cipher = BlockCipher(tag_key)
        self._tag_length = tag_length
        self._tags: list[bytes] = []

    def tag(self, n: int) -> bytes:
        """The tag of occurrence n (0-based)."""
        tags = self._tags
        if n >= len(tags):
            flat = self._tag_cipher.prf_many(_tag_inputs(range(len(tags), max(2 * n, _FIRST_TAG_BATCH))))
            tags += [flat[off : off + self._tag_length] for off in range(0, len(flat), 16)]
        return tags[n]

    def projection_keys(self, selection: FixedWidthColumn, partition_id: int, rows: list[int]) -> bytes:
        """The projection keys the key's slots of the selection column
        hold at `rows`, back to back, from one decrypt."""
        if self._slot_cipher is None:
            self._slot_cipher = BlockCipher(self._slot_key)
        width, data, off = selection.width, selection.data, 16 * self.j0
        slots = b"".join([data[r0 * width + off : r0 * width + off + 16] for r0 in rows])
        return xor_bytes(slots, self._slot_cipher.prf_many(_slot_inputs(partition_id, self.j0, rows)))


def _slot_tags(tagging: FixedWidthColumn, j0: int, n_pred: int, tag_length: int) -> bytes | bytearray:
    """Predicate j0's tags alone, row after row, copied out of the
    row-major tagging column; with one predicate, that column."""
    if n_pred == 1:
        return tagging.data
    out = bytearray(len(tagging.data) // n_pred)
    for b in range(tag_length):
        out[b::tag_length] = tagging.data[j0 * tag_length + b :: n_pred * tag_length]
    return out


def reveal_partition(
    enc_part: EncryptedPartition,
    schema: Schema,
    family: CanonicalFamily,
    view_keys: ViewKeySet,
    use_tags: bool = True,
    stats: RevealStats | None = None,
) -> list[tuple]:
    """Decrypt the rows this view key set can open, in row order: the
    partition's scan (`PartitionScan`), then its finish
    (`PartitionScan.finish`).

    One loop runs the keys one at a time, in four steps:
    - key entry: each key's slot and tagging keys in this partition;
    - candidates: the rows a key tries next, from a given row on;
    - confirm: one selection-slot decrypt serves a batch of candidates,
      which are then opened in row order up to the first that fails,
      and the key asks for candidates again from the row after the last
      one it tried;
    - decode: the rows matched by any key are decoded once each, in row
      order, so a row matching several predicates is emitted once while
      every matching key still advances.

    The scan does key entry and each key's first candidates; the finish
    does the rest, and every counter.

    The two scans differ only in their candidate rule. With tags, each
    predicate that has view keys gets its slot of the row-major tagging
    column copied out once (`_slot_tags`), and a key's candidates are its
    chain of expected tags through that copy: it finds tag n at an
    aligned offset, then tag n + 1 from the next row on, and so on, as if
    every hit confirmed. A misaligned hit straddles two rows' tags and is
    skipped, and rows no key's tag hits cost no cryptographic work. A
    candidate that fails is a truncation false positive: the key's count
    stays, and its chain restarts from the next row with the same tag, so
    every counter equals that of confirming each hit before searching for
    the next tag. Without tags, a key's one candidate is the next row, so
    every key is tried against every row: the reference the tagged scan
    must agree with.

    A key is confirmed against a row by decrypting its selection slot and
    opening the row's projection entry with the projection key that
    yields (`_Projection.open`); that check is what turns a truncated-tag
    false positive into a clean failure.
    """
    return PartitionScan(enc_part, schema, family, view_keys, use_tags).finish(stats)


class PartitionScan:
    """One partition's reveal, scanned: the partition checked against the
    view keys, every key's entry (`entries`), and each key's first
    candidate rows (`first`, in key order). `finish` does the rest."""

    def __init__(
        self,
        enc_part: EncryptedPartition,
        schema: Schema,
        family: CanonicalFamily,
        view_keys: ViewKeySet,
        use_tags: bool = True,
    ):
        if view_keys.family_id != family.family_id:
            raise BackendError("view keys were minted for a different family")
        cols = enc_part.families.get(family.family_id)
        if cols is None:
            raise BackendError(f"family {family.family_id} not instantiated in partition")
        if cols.row_count() != enc_part.n_rows:
            raise BackendError("family columns out of step with partition rows")
        n_pred, n_rows, tag_len = family.n_pred, enc_part.n_rows, view_keys.tag_length
        if len(view_keys.keys) != n_pred:
            raise BackendError("view key set predicate count mismatch")
        if n_rows and cols.selection.width < 16 * n_pred:
            raise BackendError("selection column too short")
        self.enc_part, self.schema, self.family, self.cols = enc_part, schema, family, cols
        self.uses_tags, self.tag_len = use_tags, tag_len

        # Key entry.
        pairs = [(j0, key) for j0, pred_keys in enumerate(view_keys.keys) for key in pred_keys]
        ciphers = [view_keys.selection_cipher(key) for _, key in pairs]
        slot_keys, tag_keys = _selection_keys(ciphers, enc_part.partition_id)
        self.entries = [
            _KeyEntry(key, j0, slot_key, tag_key, tag_len)
            for (j0, key), slot_key, tag_key in zip(pairs, slot_keys, tag_keys)
        ]

        # Candidates.
        if use_tags:
            if n_rows and cols.tagging.width != n_pred * tag_len:
                raise BackendError("tagging column does not match the tag length")
            j0s = {entry.j0 for entry in self.entries}
            self.slots = {j0: _slot_tags(cols.tagging, j0, n_pred, tag_len) for j0 in j0s}
        self.first = [self.candidates(entry, 0) for entry in self.entries]

    def candidates(self, entry: _KeyEntry, start: int) -> list[int]:
        """The rows the key tries next, from row `start` on: with tags, the
        rows of its next occurrences, found as if every hit confirmed;
        without, row `start` alone."""
        if not self.uses_tags:
            return [start] if start < self.enc_part.n_rows else []
        tag_len = self.tag_len
        find = self.slots[entry.j0].find
        start *= tag_len
        rows: list[int] = []
        n = entry.count
        while (pos := find(entry.tag(n), start)) >= 0:
            r0, misalign = divmod(pos, tag_len)
            start = (r0 + 1) * tag_len
            if not misalign:  # else it straddles two rows' tags
                rows.append(r0)
                n += 1
        return rows

    def candidate_count(self) -> int:
        """How many rows the keys' first candidates hold: the confirm
        attempts the finish makes if every candidate confirms."""
        return sum(map(len, self.first))

    def finish(self, stats: RevealStats | None = None) -> list[tuple]:
        """Confirm and decode: the rows of the partition that its keys
        open, in row order, each call adding to `stats`' counters. A scan
        is finished once; the finish advances its keys' counts."""
        stats = stats if stats is not None else RevealStats()
        enc_part, schema, family, cols = self.enc_part, self.schema, self.family, self.cols
        p = enc_part.partition_id
        projection = _Projection(family, len(schema), p)

        # Confirm.
        clock = time.perf_counter
        crypto_time = 0.0
        attempts = 0
        matched: dict[int, list[bytes]] = {}  # row -> its projected cells' keys, from any key
        for entry, rows in zip(self.entries, self.first):
            while rows:
                t0 = clock()
                pks = entry.projection_keys(cols.selection, p, rows)
                for k, r0 in enumerate(rows):
                    attempts += 1
                    keys = projection.open(r0, pks[16 * k : 16 * k + 16], cols.projection[r0])
                    if keys is None:
                        break
                    stats.decrypt_successes += 1
                    matched.setdefault(r0, keys)
                    entry.count += 1
                crypto_time += clock() - t0
                rows = self.candidates(entry, r0 + 1)
        stats.decrypt_attempts += attempts
        stats.tag_hits += attempts if self.uses_tags else 0
        # One count per (predicate, key) per call, even if a set repeats a key.
        final_counts = {(entry.j0 + 1, entry.key): entry.count for entry in self.entries}
        for key, count in final_counts.items():
            stats.final_counts[key] = stats.final_counts.get(key, 0) + count

        # Decode.
        t0 = clock()
        rows = sorted(matched)
        values = []  # column by column, then zipped into rows
        for c, keys in zip(family.projected, zip(*[matched[r0] for r0 in rows])):
            cells = enc_part.columns[c]
            ct = [cells[r0] for r0 in rows]
            plain = CellColumn.from_sizes(ote_many(keys, ct), map(len, ct))
            values.append(list(map(decode_cell, plain, repeat(schema.columns[c].type))))
        out = list(zip(*values))
        stats.rows_scanned += enc_part.n_rows
        stats.rows_emitted += len(out)
        stats.crypto_seconds += crypto_time + clock() - t0
        return out
