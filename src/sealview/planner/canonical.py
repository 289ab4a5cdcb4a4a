"""Canonical form: what the cryptographic backend understands.

A canonical family is a projection plus an ordered list of predicate
functions; a row matches a view when any predicate's value on that row
is in the view's value list for that predicate. Each predicate function
is a secure concatenation of atoms: a raw field, the top bits of an
integer field, or the top bits of a hashed string field. Atom outputs
carry a presence tag so rows with NULL in a ranged field never match a
range cover.

The serialized family is deterministic; its hash names the family.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

from ..encoding import TYPE_UTF8, encode_cell, int64_to_unsigned
from ..primitives import hash_string, secure_concat
from .errors import PlannerError

ATOM_FIELD = "field"
ATOM_TOP_BITS = "topbits"
ATOM_HASH_BITS = "hashbits"

_ATOM_CODES = {ATOM_FIELD: 1, ATOM_TOP_BITS: 2, ATOM_HASH_BITS: 3}
_ATOM_NAMES = {v: k for k, v in _ATOM_CODES.items()}

SERIAL_MAGIC = b"MCF1"
SERIAL_VERSION = 1

PRESENT = b"\x01"
ABSENT = b"\x00"


def prefix_value(prefix: int, bits: int) -> bytes:
    """Encode a bit-prefix of `bits` bits with the presence tag."""
    if bits == 0:
        return PRESENT
    return PRESENT + prefix.to_bytes((bits + 7) // 8, "big")


@dataclass(frozen=True)
class Atom:
    kind: str
    column: int
    bits: int = 0
    total_bits: int = 0

    def evaluate(self, value, column_type: str) -> bytes:
        if self.kind == ATOM_FIELD:
            return encode_cell(value, column_type)
        if value is None:
            return ABSENT
        if self.kind == ATOM_TOP_BITS:
            domain = int64_to_unsigned(value)
        else:
            domain = hash_string(encode_cell(value, TYPE_UTF8))
        return prefix_value(domain >> (self.total_bits - self.bits), self.bits)

    def describe(self, column_name: str) -> str:
        if self.kind == ATOM_FIELD:
            return column_name
        if self.bits == self.total_bits and self.kind == ATOM_TOP_BITS:
            return f"{column_name}[exact]"
        tag = "hash" if self.kind == ATOM_HASH_BITS else "bits"
        return f"{column_name}[{tag}:{self.bits}/{self.total_bits}]"


@dataclass(frozen=True)
class PredicateFn:
    atoms: tuple[Atom, ...]

    def evaluate(self, row: list, schema) -> bytes:
        """Value of this predicate function on a plaintext row."""
        return secure_concat(
            [a.evaluate(row[a.column], schema.columns[a.column].type) for a in self.atoms]
        )

    def columns(self) -> set[int]:
        return {a.column for a in self.atoms}


def make_value(parts: list[bytes]) -> bytes:
    """Combine per-atom value encodings the same way evaluation does."""
    return secure_concat(parts)


@dataclass(frozen=True)
class CanonicalFamily:
    projected: tuple[int, ...]
    predicates: tuple[PredicateFn, ...]
    wildcard_names: tuple[tuple[str, ...], ...]  # per predicate, contributing wildcards
    branching_bits: int

    def __post_init__(self):
        if not self.predicates:
            raise PlannerError("canonical family needs at least one predicate")
        if len(self.wildcard_names) != len(self.predicates):
            raise PlannerError("wildcard map out of step with predicates")

    @property
    def n_proj(self) -> int:
        return len(self.projected)

    @property
    def n_pred(self) -> int:
        return len(self.predicates)

    def where_columns(self) -> set[int]:
        return set().union(*(p.columns() for p in self.predicates))

    def serialize(self) -> bytes:
        out = [SERIAL_MAGIC, struct.pack(">HB", SERIAL_VERSION, self.branching_bits)]
        out.append(struct.pack(">H", len(self.projected)))
        out.extend(struct.pack(">H", c) for c in self.projected)
        out.append(struct.pack(">H", len(self.predicates)))
        for pred, names in zip(self.predicates, self.wildcard_names):
            out.append(struct.pack(">H", len(pred.atoms)))
            for a in pred.atoms:
                out.append(
                    struct.pack(">BHHH", _ATOM_CODES[a.kind], a.column, a.bits, a.total_bits)
                )
            out.append(struct.pack(">H", len(names)))
            for name in names:
                raw = name.encode("utf-8")
                out.append(struct.pack(">B", len(raw)) + raw)
        return b"".join(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "CanonicalFamily":
        """Parse a serialized family; anything malformed raises PlannerError.

        Every count is checked against the bytes that remain before it is
        used, so work and memory stay bounded by the input size.
        """
        if data[:4] != SERIAL_MAGIC:
            raise PlannerError("bad canonical family magic")
        off = 4

        def take(fmt: str) -> tuple:
            nonlocal off
            size = struct.calcsize(fmt)
            if size > len(data) - off:
                raise PlannerError("truncated canonical family")
            values = struct.unpack_from(fmt, data, off)
            off += size
            return values

        version, branching = take(">HB")
        if version != SERIAL_VERSION:
            raise PlannerError(f"unsupported canonical family version {version}")
        (n_proj,) = take(">H")
        projected = take(f">{n_proj}H")
        (n_pred,) = take(">H")
        predicates = []
        wildcard_names = []
        for _ in range(n_pred):
            (n_atoms,) = take(">H")
            atoms = []
            for _ in range(n_atoms):
                code, col, bits, total = take(">BHHH")
                if code not in _ATOM_NAMES:
                    raise PlannerError(f"unknown atom kind {code}")
                if bits > total:
                    raise PlannerError(f"atom keeps {bits} of {total} bits")
                atoms.append(Atom(_ATOM_NAMES[code], col, bits, total))
            (n_names,) = take(">H")
            names = []
            for _ in range(n_names):
                (nlen,) = take(">B")
                try:
                    names.append(take(f">{nlen}s")[0].decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise PlannerError("wildcard name is not UTF-8") from exc
            predicates.append(PredicateFn(tuple(atoms)))
            wildcard_names.append(tuple(names))
        if off != len(data):
            raise PlannerError("trailing bytes in canonical family")
        return cls(tuple(projected), tuple(predicates), tuple(wildcard_names), branching)

    @property
    def family_id(self) -> str:
        return hashlib.sha256(self.serialize()).hexdigest()[:16]


@dataclass(frozen=True)
class CanonicalView:
    """A family plus per-predicate lists of bound values (possibly empty)."""

    family: CanonicalFamily
    values: tuple[tuple[bytes, ...], ...]

    def __post_init__(self):
        if len(self.values) != self.family.n_pred:
            raise PlannerError("view values out of step with family predicates")

    @cached_property
    def _value_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(v) for v in self.values)

    def matches_row(self, row: list, schema) -> bool:
        for pred, vals in zip(self.family.predicates, self._value_sets):
            if vals and pred.evaluate(row, schema) in vals:
                return True
        return False
