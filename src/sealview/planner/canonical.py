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

from ..encoding import TYPE_UTF8, ByteReader, encode_cell, int64_to_unsigned
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

# A family's branching factor is 2^b for a b that divides the 64-bit
# integer domain; each such b also divides the 256-bit hash domain.
BRANCHING_BITS = (1, 2, 4, 8, 16, 32, 64)


def check_branching_bits(bits: int) -> None:
    if bits not in BRANCHING_BITS:
        raise PlannerError(f"branching bits must be 1, 2, 4, 8, 16, 32 or 64, got {bits}")


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

    def point(self, value) -> int:
        """A non-NULL value's place in an ordered atom's domain: the
        order-preserving unsigned Int64, or the hash of the Utf8 cell."""
        if self.kind == ATOM_TOP_BITS:
            return int64_to_unsigned(value)
        return hash_string(encode_cell(value, TYPE_UTF8))

    def evaluate(self, value, column_type: str) -> bytes:
        if self.kind == ATOM_FIELD:
            return encode_cell(value, column_type)
        if value is None:
            return ABSENT
        return prefix_value(self.point(value) >> (self.total_bits - self.bits), self.bits)

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


@dataclass(frozen=True)
class CanonicalFamily:
    projected: tuple[int, ...]
    predicates: tuple[PredicateFn, ...]
    wildcard_names: tuple[tuple[str, ...], ...]  # per predicate, contributing wildcards
    branching_bits: int

    def __post_init__(self):
        if not self.projected:
            raise PlannerError("canonical family needs at least one projected column")
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
        """Parse a serialized family; anything malformed raises PlannerError."""
        rd = ByteReader(data, PlannerError, "canonical family")
        rd.header(SERIAL_MAGIC, SERIAL_VERSION)
        (branching,) = rd.unpack(">B")
        check_branching_bits(branching)
        (n_proj,) = rd.unpack(">H")
        projected = rd.unpack(f">{n_proj}H")
        (n_pred,) = rd.unpack(">H")
        predicates = []
        wildcard_names = []
        for _ in range(n_pred):
            (n_atoms,) = rd.unpack(">H")
            atoms = []
            for _ in range(n_atoms):
                code, col, bits, total = rd.unpack(">BHHH")
                if code not in _ATOM_NAMES:
                    raise PlannerError(f"unknown atom kind {code}")
                if bits > total:
                    raise PlannerError(f"atom keeps {bits} of {total} bits")
                atoms.append(Atom(_ATOM_NAMES[code], col, bits, total))
            (n_names,) = rd.unpack(">H")
            names = []
            for _ in range(n_names):
                (nlen,) = rd.unpack(">B")
                try:
                    names.append(rd.take(nlen).decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise PlannerError("wildcard name is not UTF-8") from exc
            predicates.append(PredicateFn(tuple(atoms)))
            wildcard_names.append(tuple(names))
        rd.end()
        return cls(projected, tuple(predicates), tuple(wildcard_names), branching)

    @cached_property
    def family_id(self) -> str:
        """The family's name, hashed once per object: the class is frozen,
        so its serialization cannot change."""
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
