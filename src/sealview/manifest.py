"""Table manifest: schema, partition census, generation, and
instantiated families.

The manifest names the table's live generation: every partition is
stored as `part-%05d.g<generation>.mep`, so putting the manifest is what
commits a table operation. The parser accepts only well-typed version 2
documents and raises `ManifestError` for anything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .model import Schema, SchemaError
from .planner.canonical import CanonicalFamily
from .planner.errors import PlannerError

MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"


class ManifestError(Exception):
    pass


def _field(doc: dict, key: str, kind: type, where: str):
    """doc[key], which must be present and exactly of type `kind` (so a
    bool is not an int)."""
    if key not in doc:
        raise ManifestError(f"{where} lacks {key!r}")
    value = doc[key]
    if type(value) is not kind:
        raise ManifestError(f"{where} field {key!r} must be of type {kind.__name__}")
    return value


def _int_field(doc: dict, key: str, where: str, lo: int, hi: int | None = None) -> int:
    value = _field(doc, key, int, where)
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ManifestError(f"{where} field {key!r} must be {bound}, got {value}")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ManifestError(f"{where} must be a JSON object")
    return value


def _schema(doc: dict) -> Schema:
    columns = _field(doc, "schema", list, "manifest")
    for column in columns:
        column = _object(column, "schema column")
        _field(column, "name", str, "schema column")
        _field(column, "type", str, "schema column")
        if "nullable" in column:
            _field(column, "nullable", bool, "schema column")
    try:
        return Schema.from_json(columns)
    except SchemaError as exc:
        raise ManifestError(f"bad manifest schema: {exc}") from exc


@dataclass
class FamilyRecord:
    family_id: str
    family: CanonicalFamily
    tag_length: int
    branching_bits: int

    def to_json(self) -> dict:
        return {
            "family_id": self.family_id,
            "canonical": self.family.serialize().hex(),
            "tag_length_bytes": self.tag_length,
            "branching_factor_bits": self.branching_bits,
        }

    @classmethod
    def from_json(cls, data) -> "FamilyRecord":
        data = _object(data, "family record")
        family_id = _field(data, "family_id", str, "family record")
        canonical = _field(data, "canonical", str, "family record")
        try:
            family = CanonicalFamily.deserialize(bytes.fromhex(canonical))
        except (ValueError, PlannerError) as exc:
            raise ManifestError(f"family {family_id}: bad canonical form ({exc})") from exc
        if family.family_id != family_id:
            raise ManifestError(f"family {family_id}: id does not match its canonical form")
        return cls(
            family_id=family_id,
            family=family,
            tag_length=_int_field(data, "tag_length_bytes", "family record", 1, 16),
            branching_bits=_int_field(data, "branching_factor_bits", "family record", 1),
        )


@dataclass
class TableManifest:
    name: str
    schema: Schema
    partitions: list[tuple[int, int]]  # (partition_id, row_count)
    families: list[FamilyRecord] = field(default_factory=list)
    generation: int = 0  # every partition file carries it in its name

    def __post_init__(self):
        ids = [pid for pid, _ in self.partitions]
        if len(set(ids)) != len(ids):
            raise ManifestError("duplicate partition ids")
        if any(pid < 1 for pid in ids):
            raise ManifestError("partition ids start at 1")
        seen = set()
        for rec in self.families:
            if rec.family_id in seen:
                raise ManifestError(f"duplicate family id {rec.family_id}")
            seen.add(rec.family_id)
            n_cols = len(self.schema)
            used = rec.family.where_columns() | set(rec.family.projected)
            if any(c >= n_cols for c in used):
                raise ManifestError("family references a column outside the schema")

    def family(self, family_id: str) -> FamilyRecord:
        for rec in self.families:
            if rec.family_id == family_id:
                return rec
        raise ManifestError(f"unknown family id {family_id}")

    def to_json(self) -> str:
        doc = {
            "format_version": MANIFEST_VERSION,
            "table": self.name,
            "schema": self.schema.to_json(),
            "generation": self.generation,
            "partitions": [{"id": pid, "rows": rows} for pid, rows in self.partitions],
            "families": [rec.to_json() for rec in self.families],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "TableManifest":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
        doc = _object(doc, "manifest")
        version = doc.get("format_version")
        if type(version) is not int or version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {version!r}; this build reads version "
                f"{MANIFEST_VERSION}"
            )
        partitions = []
        for entry in _field(doc, "partitions", list, "manifest"):
            entry = _object(entry, "partition entry")
            partitions.append(
                (
                    _int_field(entry, "id", "partition entry", 1),
                    _int_field(entry, "rows", "partition entry", 0),
                )
            )
        return cls(
            name=_field(doc, "table", str, "manifest"),
            schema=_schema(doc),
            partitions=partitions,
            families=[FamilyRecord.from_json(f) for f in _field(doc, "families", list, "manifest")],
            generation=_int_field(doc, "generation", "manifest", 0),
        )
