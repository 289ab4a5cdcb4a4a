"""Table schema and in-memory partition representations."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain

from .encoding import TYPE_INT64, TYPE_UTF8


MAX_PARTITION_ID = 2**32 - 1  # MEP2 stores the id as a u32
MAX_COLUMNS = 2**16 - 1  # MEP2 stores the column count as a u16
MAX_NAME_BYTES = 2**16 - 1  # and each column name's UTF-8 length as a u16


class SchemaError(ValueError):
    pass


class PartitionFormatError(Exception):
    """A malformed partition file, or a cell offset read from one."""


_OFFSETS_OUT_OF_ORDER = "cell end offsets are not non-decreasing"


def utf8_name(name: str, what: str) -> bytes:
    """`name` in UTF-8; a string UTF-8 cannot encode (a lone surrogate)
    raises SchemaError naming `what`."""
    try:
        return name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(f"{what} {name!r} is not valid UTF-8 text") from exc


def _check_partition_id(partition_id: int) -> None:
    if not 1 <= partition_id <= MAX_PARTITION_ID:
        raise SchemaError(f"partition ids must be in 1..{MAX_PARTITION_ID}, got {partition_id}")


@dataclass(frozen=True)
class Column:
    name: str
    type: str
    nullable: bool = False

    def __post_init__(self):
        if not self.name:
            raise SchemaError("column name must be non-empty")
        size = len(utf8_name(self.name, "schema column name"))
        if size > MAX_NAME_BYTES:
            raise SchemaError(f"schema column name is {size} UTF-8 bytes; the limit is {MAX_NAME_BYTES}")
        if self.type not in (TYPE_INT64, TYPE_UTF8):
            raise SchemaError(f"unknown column type {self.type!r}")


@dataclass(frozen=True)
class Schema:
    columns: tuple[Column, ...]

    def __post_init__(self):
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        if len(self.columns) > MAX_COLUMNS:
            raise SchemaError(f"schema has {len(self.columns)} columns; the limit is {MAX_COLUMNS}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")

    def index_of(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise SchemaError(f"no column named {name!r}")

    def __len__(self) -> int:
        return len(self.columns)

    def to_json(self) -> list[dict]:
        return [
            {"name": c.name, "type": c.type, "nullable": c.nullable} for c in self.columns
        ]

    @classmethod
    def from_json(cls, data) -> "Schema":
        """Parse a column list: JSON objects, each with a str "name", a str
        "type" and an optional bool "nullable". Anything else raises
        SchemaError."""
        if not isinstance(data, list):
            raise SchemaError("schema columns must be a JSON list")
        columns = []
        for d in data:
            if not isinstance(d, dict):
                raise SchemaError("schema column must be a JSON object")
            name, ctype, nullable = d.get("name"), d.get("type"), d.get("nullable", False)
            if type(name) is not str or type(ctype) is not str or type(nullable) is not bool:
                raise SchemaError(
                    "schema column needs a str 'name', a str 'type' and an optional bool 'nullable'"
                )
            columns.append(Column(name, ctype, nullable))
        return cls(tuple(columns))


@dataclass
class PlainPartition:
    """Rows of decoded cell values (int, str, or None per column)."""

    partition_id: int
    rows: list[list]

    def __post_init__(self):
        _check_partition_id(self.partition_id)


class CellColumn(Sequence):
    """One column's variable-length cells, stored as in the file.

    `data` holds the cells back to back and `ends[r]` is the end offset of
    row r's cell within it, so any cell is one slice away.

    A column built in this process (`from_sizes`, `from_cells`) is in
    order by construction, so it is `checked` and never checked again.
    One taken from a partition file is not: reading one of its cells
    checks that cell's two offsets, and a reader of the whole column
    (iteration, serialization) checks every offset once (`check`) and
    remembers it. A read that meets an offset out of order, or past the
    column's end, raises PartitionFormatError, so a reader pays only
    for the offsets of the cells it reads.
    """

    __slots__ = ("data", "ends", "checked")

    def __init__(self, data: bytes, ends: Sequence[int], checked: bool = False):
        if (ends[-1] if ends else 0) != len(data):
            raise SchemaError("cell offsets do not cover the column bytes")
        self.data = data
        self.ends = ends
        self.checked = checked

    @classmethod
    def from_sizes(cls, data: bytes, sizes: Iterable[int]) -> "CellColumn":
        """The column of `data`, cut into cells of `sizes` bytes in turn."""
        return cls(data, tuple(accumulate(sizes)), checked=True)

    @classmethod
    def from_cells(cls, cells: list[bytes]) -> "CellColumn":
        return cls.from_sizes(b"".join(cells), map(len, cells))

    def check(self) -> None:
        """Check every end offset once: non-decreasing from 0. The last is
        the column's length, so none lies past its end."""
        if not self.checked:
            ends = list(self.ends)
            if ends != sorted(ends) or (ends and ends[0] < 0):
                raise PartitionFormatError(_OFFSETS_OUT_OF_ORDER)
            self.checked = True

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, r0: int) -> bytes:
        ends = self.ends
        if not -len(ends) <= r0 < len(ends):
            raise IndexError("cell index out of range")
        r0 %= len(ends)
        start, end = ends[r0 - 1] if r0 else 0, ends[r0]
        if not (self.checked or 0 <= start <= end <= len(self.data)):
            raise PartitionFormatError(_OFFSETS_OUT_OF_ORDER)
        return self.data[start:end]

    def __iter__(self):
        self.check()
        ends = self.ends
        return map(self.data.__getitem__, map(slice, chain((0,), ends), ends))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellColumn):
            return NotImplemented
        return self.data == other.data and tuple(self.ends) == tuple(other.ends)


class FixedWidthColumn(Sequence):
    """Per-row entries of one width, stored back to back in `data`."""

    __slots__ = ("data", "width")

    def __init__(self, data: bytes, width: int):
        if width < 0 or (len(data) % width if width else len(data)):
            raise SchemaError("column bytes are not a whole number of entries")
        self.data = data
        self.width = width

    @classmethod
    def from_entries(cls, entries: list[bytes]) -> "FixedWidthColumn":
        width = len(entries[0]) if entries else 0
        data = b"".join(entries)
        if len(data) != width * len(entries):
            raise SchemaError("family column entries must be fixed-width")
        return cls(data, width)

    def __len__(self) -> int:
        return len(self.data) // self.width if self.width else 0

    def __getitem__(self, r0: int) -> bytes:
        n = len(self)
        if not -n <= r0 < n:
            raise IndexError("entry index out of range")
        off = (r0 % n) * self.width
        return self.data[off : off + self.width]

    def __iter__(self):
        w, data = self.width, self.data
        return (data[off : off + w] for off in range(0, len(data), w or 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FixedWidthColumn):
            return NotImplemented
        return self.data == other.data and len(self) == len(other)


@dataclass
class FamilyColumns:
    """One family's projection / selection / tagging columns, one entry per row."""

    projection: FixedWidthColumn
    selection: FixedWidthColumn
    tagging: FixedWidthColumn

    def row_count(self) -> int:
        return len(self.projection)


@dataclass
class EncryptedPartition:
    """Per-cell ciphertexts, column by column, plus each instantiated family."""

    partition_id: int
    columns: list[CellColumn]
    families: dict[str, FamilyColumns] = field(default_factory=dict)

    def __post_init__(self):
        _check_partition_id(self.partition_id)
        if len({len(col) for col in self.columns}) > 1:
            raise SchemaError("cell columns differ in length")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def rows(self) -> list[list[bytes]]:
        """Row-major copy of the cells; the protocol reads columns directly."""
        return [list(row) for row in zip(*self.columns)]
