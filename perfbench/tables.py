"""Inputs of the benchmark: the generated table, its families and views.

Everything here is a pure function of the seed and the row count, so the
same seed gives the same CSV files, the same partitions and the same
expected view output. The program under test only ever sees the CSV
files and `schema.json` written by `write_source`.
"""

from __future__ import annotations

import csv
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

from sealview.encoding import TYPE_INT64, TYPE_UTF8, encode_cell
from sealview.model import Column, Schema
from sealview.oracle import eval_view
from sealview.planner import parse

PARTITIONS = 8
GROUPS = 64
V_POOL = 512
LABELS = 5000
NULL_SHARE = 0.05

# Fixed keys and projection-key seed: partitions are a deterministic
# function of the data seed, so the traced chain can be compared byte
# for byte with the orchestrated run.
TABLE_KEY = bytes(range(16))
FAMILY_KEYS = {
    "eq": bytes(range(16, 32)),
    "subset": bytes(range(32, 48)),
    "range": bytes(range(48, 64)),
}
RNG_SEED = 7
TAG_LENGTH = 4
CACHE_CAPACITY = 512

SCHEMA = Schema(
    (
        Column("id", TYPE_INT64),
        Column("grp", TYPE_INT64),
        Column("v", TYPE_INT64),
        Column("label", TYPE_UTF8, nullable=True),
    )
)

FAMILY_SQL = {
    "eq": "SELECT * FROM t WHERE grp = ?x",
    "subset": "SELECT id, grp, label FROM t WHERE grp = ?g OR label = ?l",
    "range": "SELECT * FROM t WHERE v >= ?lo AND v <= ?hi",
}

# The criterion-5 window: 16 blocks of 2^24, so a 9-predicate range
# family answers it with about 16 view keys.
WINDOW_LO = 171 << 24
WINDOW_HI = (187 << 24) - 1


@dataclass
class Dataset:
    seed: int
    rows: list[list]  # in partition order
    labels: list[str]
    partitions: int

    @property
    def per_partition(self) -> int:
        return len(self.rows) // self.partitions

    def partition_rows(self, pid: int) -> list[list]:
        n = self.per_partition
        return self.rows[(pid - 1) * n : pid * n]

    def plain_bytes(self) -> int:
        """Canonical encoded size of every cell: the denominator of the
        stored-bytes and written-bytes ratios."""
        types = [c.type for c in SCHEMA.columns]
        return sum(len(encode_cell(v, t)) for row in self.rows for v, t in zip(row, types))


def generate(seed: int, n_rows: int) -> Dataset:
    if n_rows < PARTITIONS or n_rows % PARTITIONS:
        raise ValueError(f"rows must be a positive multiple of {PARTITIONS}")
    rng = random.Random(seed)
    labels: list[str] = []
    seen: set[str] = set()
    while len(labels) < LABELS:
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(4, 12)))
        if word not in seen:
            seen.add(word)
            labels.append(word)
    pool = []
    while len(pool) < V_POOL - 2:
        v = rng.randrange(0, 1 << 32)
        if not WINDOW_LO <= v <= WINDOW_HI:
            pool.append(v)
    pool += [rng.randint(WINDOW_LO, WINDOW_HI) for _ in range(2)]
    rows = [
        [
            i,
            rng.randrange(GROUPS),
            rng.choice(pool),
            None if rng.random() < NULL_SHARE else rng.choice(labels),
        ]
        for i in range(n_rows)
    ]
    return Dataset(seed, rows, labels, PARTITIONS)


def write_source(data: Dataset, src: Path) -> None:
    """The plaintext table directory the CLI's encrypt-table reads."""
    src.mkdir(parents=True)
    (src / "schema.json").write_text(json.dumps({"table": "t", "columns": SCHEMA.to_json()}))
    for pid in range(1, data.partitions + 1):
        lines = [
            ",".join("NULL" if v is None else str(v) for v in row)
            for row in data.partition_rows(pid)
        ]
        (src / f"part-{pid:05d}.csv").write_text("\n".join(lines) + "\n")


def _quoted(words) -> str:
    return ", ".join("'" + w.replace("'", "''") + "'" for w in words)


def sparse_view() -> str:
    return f"SELECT * FROM t WHERE v >= {WINDOW_LO} AND v <= {WINDOW_HI}"


def dense_view(data: Dataset) -> str:
    groups = ", ".join(str(g) for g in range(GROUPS // 2))
    return (
        f"SELECT id, grp, label FROM t WHERE grp IN ({groups}) "
        f"OR label IN ({_quoted(data.labels[:100])}) OR label = NULL"
    )


def check_views(data: Dataset) -> dict[str, str]:
    """One view per family that together reveal every row, to verify an
    ingest pass: eq opens the low half of the groups, subset the high
    half and the NULL labels."""
    low = ", ".join(str(g) for g in range(GROUPS // 2))
    high = ", ".join(str(g) for g in range(GROUPS // 2, GROUPS))
    return {
        "eq": f"SELECT * FROM t WHERE grp IN ({low})",
        "subset": f"SELECT id, grp, label FROM t WHERE grp IN ({high}) OR label = NULL",
    }


def expected(data: Dataset, view_sql: str) -> list[tuple]:
    return eval_view(SCHEMA, data.rows, view_sql)


def projected_types(view_sql: str) -> list[str]:
    stmt = parse(view_sql, "view")
    names = [c.name for c in SCHEMA.columns] if stmt.projection is None else stmt.projection
    return [SCHEMA.columns[SCHEMA.index_of(n)].type for n in names]


def read_view_csv(paths, types: list[str]) -> list[tuple]:
    """Revealed CSV partitions back into typed tuples, in file order."""
    out = []
    for path in paths:
        with open(path, newline="") as fh:
            for record in csv.reader(fh):
                if len(record) != len(types):
                    raise ValueError(f"{path}: {len(record)} fields, view has {len(types)}")
                out.append(
                    tuple(
                        None if raw == "NULL" else int(raw) if t == TYPE_INT64 else raw
                        for raw, t in zip(record, types)
                    )
                )
    return out


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).iterdir() if p.is_file())
