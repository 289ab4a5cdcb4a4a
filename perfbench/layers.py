"""Traced replay of a workload, partition by partition, through each
module's public functions.

The orchestrated run hides its layers inside worker processes, so the
traced run calls the same public functions the workers call, in one
process and in order, and records a span around each call. Spans are
named after the per-layer metric they feed. The chain must produce the
same partition bytes and the same CSV text as the orchestrated run; a
difference counts as a failed operation.

Spans belong to a phase: `setup` (operations the untraced run does
before it measures), `op` (the operations it measures) and `check`
(the verification reveals of `ingest`). A layer's metric comes from the
`op` phase when that phase calls the layer, and otherwise from `check`,
then `setup`; each is the mean over the phase's repetitions.
"""

from __future__ import annotations

import io
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import sealview.backend as backend
from sealview.backend import (
    AddFamilyStats,
    FamilyParams,
    RevealStats,
    add_family,
    encrypt_partition,
    generate_view_keys,
    reveal_partition,
)
from sealview.mep import csv_to_partition, parse_encrypted, partition_to_csv, serialize_encrypted
from sealview.orchestrator import LocalDirStorage
from sealview.planner import plan_family, plan_view

from tables import (
    CACHE_CAPACITY,
    FAMILY_KEYS,
    FAMILY_SQL,
    RNG_SEED,
    SCHEMA,
    TABLE_KEY,
    TAG_LENGTH,
)

FAMILIES = ("eq", "subset", "range")

PER_LAYER_UNITS = {
    "orchestrator.storage_get_s": "s",
    "orchestrator.storage_put_s": "s",
    "orchestrator.storage_renames": "count",
    "orchestrator.bytes_written_per_plain_byte": "ratio",
    "orchestrator.parallel_efficiency": "ratio",
    "mep.parse_s": "s",
    "mep.serialize_s": "s",
    "mep.csv_ingest_s": "s",
    "mep.csv_egress_s": "s",
    "backend.encrypt_partition_s": "s",
    **{f"backend.add_family_s.{f}": "s" for f in FAMILIES},
    **{f"backend.selection_cache_hit_ratio.{f}": "ratio" for f in FAMILIES},
    **{f"backend.selection_cache_hits.{f}": "count" for f in FAMILIES},
    **{f"backend.selection_cache_misses.{f}": "count" for f in FAMILIES},
    "backend.reveal_partition_s": "s",
    "backend.reveal_crypto_s": "s",
    "backend.tag_scan_s": "s",
    "backend.rows_scanned": "count",
    "backend.tag_hits": "count",
    "backend.decrypt_attempts": "count",
    "backend.rows_emitted": "count",
    "backend.tag_false_positive_ratio": "ratio",
    "planner.plan_family_s": "s",
    "planner.plan_view_s": "s",
    "planner.predicates": "count",
    "planner.view_values": "count",
    "backend.generate_view_keys_s": "s",
    "backend.view_keys": "count",
    "primitives.key_schedule_us": "us",
    "primitives.prf_us": "us",
    "primitives.mac_us": "us",
    "primitives.ctr_us": "us",
    "primitives.key_schedules_per_row": "count/row",
    "trace.storage_io_s": "s",
    "trace.chain_s": "s",
    "trace.coverage": "ratio",
}

_PHASE_ORDER = ("op", "check", "setup")


class Tracer:
    """In-memory spans (name, start, end, parent, phase) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.runs: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        phase = self.spans[self._stack[0]][0] if self._stack else name
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, phase])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def phase(self, name: str):
        self.runs[name] += 1
        with self.span(name):
            yield

    def count(self, name: str, n: float) -> None:
        self.counts[(self.spans[self._stack[0]][0], name)] += n

    def self_times(self) -> dict[tuple[str, str], float]:
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            if parent is not None:
                out[(phase, name)] += end - start - child_time[i]
        return out

    def phase_wall(self, phase: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] is None and s[0] == phase)

    def coverage(self) -> float:
        roots = sum(s[2] - s[1] for s in self.spans if s[3] is None)
        return sum(self.self_times().values()) / roots if roots else 0.0


class CountingStorage(LocalDirStorage):
    """LocalDirStorage that times gets and puts and counts renames."""

    def __init__(self, root):
        super().__init__(root)
        self._lock = threading.Lock()
        self.get_s = 0.0
        self.put_s = 0.0
        self.renames = 0
        self.bytes_put = 0

    def get(self, name):
        t0 = time.perf_counter()
        try:
            return super().get(name)
        finally:
            with self._lock:
                self.get_s += time.perf_counter() - t0

    def put(self, name, data):
        t0 = time.perf_counter()
        try:
            super().put(name, data)
        finally:
            with self._lock:
                self.put_s += time.perf_counter() - t0
                self.bytes_put += len(data)

    def rename(self, src, dst):
        with self._lock:
            self.renames += 1
        super().rename(src, dst)


@contextmanager
def counting_key_schedules(tr: Tracer):
    """Count BlockCipher constructions made from sealview.backend."""
    original = backend.BlockCipher

    class Counted(original):
        __slots__ = ()

        def __init__(self, key):
            tr.count("primitives.key_schedules", 1)
            super().__init__(key)

    backend.BlockCipher = Counted
    try:
        yield
    finally:
        backend.BlockCipher = original


def partition_blobs(root: Path) -> list[bytes]:
    """Every stored file of a table except its manifest, sorted."""
    return sorted(p.read_bytes() for p in Path(root).iterdir() if p.name != "manifest.json")


def owner_chain(tr: Tracer, src: Path, root: Path, families) -> dict:
    """encrypt-table, then add-family per family, as public calls."""
    storage = LocalDirStorage(root)
    names = {}
    for path in sorted(Path(src).glob("part-*.csv")):
        pid = int(path.stem.split("-", 1)[1])
        names[pid] = f"p{pid}"
        with tr.span("trace.storage_io_s"):
            text = path.read_text()
        with tr.span("mep.csv_ingest_s"):
            plain = csv_to_partition(text, SCHEMA, pid)
        tr.count("rows", len(plain.rows))
        with tr.span("backend.encrypt_partition_s"):
            part = encrypt_partition(plain, SCHEMA, TABLE_KEY)
        with tr.span("mep.serialize_s"):
            blob = serialize_encrypted(part, SCHEMA)
        with tr.span("trace.storage_io_s"):
            storage.put(names[pid], blob)

    planned = {}
    params = FamilyParams(tag_length=TAG_LENGTH, cache_capacity=CACHE_CAPACITY, rng_seed=RNG_SEED)
    for fam in families:
        with tr.span("planner.plan_family_s"):
            family = plan_family(FAMILY_SQL[fam], SCHEMA)
        tr.count("planner.predicates", family.n_pred)
        planned[fam] = family
        for pid, name in names.items():
            with tr.span("trace.storage_io_s"):
                blob = storage.get(name)
            with tr.span("mep.parse_s"):
                part = parse_encrypted(blob, SCHEMA)
            stats = AddFamilyStats()
            with tr.span(f"backend.add_family_s.{fam}"):
                add_family(part, SCHEMA, TABLE_KEY, family, FAMILY_KEYS[fam], params, stats)
            tr.count(f"backend.selection_cache_hits.{fam}", stats.cache_hits)
            tr.count(f"backend.selection_cache_misses.{fam}", stats.cache_misses)
            with tr.span("mep.serialize_s"):
                blob = serialize_encrypted(part, SCHEMA)
            with tr.span("trace.storage_io_s"):
                storage.put(name, blob)
    return planned


def view_gen_chain(tr: Tracer, fam: str, family, view_sql: str):
    with tr.span("planner.plan_view_s"):
        view = plan_view(view_sql, family, SCHEMA)
    tr.count("planner.view_values", sum(len(v) for v in view.values))
    with tr.span("backend.generate_view_keys_s"):
        keys = generate_view_keys(view, FAMILY_KEYS[fam], tag_length=TAG_LENGTH)
    tr.count("backend.view_keys", keys.total_keys())
    return keys


def reveal_chain(tr: Tracer, root: Path, family, keys) -> list[str]:
    """reveal-view as public calls; returns the CSV text per partition."""
    storage = LocalDirStorage(root)
    texts = []
    for name in sorted(storage.list_files(), key=lambda n: int(n[1:])):
        with tr.span("trace.storage_io_s"):
            blob = storage.get(name)
        with tr.span("mep.parse_s"):
            part = parse_encrypted(blob, SCHEMA)
        stats = RevealStats()
        with tr.span("backend.reveal_partition_s"):
            rows = reveal_partition(part, SCHEMA, family, keys, stats=stats)
        with tr.span("mep.csv_egress_s"):
            out = io.StringIO()
            partition_to_csv(rows, out)
            texts.append(out.getvalue())
        tr.count("backend.reveal_crypto_s", stats.crypto_seconds)
        tr.count("backend.rows_scanned", stats.rows_scanned)
        tr.count("backend.tag_hits", stats.tag_hits)
        tr.count("backend.decrypt_attempts", stats.decrypt_attempts)
        tr.count("decrypt_successes", stats.decrypt_successes)
        tr.count("backend.rows_emitted", stats.rows_emitted)
    return texts


def layer_metrics(tr: Tracer, storage: CountingStorage, orchestrated_runs: int,
                  orchestrated_wall: float, plain_bytes: int, workers: int) -> dict[str, float]:
    """Every per-layer metric; `storage` counted `orchestrated_runs` runs
    of the measured operation, whose median wall was `orchestrated_wall`."""
    times = tr.self_times()

    def resolve(name: str) -> float:
        """Mean per repetition, from the first phase that recorded `name`."""
        for phase in _PHASE_ORDER:
            for table in (times, tr.counts):
                if (phase, name) in table:
                    return table[(phase, name)] / tr.runs[phase]
        return 0.0

    m = {name: resolve(name) for name in PER_LAYER_UNITS}
    for fam in FAMILIES:
        hits = m[f"backend.selection_cache_hits.{fam}"]
        base = hits + m[f"backend.selection_cache_misses.{fam}"]
        m[f"backend.selection_cache_hit_ratio.{fam}"] = hits / base if base else 0.0
    m["backend.tag_scan_s"] = m["backend.reveal_partition_s"] - m["backend.reveal_crypto_s"]
    attempts = m["backend.decrypt_attempts"]
    misses = attempts - resolve("decrypt_successes")
    m["backend.tag_false_positive_ratio"] = misses / attempts if attempts else 0.0
    m["orchestrator.storage_get_s"] = storage.get_s / orchestrated_runs
    m["orchestrator.storage_put_s"] = storage.put_s / orchestrated_runs
    m["orchestrator.storage_renames"] = storage.renames / orchestrated_runs
    m["orchestrator.bytes_written_per_plain_byte"] = storage.bytes_put / orchestrated_runs / plain_bytes
    chain = tr.phase_wall("op") / tr.runs["op"]
    m["trace.chain_s"] = chain
    m["orchestrator.parallel_efficiency"] = chain / (workers * orchestrated_wall)
    m["primitives.key_schedules_per_row"] = resolve("primitives.key_schedules") / resolve("rows")
    m["trace.coverage"] = tr.coverage()
    return m
