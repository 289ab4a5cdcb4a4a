"""Table-level driver: storage, one partition-map driver, and the four
table operations.

Every table operation maps its partitions through `_map_partitions`.
The operation's constant inputs (schema, keys, family, storage and
generation) form its context, which each process pool worker receives
once, when it starts; a task then names only the partition (a source
path for encrypt-table). The worker reads the partition itself and
returns the result; this process stores every result, in partition
order, and commits. With one worker, or one partition, the same worker
body runs inline on the same context. A table's directory holds
`manifest.json` plus one `part-%05d.g<N>.mep` file per partition, where
N is the table-wide generation the manifest records. The manifest put is
the only commit:

- encrypt-table writes generation 0, then the manifest;
- add-family reads generation g, writes every partition at g+1, then
  puts the manifest naming g+1 and the new family; last, it deletes
  every partition file the manifest does not name.

A crash before the manifest put leaves the table at g, and a rerun
overwrites the orphaned g+1 files; a crash after it leaves the table at
g+1, and the next add-family deletes what the crash left behind. The
cleanup is best effort: once the manifest is put, a failed delete is
left for the next commit and does not fail the operation.
"""

from __future__ import annotations

import io
import json
import os
import re
import secrets
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .backend import (
    FamilyParams,
    ViewKeySet,
    add_family,
    encrypt_partition,
    generate_view_keys,
    reveal_partition,
)
from .manifest import MANIFEST_NAME, FamilyRecord, ManifestError, TableManifest
from .mep import (
    csv_to_partition,
    decode_csv,
    parse_encrypted,
    parse_plain,
    partition_to_csv,
    serialize_encrypted,
)
from .model import PlainPartition, Schema, SchemaError
from .planner import plan_family, plan_view

PARTITION_NAME = "part-%05d.g%d.mep"
PARTITION_FILE = re.compile(r"part-\d+\.g\d+\.mep")
VIEW_PARTITION_NAME = "view-part-%05d.csv"
HTTP_TOKEN_ENV = "SEALVIEW_STORAGE_TOKEN"


class StorageError(Exception):
    pass


class OrchestratorError(Exception):
    pass


class Storage:
    """Whole-file get/put/delete plus listing; puts are atomic per file."""

    def list_files(self) -> list[str]:
        raise NotImplementedError

    def get(self, name: str) -> bytes:
        raise NotImplementedError

    def put(self, name: str, data: bytes) -> None:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove a file; a missing file is not an error."""
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        return name in self.list_files()


class LocalDirStorage(Storage):
    def __init__(self, root: str | Path):
        self.root = Path(root)

    def list_files(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_file())

    def get(self, name: str) -> bytes:
        try:
            return (self.root / name).read_bytes()
        except FileNotFoundError as exc:
            raise StorageError(f"missing file {name!r} in {self.root}") from exc

    def put(self, name: str, data: bytes) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / (name + ".inflight")
        tmp.write_bytes(data)
        os.replace(tmp, self.root / name)

    def exists(self, name: str) -> bool:
        return (self.root / name).is_file()

    def delete(self, name: str) -> None:
        try:
            (self.root / name).unlink()
        except FileNotFoundError:
            pass


class MemoryStorage(Storage):
    """Dict-backed storage for tests and in-memory benchmark tables."""

    def __init__(self):
        self.files: dict[str, bytes] = {}

    def list_files(self) -> list[str]:
        return sorted(self.files)

    def get(self, name: str) -> bytes:
        try:
            return self.files[name]
        except KeyError as exc:
            raise StorageError(f"missing file {name!r}") from exc

    def put(self, name: str, data: bytes) -> None:
        self.files[name] = data

    def exists(self, name: str) -> bool:
        return name in self.files

    def delete(self, name: str) -> None:
        self.files.pop(name, None)


class HttpStorage(Storage):
    """Object-store endpoint speaking plain GET/PUT/DELETE per file.

    Listing is a GET of the base URL returning a JSON array of names.
    A bearer token is read from the environment, never from arguments.
    The storage holds no module or session, so it pickles, and a pool
    worker started by any method can read through it.
    """

    def __init__(self, base_url: str):
        import requests  # noqa: F401  (fail here, not at the first request, if it is missing)

        self.base_url = base_url.rstrip("/")
        self._headers = {}
        token = os.environ.get(HTTP_TOKEN_ENV)
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    def list_files(self) -> list[str]:
        import requests

        resp = requests.get(self.base_url + "/", headers=self._headers, timeout=60)
        if resp.status_code != 200:
            raise StorageError(f"list failed with status {resp.status_code}")
        return sorted(resp.json())

    def get(self, name: str) -> bytes:
        import requests

        resp = requests.get(f"{self.base_url}/{name}", headers=self._headers, timeout=300)
        if resp.status_code != 200:
            raise StorageError(f"get {name!r} failed with status {resp.status_code}")
        return resp.content

    def put(self, name: str, data: bytes) -> None:
        import requests

        resp = requests.put(
            f"{self.base_url}/{name}", data=data, headers=self._headers, timeout=300
        )
        if resp.status_code not in (200, 201, 204):
            raise StorageError(f"put {name!r} failed with status {resp.status_code}")

    def delete(self, name: str) -> None:
        import requests

        resp = requests.delete(f"{self.base_url}/{name}", headers=self._headers, timeout=60)
        if resp.status_code not in (200, 202, 204, 404):
            raise StorageError(f"delete {name!r} failed with status {resp.status_code}")


def open_storage(locator: str | Path) -> Storage:
    text = str(locator)
    if text.startswith(("http://", "https://")):
        return HttpStorage(text)
    return LocalDirStorage(text)


@dataclass
class OrchestratorConfig:
    workers: int = 0  # 0 means one per CPU

    def __post_init__(self):
        if self.workers == 0:
            self.workers = os.cpu_count() or 1
        if self.workers < 1:
            raise OrchestratorError("workers must be >= 1")


@dataclass
class PartitionStats:
    """One partition's counters; those its operation does not produce stay 0."""

    pid: int
    rows: int = 0
    plain_bytes: int = 0
    rows_emitted: int = 0
    input_bytes: int = 0  # bytes of the partition's input file, as read
    read_seconds: float = 0.0  # time the read took, in the process that read it


@dataclass
class RunReport:
    """Totals of one table operation's partition map.

    `input_bytes` and `fetch_seconds` sum the partitions' `input_bytes`
    and `read_seconds`: the reads (storage gets or local source files)
    happen wherever the partition is worked on, so with a pool the read
    time is the workers' and overlaps other partitions' work. The other
    two stage timers are measured in the driving process:
    `compute_seconds` is time spent running the partition work inline,
    less its read, or waiting for a worker's result (a pool, so work
    that overlaps storing is not in it); `store_seconds` is time spent
    writing results (storage puts or local CSV files). `output_bytes`
    sums the byte lengths of the stored results. `wall_seconds` spans the
    whole map, and `stats` holds one `PartitionStats` per partition, in
    partition order.
    """

    partitions: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    fetch_seconds: float = 0.0
    compute_seconds: float = 0.0
    store_seconds: float = 0.0
    wall_seconds: float = 0.0
    stats: list[PartitionStats] = field(default_factory=list)


_worker_task = None  # in a pool worker: the (work, context) of its operation


def _start_worker(work, context) -> None:
    global _worker_task
    _worker_task = (work, context)


def _run_task(item):
    work, context = _worker_task
    return work(context, item)


def _map_partitions(items, work, context, store, workers: int, report: RunReport) -> None:
    """store(*work(context, item)) for every item, stored in item order.

    `work` is a module-level worker body that reads the item's input
    itself and returns its `PartitionStats` and its output; `context`
    holds the operation's constant inputs. One item, or one worker, runs
    inline. Otherwise a process pool of at most one worker per item
    starts, each worker receiving `work` and `context` once (inherited
    under fork, pickled under other start methods), and a task carries
    only its item. At most 2 * workers tasks are in flight, and on any
    error the pool is shut down with its queued tasks cancelled. Every
    `store` call runs in this process, in item order, so the results
    are written, and the caller commits, in one place.
    """
    clock = time.perf_counter
    started = clock()
    workers = min(workers, len(items))
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(work, context))
    in_flight: deque = deque()  # futures with a pool, items without

    def store_oldest():
        t0 = clock()
        head = in_flight.popleft()
        stats, out = head.result() if pool else work(context, head)
        t1 = clock()
        store(stats, out)
        report.stats.append(stats)
        report.input_bytes += stats.input_bytes
        report.fetch_seconds += stats.read_seconds
        report.output_bytes += len(out)
        # Inline, the read ran here, and it is fetch time, not compute time.
        report.compute_seconds += t1 - t0 - (0.0 if pool else stats.read_seconds)
        report.store_seconds += clock() - t1

    try:
        for item in items:
            in_flight.append(pool.submit(_run_task, item) if pool else item)
            if len(in_flight) >= (2 * workers if pool else 1):
                store_oldest()
        while in_flight:
            store_oldest()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    report.partitions = len(items)
    report.wall_seconds += clock() - started


def partition_name(pid: int, generation: int) -> str:
    return PARTITION_NAME % (pid, generation)


def load_manifest(storage: Storage) -> TableManifest:
    if not storage.exists(MANIFEST_NAME):
        raise OrchestratorError("no manifest.json at the storage root")
    return TableManifest.from_json(storage.get(MANIFEST_NAME))


def _commit(storage: Storage, manifest: TableManifest) -> None:
    """Put the manifest (the commit), then delete every partition file
    it does not name. A storage failure in that cleanup cannot undo the
    commit, so it is not raised: the next commit deletes what is left."""
    storage.put(MANIFEST_NAME, manifest.to_json().encode("utf-8"))
    live = {partition_name(pid, manifest.generation) for pid, _ in manifest.partitions}
    try:
        names = storage.list_files()
    except (StorageError, OSError):
        return
    for name in names:
        if PARTITION_FILE.fullmatch(name) and name not in live:
            try:
                storage.delete(name)
            except (StorageError, OSError):
                pass


def _apply_filter(manifest: TableManifest, fil: tuple[int, int] | None) -> list[int]:
    ids = [pid for pid, _ in manifest.partitions]
    if fil is None:
        return ids
    lo, hi = fil
    chosen = [pid for pid in ids if lo <= pid <= hi]
    if not chosen:
        raise OrchestratorError(f"partition filter {lo}:{hi} matches nothing")
    return chosen


# ------------------------------------------------------------ worker bodies


def _read(pid: int, read, *args) -> tuple[PartitionStats, bytes]:
    """read(*args), timed: the partition's stats, holding the bytes read
    and the time the read took, and the bytes."""
    t0 = time.perf_counter()
    data = read(*args)
    return PartitionStats(pid, input_bytes=len(data), read_seconds=time.perf_counter() - t0), data


def _encrypt_worker(context, source) -> tuple[PartitionStats, bytes]:
    schema, table_key = context
    pid, _, path = source
    stats, payload = _read(pid, path.read_bytes)
    enc_part = encrypt_partition(parse_plain_source(source, payload, schema), schema, table_key)
    stats.rows = enc_part.n_rows
    # One-time encryption preserves length, so the ciphertexts measure the plaintext.
    stats.plain_bytes = sum(len(column.data) for column in enc_part.columns)
    return stats, serialize_encrypted(enc_part, schema)


def _add_family_worker(context, pid: int) -> tuple[PartitionStats, bytes]:
    storage, generation, schema, table_key, family, family_key, params = context
    stats, payload = _read(pid, storage.get, partition_name(pid, generation))
    enc_part = parse_encrypted(payload, schema)
    if enc_part.partition_id != pid:
        raise OrchestratorError(f"partition file {pid} carries id {enc_part.partition_id}")
    add_family(enc_part, schema, table_key, family, family_key, params)
    stats.rows = enc_part.n_rows
    return stats, serialize_encrypted(enc_part, schema)


def _reveal_worker(context, pid: int) -> tuple[PartitionStats, bytes]:
    storage, generation, schema, family, view_keys = context
    stats, payload = _read(pid, storage.get, partition_name(pid, generation))
    enc_part = parse_encrypted(payload, schema)
    rows = reveal_partition(enc_part, schema, family, view_keys)
    out = io.StringIO()
    partition_to_csv(rows, out)
    stats.rows_emitted = len(rows)
    return stats, out.getvalue().encode("utf-8")


# -------------------------------------------------------- table operations


def discover_plain_partitions(src: Path) -> list[tuple[int, str, Path]]:
    """Find part-*.csv / part-*.mep files; the number in the name is the id."""
    found = {}
    for path in sorted(Path(src).iterdir()):
        stem, suffix = path.stem, path.suffix.lower()
        if not stem.startswith("part-") or suffix not in (".csv", ".mep"):
            continue
        try:
            pid = int(stem.split("-", 1)[1])
        except ValueError:
            continue
        if pid in found:
            raise OrchestratorError(f"duplicate partition id {pid} in {src}")
        found[pid] = (pid, suffix[1:], path)
    if not found:
        raise OrchestratorError(f"no part-*.csv or part-*.mep files in {src}")
    return [found[pid] for pid in sorted(found)]


def parse_plain_source(
    source: tuple[int, str, Path], payload: bytes, schema: Schema
) -> PlainPartition:
    """The plaintext partition in `payload`, the bytes of a source file
    that `discover_plain_partitions` found: a CSV, or a plain MEP2 file,
    which must carry the id in its name."""
    pid, kind, path = source
    if kind == "csv":
        return csv_to_partition(decode_csv(payload, str(path)), schema, pid)
    _, plain = parse_plain(payload, schema)
    if plain.partition_id != pid:
        raise OrchestratorError(f"partition file {pid} carries id {plain.partition_id}")
    return plain


def parse_schema_descriptor(data: bytes, default_name: str) -> tuple[str, Schema]:
    """The table name and schema of a schema.json document: a JSON object
    with a "columns" list (see `Schema.from_json`) and an optional str
    "table", which defaults to `default_name`. Anything else raises
    SchemaError."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise SchemaError(f"schema descriptor is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "columns" not in doc:
        raise SchemaError('schema descriptor must be a JSON object with a "columns" list')
    name = doc.get("table", default_name)
    if not isinstance(name, str):
        raise SchemaError('schema descriptor field "table" must be a string')
    return name, Schema.from_json(doc["columns"])


def load_schema_descriptor(src: Path) -> tuple[str, Schema]:
    """The table name and schema in `src/schema.json`; the name defaults
    to the directory's."""
    desc_path = Path(src) / "schema.json"
    if not desc_path.is_file():
        raise OrchestratorError(f"missing schema.json in {src}")
    return parse_schema_descriptor(desc_path.read_bytes(), Path(src).name)


def run_encrypt_table(
    src: str | Path,
    dst: Storage,
    table_key: bytes | None = None,
    config: OrchestratorConfig | None = None,
    report: RunReport | None = None,
) -> tuple[TableManifest, bytes]:
    """Encrypt every partition under one fresh table key into generation
    0; the manifest put commits the table."""
    config = config or OrchestratorConfig()
    report = report if report is not None else RunReport()
    if dst.exists(MANIFEST_NAME):
        raise OrchestratorError("destination already holds a table; refusing to overwrite")
    table_name, schema = load_schema_descriptor(Path(src))
    sources = discover_plain_partitions(Path(src))
    if table_key is None:
        table_key = secrets.token_bytes(16)

    census: list[tuple[int, int]] = []

    def store(stats, blob):
        census.append((stats.pid, stats.rows))
        dst.put(partition_name(stats.pid, 0), blob)

    _map_partitions(sources, _encrypt_worker, (schema, table_key), store, config.workers, report)
    manifest = TableManifest(table_name, schema, census, generation=0)
    _commit(dst, manifest)
    return manifest, table_key


def run_add_family(
    storage: Storage,
    table_key: bytes,
    family_sql: str,
    family_key: bytes | None = None,
    tag_length: int = 4,
    branching_bits: int = 8,
    cache_capacity: int = 512,
    rng_seed: int | None = None,
    config: OrchestratorConfig | None = None,
    report: RunReport | None = None,
    before_commit: Callable[[str, bytes], None] | None = None,
) -> tuple[str, bytes]:
    """Instantiate a family on every partition as the next generation;
    the manifest put that registers the family commits it.

    `before_commit(family_id, family_key)` runs once every partition is
    stored and before the manifest put, so a caller can save the key
    before the family it opens exists; if it raises, nothing commits.

    `rng_seed` is for tests and benchmarks only: it makes every
    projection key guessable from the seed, which opens the family's
    projected cell keys to anyone who reads storage (see `FamilyParams`).
    `cache_capacity` changes time only, never bytes."""
    config = config or OrchestratorConfig()
    report = report if report is not None else RunReport()
    manifest = load_manifest(storage)
    family = plan_family(family_sql, manifest.schema, branching_bits=branching_bits)
    family_id = family.family_id
    if any(rec.family_id == family_id for rec in manifest.families):
        raise OrchestratorError(f"family {family_id} is already instantiated")
    if family_key is None:
        family_key = secrets.token_bytes(16)
    params = FamilyParams(tag_length=tag_length, cache_capacity=cache_capacity, rng_seed=rng_seed)
    current, following = manifest.generation, manifest.generation + 1

    def store(stats, blob):
        storage.put(partition_name(stats.pid, following), blob)

    ids = [pid for pid, _ in manifest.partitions]
    context = (storage, current, manifest.schema, table_key, family, family_key, params)
    _map_partitions(ids, _add_family_worker, context, store, config.workers, report)
    if before_commit is not None:
        before_commit(family_id, family_key)
    manifest.generation = following
    manifest.families.append(FamilyRecord(family_id, family, tag_length, branching_bits))
    _commit(storage, manifest)
    return family_id, family_key


def run_view_gen(
    storage: Storage, family_id: str, family_key: bytes, view_sql: str
) -> ViewKeySet:
    """Mint view keys for a view belonging to a stored family."""
    manifest = load_manifest(storage)
    record = manifest.family(family_id)
    view = plan_view(view_sql, record.family, manifest.schema)
    return generate_view_keys(view, family_key, tag_length=record.tag_length)


def run_reveal_view(
    storage: Storage,
    view_keys: ViewKeySet,
    out_dir: str | Path,
    fil: tuple[int, int] | None = None,
    config: OrchestratorConfig | None = None,
    report: RunReport | None = None,
) -> list[Path]:
    """Decrypt the view into local CSV partitions (never uploaded)."""
    config = config or OrchestratorConfig()
    report = report if report is not None else RunReport()
    manifest = load_manifest(storage)
    try:
        record = manifest.family(view_keys.family_id)
    except ManifestError as exc:
        raise OrchestratorError(str(exc)) from exc
    if record.tag_length != view_keys.tag_length:
        raise OrchestratorError(
            f"view keys were minted for {view_keys.tag_length}-byte tags; "
            f"the family uses {record.tag_length}-byte tags"
        )
    ids = _apply_filter(manifest, fil)
    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def store(stats, blob):
        path = out_root / (VIEW_PARTITION_NAME % stats.pid)
        path.write_bytes(blob)
        written.append(path)

    context = (storage, manifest.generation, manifest.schema, record.family, view_keys)
    _map_partitions(ids, _reveal_worker, context, store, config.workers, report)
    return sorted(written)
