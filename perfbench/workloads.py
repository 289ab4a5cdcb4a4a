"""The three workloads, run through the orchestrator entry points the CLI
calls, one operation at a time (a closed loop with one client)."""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from sealview.orchestrator import (
    LocalDirStorage,
    OrchestratorConfig,
    run_add_family,
    run_encrypt_table,
    run_reveal_view,
    run_view_gen,
)

import layers
import prims
from tables import (
    CACHE_CAPACITY,
    FAMILY_KEYS,
    FAMILY_SQL,
    RNG_SEED,
    TABLE_KEY,
    TAG_LENGTH,
    check_views,
    dense_view,
    dir_bytes,
    expected,
    generate,
    projected_types,
    read_view_csv,
    sparse_view,
    write_source,
)

# Two workers is the core count of the 2-vCPU machine the baseline was
# measured on, and the CLI default there; fixed here rather than read
# from os.cpu_count() so that runs on other hosts keep the same load shape.
WORKERS = 2

END_TO_END_UNITS = {
    "encrypt_rows_per_s": "rows/s",
    "add_family_eq_rows_per_s": "rows/s",
    "add_family_subset_rows_per_s": "rows/s",
    "reveal_s": "s",
    "setup_s": "s",
    "stored_bytes_per_plain_byte": "ratio",
    "peak_rss_mb": "MB",
}

# Families instantiated on each workload's table, in the order they are
# added. Every table carries eq and subset, so every workload measures
# both add-family rates; only reveal-sparse carries the range family.
WORKLOADS = {
    "ingest": {"families": ("eq", "subset"), "rows": 8_000, "reveals_per_cycle": 1},
    "reveal-sparse": {"families": ("range", "eq", "subset"), "rows": 16_000, "reveals_per_cycle": 16},
    "reveal-dense": {"families": ("subset", "eq"), "rows": 8_000, "reveals_per_cycle": 8},
}


class OpFailed(Exception):
    """An orchestrated operation raised; the measurement stops."""


class Run:
    """Timed orchestrated calls, with every failure and wrong output counted."""

    def __init__(self, work: Path, tamper=None):
        self.work = work
        self.config = OrchestratorConfig(workers=WORKERS)
        self.tamper = tamper  # self-test hook: corrupts revealed rows before the gate
        self.attempted = 0
        self.failed = 0
        self.plain_bytes = 0  # encoded plaintext size of the generated table
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        return self.work / f"{stem}-{self._dirs}"

    def call(self, fn, *args, **kwargs):
        """Run one operation; returns (result, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(str(exc)) from exc
        return result, time.perf_counter() - t0

    def check(self, ok: bool, what: str) -> None:
        """A check that is not an operation of its own still counts as one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def encrypt(self, src: Path, storage) -> float:
        return self.call(run_encrypt_table, src, storage, TABLE_KEY, self.config)[1]

    def add_family(self, storage, fam: str) -> tuple[str, float]:
        (family_id, _), wall = self.call(
            run_add_family,
            storage,
            TABLE_KEY,
            FAMILY_SQL[fam],
            FAMILY_KEYS[fam],
            tag_length=TAG_LENGTH,
            cache_capacity=CACHE_CAPACITY,
            rng_seed=RNG_SEED,
            config=self.config,
        )
        return family_id, wall

    def view_gen(self, storage, family_id: str, fam: str, view_sql: str):
        return self.call(run_view_gen, storage, family_id, FAMILY_KEYS[fam], view_sql)[0]

    def reveal(self, storage, keys, view_sql: str, want: list, what: str) -> tuple[float, list[str]]:
        """Timed reveal-view, then the oracle gate outside the timed
        region. Returns the wall time and the CSV text per partition."""
        out = self.fresh_dir("out")
        paths, wall = self.call(run_reveal_view, storage, keys, out, config=self.config)
        texts = [Path(p).read_text() for p in paths]
        try:
            got = read_view_csv(paths, projected_types(view_sql))
        except ValueError as exc:
            got = f"unreadable output ({exc})"
        shutil.rmtree(out)
        if self.tamper is not None:
            got = self.tamper(got)
        if got != want:
            self.failed += 1
            print(f"wrong output: {what} differs from the oracle", file=sys.stderr)
        return wall, texts


def build_table(run: Run, src: Path, families, storage=None):
    """encrypt-table from `src`, then add-family per family. Returns the
    storage, the family ids and the wall time of each operation."""
    storage = storage or LocalDirStorage(run.fresh_dir("table"))
    walls = {"encrypt": run.encrypt(src, storage)}
    ids = {}
    for fam in families:
        ids[fam], walls[fam] = run.add_family(storage, fam)
    return storage, ids, walls


def views_of(workload: str, data) -> dict[str, str]:
    """The views a workload reveals, by family."""
    if workload == "ingest":
        return check_views(data)
    if workload == "reveal-sparse":
        return {"range": sparse_view()}
    return {"subset": dense_view(data)}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker, in MB
    (Linux reports KiB; pages shared after fork count in both)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def run_measured(run: Run, workload: str, seed: int, rows: int, seconds: float) -> dict:
    """End-to-end metrics, tracing off.

    The run repeats one cycle until `seconds` have passed, so every
    metric is sampled across the whole run rather than in one stretch of
    it: this host's speed drifts by several percent over seconds. A
    cycle generates the data and builds a table from it, mints view
    keys, and reveals. Set-up is the data generation on ingest, whose
    timed operations are the table build and one reveal per family;
    on a reveal workload it is everything before the reveals.
    """
    spec = WORKLOADS[workload]
    samples = {"setup": [], "encrypt": [], "eq": [], "subset": [], "reveal": [], "stored": []}
    wants = {}
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            data = generate(seed, rows)
            src = run.fresh_dir("src")
            write_source(data, src)
            if workload == "ingest":
                samples["setup"].append(time.perf_counter() - t0)
            storage, ids, walls = build_table(run, src, spec["families"])
            views = views_of(workload, data)
            keys = {fam: run.view_gen(storage, ids[fam], fam, sql) for fam, sql in views.items()}
            if workload != "ingest":
                samples["setup"].append(time.perf_counter() - t0)
            for key in ("encrypt", "eq", "subset"):
                samples[key].append(walls[key])
            run.plain_bytes = data.plain_bytes()
            samples["stored"].append(dir_bytes(storage.root) / run.plain_bytes)
            for sql in views.values():
                if sql not in wants:
                    wants[sql] = expected(data, sql)
            for _ in range(spec["reveals_per_cycle"]):
                reveal_walls = [
                    run.reveal(storage, keys[fam], sql, wants[sql], f"{workload} {fam} view")[0]
                    for fam, sql in views.items()
                ]
                samples["reveal"].append(sum(reveal_walls) / len(reveal_walls))
            shutil.rmtree(storage.root)
            shutil.rmtree(src)
            if time.perf_counter() - start >= seconds:
                break
    except OpFailed:
        pass
    return end_to_end(samples, rows)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g}"


def end_to_end(samples: dict, rows: int) -> dict:
    def rate(walls):
        return rows / median(walls) if walls else 0.0

    values = {
        "encrypt_rows_per_s": (rate(samples["encrypt"]), samples["encrypt"]),
        "add_family_eq_rows_per_s": (rate(samples["eq"]), samples["eq"]),
        "add_family_subset_rows_per_s": (rate(samples["subset"]), samples["subset"]),
        "reveal_s": (median(samples["reveal"]), samples["reveal"]),
        "setup_s": (median(samples["setup"]), samples["setup"]),
        "stored_bytes_per_plain_byte": (median(samples["stored"]), None),
        "peak_rss_mb": (peak_rss_mb(), None),
    }
    for name, (value, walls) in values.items():
        detail = f"  [operation seconds {_spread(walls)}]" if walls is not None else ""
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}{detail}")
    return {name: value for name, (value, _) in values.items()}


def run_traced(run: Run, workload: str, seed: int, rows: int, seconds: float) -> dict:
    """Per-layer metrics. The measured operation runs orchestrated over a
    CountingStorage; then the traced chain replays the workload and must
    give the same partition bytes and CSV text."""
    spec = WORKLOADS[workload]
    data = generate(seed, rows)
    run.plain_bytes = data.plain_bytes()
    views = views_of(workload, data)
    src = run.fresh_dir("src")
    write_source(data, src)
    # Storage is counted over the build on ingest, over 3 reveals otherwise.
    if workload == "ingest":
        counted = layers.CountingStorage(run.fresh_dir("table"))
        _, ids, walls = build_table(run, src, spec["families"], counted)
        storage, reveal_storage, repeats = LocalDirStorage(counted.root), None, 1
    else:
        storage, ids, _ = build_table(run, src, spec["families"])
        counted = reveal_storage = layers.CountingStorage(storage.root)
        repeats = 3
    references = {}  # family -> orchestrated CSV text per partition
    reveal_walls = []
    for fam, sql in views.items():
        keys = run.view_gen(storage, ids[fam], fam, sql)
        want = expected(data, sql)
        for _ in range(repeats):
            wall, references[fam] = run.reveal(
                reveal_storage or storage, keys, sql, want, f"{workload} {fam} view"
            )
            reveal_walls.append(wall)
    orch_walls = [sum(walls.values())] if workload == "ingest" else reveal_walls
    reference_blobs = layers.partition_blobs(storage.root)

    tr = layers.Tracer()
    owner_phase, reveal_phase = ("op", "check") if workload == "ingest" else ("setup", "op")

    def build_chain():
        root = run.fresh_dir("chain")
        with tr.phase(owner_phase):
            planned = layers.owner_chain(tr, src, root, spec["families"])
            keys = {fam: layers.view_gen_chain(tr, fam, planned[fam], sql) for fam, sql in views.items()}
        run.check(layers.partition_blobs(root) == reference_blobs, "chain partitions")
        return root, planned, keys

    def reveal_chain(root, planned, keys):
        with tr.phase(reveal_phase):
            texts = {fam: layers.reveal_chain(tr, root, planned[fam], keys[fam]) for fam in views}
        run.check(texts == references, "chain view CSV")

    with layers.counting_key_schedules(tr):
        if workload == "ingest":
            start = time.perf_counter()
            while True:
                chain = build_chain()
                if time.perf_counter() - start >= seconds:
                    break
                shutil.rmtree(chain[0])
            reveal_chain(*chain)
        else:
            chain = build_chain()
            start = time.perf_counter()
            while True:
                reveal_chain(*chain)
                if time.perf_counter() - start >= seconds:
                    break

    metrics = layers.layer_metrics(
        tr, counted, len(orch_walls), median(orch_walls), run.plain_bytes, WORKERS
    )
    metrics.update(prims.microbenchmarks(seed))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {layers.PER_LAYER_UNITS[name]}")
    return metrics
