"""Table-level flows: storage, generations and commits, filters, workers."""

import json
import re
import threading

import pytest

from sealview.keys import read_key, read_view_keys, write_key, write_view_keys
from sealview.manifest import MANIFEST_NAME, TableManifest
from sealview.mep import csv_to_partition
from sealview.oracle import eval_view
from sealview.orchestrator import (
    LocalDirStorage,
    MemoryStorage,
    OrchestratorConfig,
    OrchestratorError,
    StorageError,
    partition_name,
    run_add_family,
    run_encrypt_table,
    run_reveal_view,
    run_view_gen,
)

TABLE_KEY = bytes(range(16))
FAMILY_KEY = bytes(range(16, 32))

BOATS_CSV = {
    1: "101,Interlake,blue\n102,Interlake,red\n",
    2: "103,Clipper,green\n104,Marine,red\n",
    3: "105,Driftwood,blue\n",
    4: "",
}

FAMILY_SQL = "SELECT bname, color FROM boats WHERE bname IN ?x1 OR color IN ?x2"
VIEW_SQL = "SELECT bname, color FROM boats WHERE bname = 'Interlake' OR color = 'red'"


def make_src(tmp_path, csv_parts=None):
    src = tmp_path / "src"
    src.mkdir()
    (src / "schema.json").write_text(
        json.dumps(
            {
                "table": "boats",
                "columns": [
                    {"name": "bid", "type": "int64"},
                    {"name": "bname", "type": "utf8"},
                    {"name": "color", "type": "utf8"},
                ],
            }
        )
    )
    for pid, text in (csv_parts or BOATS_CSV).items():
        (src / f"part-{pid:05d}.csv").write_text(text)
    return src


def all_rows(csv_parts):
    out = []
    for pid in sorted(csv_parts):
        for line in csv_parts[pid].splitlines():
            bid, bname, color = line.split(",")
            out.append([int(bid), bname, color])
    return out


def sequential_config():
    return OrchestratorConfig(workers=1)


def test_encrypt_table_end_to_end(tmp_path):
    src = make_src(tmp_path)
    dst = LocalDirStorage(tmp_path / "table")
    manifest, key = run_encrypt_table(src, dst, TABLE_KEY, sequential_config())
    assert key == TABLE_KEY
    assert manifest.partitions == [(1, 2), (2, 2), (3, 1), (4, 0)]
    assert dst.exists(MANIFEST_NAME)
    assert all(dst.exists(partition_name(pid, 0)) for pid in (1, 2, 3, 4))


def test_encrypt_table_refuses_overwrite(tmp_path):
    src = make_src(tmp_path)
    dst = LocalDirStorage(tmp_path / "table")
    run_encrypt_table(src, dst, TABLE_KEY, sequential_config())
    with pytest.raises(OrchestratorError, match="refusing"):
        run_encrypt_table(src, dst, TABLE_KEY, sequential_config())


def test_full_pipeline_matches_oracle(tmp_path):
    src = make_src(tmp_path)
    dst = LocalDirStorage(tmp_path / "table")
    run_encrypt_table(src, dst, TABLE_KEY, sequential_config())
    family_id, fam_key = run_add_family(
        dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, config=sequential_config()
    )
    assert fam_key == FAMILY_KEY
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    out = tmp_path / "revealed"
    paths = run_reveal_view(dst, keys, out, config=sequential_config())
    assert [p.name for p in paths] == [f"view-part-{pid:05d}.csv" for pid in (1, 2, 3, 4)]

    manifest = TableManifest.from_json(dst.get(MANIFEST_NAME).decode())
    got = []
    for path in paths:
        part = csv_to_partition(
            path.read_text(),
            _view_schema(manifest),
            int(path.stem.split("-")[-1]),
        )
        got.extend(tuple(r) for r in part.rows)
    expected = eval_view(manifest.schema, all_rows(BOATS_CSV), VIEW_SQL)
    assert got == expected


def _view_schema(manifest):
    from sealview.model import Schema

    cols = tuple(manifest.schema.columns[i] for i in manifest.families[0].family.projected)
    return Schema(cols)


def test_add_family_registers_in_manifest(tmp_path):
    src = make_src(tmp_path)
    dst = LocalDirStorage(tmp_path / "table")
    run_encrypt_table(src, dst, TABLE_KEY, sequential_config())
    family_id, _ = run_add_family(dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, config=sequential_config())
    manifest = TableManifest.from_json(dst.get(MANIFEST_NAME).decode())
    assert [rec.family_id for rec in manifest.families] == [family_id]
    second_id, _ = run_add_family(
        dst, TABLE_KEY, "SELECT * FROM boats WHERE bid = ?z", config=sequential_config()
    )
    manifest = TableManifest.from_json(dst.get(MANIFEST_NAME).decode())
    assert len(manifest.families) == 2
    with pytest.raises(OrchestratorError, match="already instantiated"):
        run_add_family(dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, config=sequential_config())


def test_add_family_unknown_column_touches_nothing(tmp_path):
    src = make_src(tmp_path)
    dst = LocalDirStorage(tmp_path / "table")
    run_encrypt_table(src, dst, TABLE_KEY, sequential_config())
    before = {name: dst.get(name) for name in dst.list_files()}
    with pytest.raises(Exception, match="no column"):
        run_add_family(dst, TABLE_KEY, "SELECT * FROM boats WHERE ghost = ?x", config=sequential_config())
    after = {name: dst.get(name) for name in dst.list_files()}
    assert before == after


class CountingStorage(LocalDirStorage):
    def __init__(self, root):
        super().__init__(root)
        self.gets = []

    def get(self, name):
        self.gets.append(name)
        return super().get(name)


def _encrypted_table(tmp_path, **add_family_kw):
    src = make_src(tmp_path)
    dst = CountingStorage(tmp_path / "table")
    run_encrypt_table(src, dst, TABLE_KEY, sequential_config())
    family_id, _ = run_add_family(
        dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, config=sequential_config(), **add_family_kw
    )
    return dst, family_id


def test_partition_filter_fetches_exactly_matching(tmp_path):
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    dst.gets.clear()
    paths = run_reveal_view(dst, keys, tmp_path / "out", fil=(2, 3), config=sequential_config())
    fetched = [n for n in dst.gets if n.startswith("part-")]
    assert sorted(fetched) == [partition_name(2, 1), partition_name(3, 1)]
    assert [p.name for p in paths] == ["view-part-00002.csv", "view-part-00003.csv"]


def test_filter_outside_census_rejected(tmp_path):
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    with pytest.raises(OrchestratorError, match="matches nothing"):
        run_reveal_view(dst, keys, tmp_path / "out", fil=(9, 12), config=sequential_config())


def test_missing_partition_detected(tmp_path):
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    dst.delete(partition_name(2, 1))
    with pytest.raises(StorageError, match="missing"):
        run_reveal_view(dst, keys, tmp_path / "out", config=sequential_config())


def test_tag_length_mismatch_rejected(tmp_path):
    dst, family_id = _encrypted_table(tmp_path, tag_length=4)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    keys.tag_length = 2  # simulate keys minted under different parameters
    with pytest.raises(OrchestratorError, match="tags"):
        run_reveal_view(dst, keys, tmp_path / "out", config=sequential_config())


def test_empty_view_key_set_yields_empty_files(tmp_path):
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(
        dst, family_id, FAMILY_KEY, "SELECT bname, color FROM boats WHERE bname = 'Nonesuch'"
    )
    paths = run_reveal_view(dst, keys, tmp_path / "out", config=sequential_config())
    assert all(p.read_text() == "" for p in paths)


def test_view_gen_deterministic_and_figure_example(tmp_path):
    dst, family_id = _encrypted_table(tmp_path)
    k1 = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    k2 = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    assert k1.serialize() == k2.serialize()
    assert [len(k) for k in k1.keys] == [1, 1]  # {k_Interlake}, {k_red}
    with pytest.raises(Exception, match="unknown family"):
        run_view_gen(dst, "00" * 8, FAMILY_KEY, VIEW_SQL)


def _file_snapshot(storage):
    return {name: storage.get(name) for name in storage.list_files()}


def test_worker_count_does_not_change_bytes(tmp_path):
    src = make_src(tmp_path)
    snapshots = []
    for workers in (1, 2):
        dst = LocalDirStorage(tmp_path / f"table{workers}")
        config = OrchestratorConfig(workers=workers)
        run_encrypt_table(src, dst, TABLE_KEY, config)
        run_add_family(
            dst,
            TABLE_KEY,
            "SELECT bname, color FROM boats WHERE bname = ?x OR color = ?y",
            FAMILY_KEY,
            rng_seed=11,
            config=config,
        )
        snapshots.append(_file_snapshot(dst))
    assert snapshots[0] == snapshots[1]


def test_reveal_output_identical_for_one_and_two_workers(tmp_path):
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    texts = []
    for workers in (1, 2):
        out = tmp_path / f"out-{workers}"
        paths = run_reveal_view(dst, keys, out, config=OrchestratorConfig(workers=workers))
        texts.append([p.read_text() for p in paths])
    assert texts[0] == texts[1]


class CrashingStorage(LocalDirStorage):
    """Raises on the n-th put or delete of a matching file: a RuntimeError
    stands in for a crash at that point of a table operation, a
    StorageError for a failed request."""

    def __init__(self, root):
        super().__init__(root)
        self.crash = None

    def arm(self, operation, pattern, n, error=RuntimeError):
        self.crash = [operation, re.compile(pattern), n, error]

    def _step(self, operation, name):
        if self.crash and self.crash[0] == operation and self.crash[1].fullmatch(name):
            self.crash[2] -= 1
            if self.crash[2] == 0:
                error, self.crash = self.crash[3], None
                raise error(f"injected failure on {operation} {name}")

    def put(self, name, data):
        self._step("put", name)
        super().put(name, data)

    def delete(self, name):
        self._step("delete", name)
        super().delete(name)


SECOND_FAMILY_SQL = "SELECT * FROM boats WHERE bid = ?z"
SECOND_FAMILY_KEY = bytes(range(32, 48))
PRE_COMMIT_CRASHES = [("put", r"part-.*", k) for k in (1, 2, 3, 4)] + [("put", "manifest.json", 1)]


def _two_family_table(storage, second=True):
    """Encrypt the boats table and add one family, then (optionally) a second."""
    storage.root.parent.mkdir(parents=True, exist_ok=True)
    run_encrypt_table(make_src(storage.root.parent), storage, TABLE_KEY, sequential_config())
    run_add_family(storage, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, rng_seed=3, config=sequential_config())
    if second:
        _add_second_family(storage)


def _add_second_family(storage):
    return run_add_family(
        storage, TABLE_KEY, SECOND_FAMILY_SQL, SECOND_FAMILY_KEY, rng_seed=5, config=sequential_config()
    )


def _assert_reveals_oracle(storage, out):
    manifest = TableManifest.from_json(storage.get(MANIFEST_NAME))
    keys = run_view_gen(storage, manifest.families[0].family_id, FAMILY_KEY, VIEW_SQL)
    paths = run_reveal_view(storage, keys, out, config=sequential_config())
    got = []
    for path in paths:
        part = csv_to_partition(path.read_text(), _view_schema(manifest), int(path.stem.split("-")[-1]))
        got.extend(tuple(r) for r in part.rows)
    assert got == eval_view(manifest.schema, all_rows(BOATS_CSV), VIEW_SQL)


def _unreferenced_partitions(storage):
    manifest = TableManifest.from_json(storage.get(MANIFEST_NAME))
    live = {partition_name(pid, manifest.generation) for pid, _ in manifest.partitions}
    return [n for n in storage.list_files() if n.startswith("part-") and n not in live]


def _uncrashed_snapshot(tmp_path):
    reference = LocalDirStorage(tmp_path / "reference" / "table")
    _two_family_table(reference)
    return _file_snapshot(reference)


def test_add_family_crash_leaves_prior_version(tmp_path):
    """A crash at any put before the commit: the table stays at its prior
    version, and the same command then succeeds as if it never crashed."""
    expected = _uncrashed_snapshot(tmp_path)
    for case, (operation, pattern, n) in enumerate(PRE_COMMIT_CRASHES):
        dst = CrashingStorage(tmp_path / f"crash{case}" / "table")
        _two_family_table(dst, second=False)
        before = _file_snapshot(dst)
        dst.arm(operation, pattern, n)
        with pytest.raises(RuntimeError, match="injected"):
            _add_second_family(dst)
        orphans = _unreferenced_partitions(dst)
        assert {n: b for n, b in _file_snapshot(dst).items() if n not in orphans} == before
        assert len(TableManifest.from_json(dst.get(MANIFEST_NAME)).families) == 1
        _assert_reveals_oracle(dst, tmp_path / f"crash{case}" / "out-crashed")

        _add_second_family(dst)  # the same command again
        assert _file_snapshot(dst) == expected
        assert _unreferenced_partitions(dst) == []
        _assert_reveals_oracle(dst, tmp_path / f"crash{case}" / "out-rerun")


THIRD_FAMILY_SQL = "SELECT bid, color FROM boats WHERE color = ?c"


def test_add_family_survives_failed_cleanup_delete(tmp_path):
    """A failed delete after the commit does not fail the command: the
    family is added, and the next commit deletes the file left over."""
    expected = _uncrashed_snapshot(tmp_path)
    for k in (1, 2, 3, 4):
        dst = CrashingStorage(tmp_path / f"cleanup{k}" / "table")
        _two_family_table(dst, second=False)
        dst.arm("delete", r"part-.*", k, StorageError)
        family_id, family_key = _add_second_family(dst)
        assert family_key == SECOND_FAMILY_KEY
        assert dst.crash is None  # the delete did fail
        leftover = [partition_name(k, 1)]
        assert _unreferenced_partitions(dst) == leftover
        assert {n: b for n, b in _file_snapshot(dst).items() if n not in leftover} == expected
        _assert_reveals_oracle(dst, tmp_path / f"cleanup{k}" / "out")

        run_add_family(dst, TABLE_KEY, THIRD_FAMILY_SQL, config=sequential_config())
        assert _unreferenced_partitions(dst) == []


def test_add_family_crash_during_cleanup_leaves_committed_version(tmp_path):
    dst = CrashingStorage(tmp_path / "crashed" / "table")
    _two_family_table(dst, second=False)
    saved = []
    dst.arm("delete", r"part-.*", 2)
    with pytest.raises(RuntimeError, match="injected"):
        run_add_family(
            dst, TABLE_KEY, SECOND_FAMILY_SQL, rng_seed=5, config=sequential_config(),
            before_commit=lambda *id_and_key: saved.append(id_and_key),
        )
    # The manifest put had committed: the table is whole at the new
    # generation, only the partitions of the old one are left over, and
    # the new family's key was handed out before the commit.
    manifest = TableManifest.from_json(dst.get(MANIFEST_NAME))
    assert (manifest.generation, len(manifest.families)) == (2, 2)
    assert [family_id for family_id, _ in saved] == [manifest.families[1].family_id]
    assert all(dst.exists(partition_name(pid, 2)) for pid, _ in manifest.partitions)
    assert _unreferenced_partitions(dst) == [partition_name(pid, 1) for pid in (2, 3, 4)]
    _assert_reveals_oracle(dst, tmp_path / "out-crashed")
    with pytest.raises(OrchestratorError, match="already instantiated"):
        _add_second_family(dst)

    run_add_family(dst, TABLE_KEY, THIRD_FAMILY_SQL, config=sequential_config())
    assert _unreferenced_partitions(dst) == []


def test_failing_before_commit_commits_nothing(tmp_path):
    dst = LocalDirStorage(tmp_path / "table")
    _two_family_table(dst, second=False)
    before = _file_snapshot(dst)

    def refuse(family_id, family_key):
        raise OSError("key directory is read-only")

    with pytest.raises(OSError, match="read-only"):
        run_add_family(dst, TABLE_KEY, SECOND_FAMILY_SQL, config=sequential_config(), before_commit=refuse)
    orphans = _unreferenced_partitions(dst)
    assert {n: b for n, b in _file_snapshot(dst).items() if n not in orphans} == before
    _add_second_family(dst)
    assert _unreferenced_partitions(dst) == []


def test_manifest_names_the_only_partition_files(tmp_path):
    dst = LocalDirStorage(tmp_path / "table")
    _two_family_table(dst)
    manifest = TableManifest.from_json(dst.get(MANIFEST_NAME))
    assert manifest.generation == 2
    assert dst.list_files() == [MANIFEST_NAME] + [partition_name(pid, 2) for pid in (1, 2, 3, 4)]


def test_key_files_round_trip(tmp_path):
    path = tmp_path / "keys" / "table.key"
    write_key(path, TABLE_KEY)
    assert read_key(path) == TABLE_KEY
    assert (tmp_path / "keys" / "table.key.hex").read_text().strip() == TABLE_KEY.hex()

    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    vk_path = tmp_path / "keys" / "analyst.viewkeys"
    write_view_keys(vk_path, keys)
    assert read_view_keys(vk_path) == keys


def test_memory_storage_roundtrip():
    store = MemoryStorage()
    store.put("a", b"1")
    store.put("b", b"2")
    assert store.list_files() == ["a", "b"]
    store.delete("a")
    store.delete("a")  # a missing file is not an error
    assert store.list_files() == ["b"]
    assert not store.exists("a")
    with pytest.raises(StorageError):
        store.get("zz")


def test_http_storage_round_trip(tmp_path):
    pytest.importorskip("requests")
    import http.server

    files = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            name = self.path.lstrip("/")
            if not name:
                body = json.dumps(sorted(files)).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(body)
            elif name in files:
                self.send_response(200)
                self.end_headers()
                self.wfile.write(files[name])
            else:
                self.send_response(404)
                self.end_headers()

        def do_PUT(self):
            length = int(self.headers["Content-Length"])
            files[self.path.lstrip("/")] = self.rfile.read(length)
            self.send_response(201)
            self.end_headers()

        def do_DELETE(self):
            files.pop(self.path.lstrip("/"), None)
            self.send_response(204)
            self.end_headers()

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        from sealview.orchestrator import HttpStorage

        store = HttpStorage(f"http://127.0.0.1:{server.server_address[1]}")
        store.put("part-00001.g0.mep", b"payload")
        store.put("part-00002.g0.mep", b"other")
        assert store.get("part-00001.g0.mep") == b"payload"
        assert store.list_files() == ["part-00001.g0.mep", "part-00002.g0.mep"]
        store.delete("part-00001.g0.mep")
        store.delete("part-00001.g0.mep")  # a missing file is not an error
        assert store.list_files() == ["part-00002.g0.mep"]
    finally:
        server.shutdown()


def test_failure_mid_run_does_not_hang(tmp_path):
    # Eight partitions through two workers: the failure hits while later
    # partitions are still queued, and the pool must be shut down.
    parts = {pid: f"{100 + pid},Name{pid},blue\n" for pid in range(1, 9)}
    src = make_src(tmp_path, parts)
    dst = CrashingStorage(tmp_path / "table")
    run_encrypt_table(src, dst, TABLE_KEY, sequential_config())
    before = _file_snapshot(dst)
    dst.arm("put", r"part-.*", 2)
    failures = []

    def add_family():
        try:
            run_add_family(dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, config=OrchestratorConfig(workers=2))
        except RuntimeError as exc:
            failures.append(exc)

    thread = threading.Thread(target=add_family, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "add-family hung after a mid-run failure"
    assert [str(exc) for exc in failures] == [f"injected failure on put {partition_name(2, 1)}"]
    committed = {n: b for n, b in _file_snapshot(dst).items() if n in before}
    assert committed == before
