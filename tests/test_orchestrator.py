"""Table-level flows: storage, generations and commits, filters, workers."""

import concurrent.futures
import contextlib
import functools
import json
import multiprocessing
import pickle
import re
import threading
import time

import pytest

from sealview import orchestrator
from sealview.encoding import TYPE_INT64
from sealview.keys import read_key, read_view_keys, write_key, write_view_keys
from sealview.manifest import MANIFEST_NAME, TableManifest
from sealview.mep import csv_to_partition
from sealview.model import Column, Schema
from sealview.oracle import eval_view
from sealview.orchestrator import (
    LocalDirStorage,
    MemoryStorage,
    OrchestratorConfig,
    OrchestratorError,
    RunReport,
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
    names = dst.list_files()
    assert MANIFEST_NAME in names
    assert all(partition_name(pid, 0) in names for pid in (1, 2, 3, 4))


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


def _always_pool(monkeypatch):
    """Make a pool pay for any reveal, however small its table."""
    monkeypatch.setattr(orchestrator, "POOL_START_SECONDS", 0.0)


def test_reveal_output_identical_for_one_and_two_workers(tmp_path, monkeypatch):
    _always_pool(monkeypatch)
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    texts, pools = [], []
    for workers in (1, 2):
        out = tmp_path / f"out-{workers}"
        report = RunReport()
        paths = run_reveal_view(dst, keys, out, config=OrchestratorConfig(workers=workers), report=report)
        texts.append([p.read_text() for p in paths])
        pools.append(report.pool_workers)
    assert texts[0] == texts[1]
    assert pools == [0, 2]


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
    assert all(partition_name(pid, 2) in dst.list_files() for pid, _ in manifest.partitions)
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


def test_commit_deletes_files_left_by_cut_off_local_puts(tmp_path):
    """A local put cut off between its write and its rename leaves an
    `.inflight` file, which the next commit deletes."""
    expected = _uncrashed_snapshot(tmp_path)
    dst = LocalDirStorage(tmp_path / "planted" / "table")
    _two_family_table(dst, second=False)
    planted = [partition_name(1, 1) + ".inflight", MANIFEST_NAME + ".inflight"]
    for name in planted:
        (dst.root / name).write_bytes(b"cut off")
    _add_second_family(dst)
    assert not any(name in dst.list_files() for name in planted)
    assert _file_snapshot(dst) == expected


def _swap_partition_files(storage, a, b, generation):
    name_a, name_b = partition_name(a, generation), partition_name(b, generation)
    data_a, data_b = storage.get(name_a), storage.get(name_b)
    storage.put(name_a, data_b)
    storage.put(name_b, data_a)


def test_partition_file_carrying_another_id_is_refused(tmp_path):
    """A partition file that holds another partition fails a reveal, as
    it fails add-family, instead of revealing the other partition's rows
    under its name."""
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    _swap_partition_files(dst, 1, 2, 1)
    for fil in (None, (1, 1)):
        with pytest.raises(OrchestratorError, match="partition file 1 carries id 2"):
            run_reveal_view(dst, keys, tmp_path / "out", fil=fil, config=sequential_config())
    with pytest.raises(OrchestratorError, match="partition file 1 carries id 2"):
        run_add_family(dst, TABLE_KEY, SECOND_FAMILY_SQL, config=sequential_config())


def test_reveal_replaces_the_view_files_of_an_earlier_reveal(tmp_path):
    """A narrower reveal into the same directory leaves only its own view
    files, and deletes what a cut-off reveal left; other files stay."""
    dst, family_id = _encrypted_table(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    assert len(run_reveal_view(dst, keys, out, config=sequential_config())) == 4
    (out / "view-part-00002.csv.inflight").write_text("cut off")
    narrow = run_view_gen(dst, family_id, FAMILY_KEY, "SELECT bname, color FROM boats WHERE color = 'red'")
    paths = run_reveal_view(dst, narrow, out, fil=(1, 1), config=sequential_config())
    assert paths == [out / "view-part-00001.csv"]
    want = {"notes.txt": b"kept", "view-part-00001.csv": b"Interlake,red\n"}
    assert _file_snapshot(LocalDirStorage(out)) == want


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_reveal_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch, workers):
    """A reveal that fails after storing a partition deletes what it
    stored, and leaves an earlier reveal's files as they were."""
    _always_pool(monkeypatch)
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    out = tmp_path / "out"
    run_reveal_view(dst, keys, out, fil=(3, 4), config=sequential_config())
    before = _file_snapshot(LocalDirStorage(out))
    _swap_partition_files(dst, 2, 3, 1)
    report = RunReport()
    with pytest.raises(OrchestratorError, match="partition file 2 carries id 3"):
        run_reveal_view(dst, keys, out, config=OrchestratorConfig(workers=workers), report=report)
    assert _file_snapshot(LocalDirStorage(out)) == before
    assert report.pool_workers == (2 if workers == 2 else 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_reveal_removes_the_directories_it_created(tmp_path, monkeypatch, workers):
    """A reveal that fails into a directory that did not exist leaves no
    directory behind, however far up it had to create them."""
    _always_pool(monkeypatch)
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    _swap_partition_files(dst, 2, 3, 1)
    report = RunReport()
    with pytest.raises(OrchestratorError, match="partition file 2 carries id 3"):
        run_reveal_view(dst, keys, tmp_path / "never" / "out", config=OrchestratorConfig(workers=workers), report=report)
    assert not (tmp_path / "never").exists()
    assert report.pool_workers == (2 if workers == 2 else 0)


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


def test_key_files_replacing_readable_files_are_private(tmp_path):
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    key_path, vk_path = tmp_path / "keys" / "table.key", tmp_path / "keys" / "analyst.viewkeys"
    paths = [key_path, vk_path]
    paths += [path.with_suffix(path.suffix + ".hex") for path in paths]
    key_path.parent.mkdir()
    for path in paths:
        path.write_bytes(b"old")
        path.chmod(0o644)
    write_key(key_path, TABLE_KEY)
    write_view_keys(vk_path, keys)
    assert [path.stat().st_mode & 0o777 for path in paths] == [0o600] * 4
    assert (read_key(key_path), read_view_keys(vk_path)) == (TABLE_KEY, keys)


def test_memory_storage_roundtrip():
    store = MemoryStorage()
    store.put("a", b"1")
    store.put("b", b"2")
    assert store.list_files() == ["a", "b"]
    store.delete("a")
    store.delete("a")  # a missing file is not an error
    assert store.list_files() == ["b"]
    assert "a" not in store.list_files()
    with pytest.raises(StorageError):
        store.get("zz")


@contextlib.contextmanager
def _http_store(listing=None, log=None, headers=None, status=None):
    """An HttpStorage over a stdlib object-store server on localhost,
    serving a dict of files from this process; with `listing`, a GET of
    the base URL serves that JSON value, or those bytes as they are,
    instead of the names. With `log`, each request appends its (method,
    file name) to it, the name "" for the listing; with `headers`, its
    headers as a dict. With `status`, every request is answered with
    that status and nothing else."""
    pytest.importorskip("requests")
    import http.server

    from sealview.orchestrator import HttpStorage

    files = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def log_request(self, *args):
            if log is not None:
                log.append((self.command, self.path.lstrip("/")))

        def answered(self):
            """Record the headers, and send `status` if one is chosen."""
            if headers is not None:
                headers.append(dict(self.headers))
            if status is not None:
                self.send_response(status)
                self.end_headers()
            return status is not None

        def do_GET(self):
            if self.answered():
                return
            name = self.path.lstrip("/")
            if not name:
                body = sorted(files) if listing is None else listing
                if not isinstance(body, bytes):
                    body = json.dumps(body).encode()
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
            body = self.rfile.read(int(self.headers["Content-Length"]))
            if self.answered():
                return
            files[self.path.lstrip("/")] = body
            self.send_response(201)
            self.end_headers()

        def do_DELETE(self):
            if self.answered():
                return
            files.pop(self.path.lstrip("/"), None)
            self.send_response(204)
            self.end_headers()

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield HttpStorage(f"http://127.0.0.1:{server.server_address[1]}")
    finally:
        server.shutdown()
        server.server_close()


def test_http_storage_round_trip():
    with _http_store() as store:
        store.put("part-00001.g0.mep", b"payload")
        store.put("part-00002.g0.mep", b"other")
        assert store.get("part-00001.g0.mep") == b"payload"
        assert store.list_files() == ["part-00001.g0.mep", "part-00002.g0.mep"]
        store.delete("part-00001.g0.mep")
        store.delete("part-00001.g0.mep")  # a missing file is not an error
        assert store.list_files() == ["part-00002.g0.mep"]


@pytest.mark.parametrize("listing", [[1, 2], {"a": 1}])
def test_http_listing_that_is_not_an_array_of_names_is_a_storage_error(listing):
    """A bad listing raises StorageError, which a commit's cleanup, run
    after the manifest put, treats as a failure to leave for later."""
    manifest = TableManifest("t", Schema((Column("a", TYPE_INT64),)), [(1, 0)])
    with _http_store(listing) as store:
        with pytest.raises(StorageError, match="JSON array of names"):
            store.list_files()
        orchestrator._commit(store, manifest)
        assert TableManifest.from_json(store.get(MANIFEST_NAME)) == manifest


def test_http_listing_that_is_not_json_is_a_storage_error():
    with _http_store(b"<html>not a listing</html>") as store:
        with pytest.raises(StorageError, match="JSON array of names"):
            store.list_files()


_NAME = "part-00001.g0.mep"
_CALLS = [  # each storage call, with the method and file name it requests
    ("PUT", _NAME, lambda store: store.put(_NAME, b"x")),
    ("GET", _NAME, lambda store: store.get(_NAME)),
    ("GET", "", lambda store: store.list_files()),
    ("DELETE", _NAME, lambda store: store.delete(_NAME)),
]


@pytest.mark.parametrize("token", ["s3cret", None])
def test_http_storage_sends_the_bearer_token_only_when_set(monkeypatch, token):
    if token is None:
        monkeypatch.delenv(orchestrator.HTTP_TOKEN_ENV, raising=False)
    else:
        monkeypatch.setenv(orchestrator.HTTP_TOKEN_ENV, token)
    seen = []
    with _http_store(headers=seen) as store:
        for _, _, call in _CALLS:
            call(store)
    assert [h.get("Authorization") for h in seen] == [token and f"Bearer {token}"] * len(_CALLS)


def test_http_status_outside_the_call_s_set_is_a_storage_error(capsys):
    from sealview.cli import main

    with _http_store(status=500) as store:
        for method, name, call in _CALLS:
            with pytest.raises(StorageError, match=f"^{method} /{re.escape(name)} failed with status 500$"):
                call(store)
        rc = main(["plan", "--table", store.base_url, "--family", FAMILY_SQL])
    assert rc == 2
    assert "error: GET /manifest.json failed with status 500" in capsys.readouterr().err


def test_each_command_makes_only_the_requests_it_needs(tmp_path):
    """The object-store traffic of each table command, one worker, three
    partitions: every command reads the manifest with one GET, and only
    encrypt-table and a commit's cleanup list the table."""
    log = []
    src = make_src(tmp_path, {pid: BOATS_CSV[pid] for pid in (1, 2, 3)})
    listing, manifest = ("GET", ""), ("GET", MANIFEST_NAME)

    def parts(method, generation):
        return [(method, partition_name(pid, generation)) for pid in (1, 2, 3)]

    def traffic(command, *args, **kwargs):
        log.clear()
        result = command(*args, **kwargs)
        return result, list(log)

    with _http_store(log=log) as store:
        config = sequential_config()
        _, sent = traffic(run_encrypt_table, src, store, TABLE_KEY, config)
        assert sent == [listing, *parts("PUT", 0), ("PUT", MANIFEST_NAME), listing]
        (family_id, _), sent = traffic(
            run_add_family, store, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, rng_seed=3, config=config
        )
        each = [call for pair in zip(parts("GET", 0), parts("PUT", 1)) for call in pair]
        assert sent == [manifest, *each, ("PUT", MANIFEST_NAME), listing, *parts("DELETE", 0)]
        keys, sent = traffic(run_view_gen, store, family_id, FAMILY_KEY, VIEW_SQL)
        assert sent == [manifest]
        _, sent = traffic(run_reveal_view, store, keys, tmp_path / "out", config=config)
        assert sent == [manifest, *parts("GET", 1)]


def _view_texts(storage, keys, out, workers, **kw):
    paths = run_reveal_view(storage, keys, out, config=OrchestratorConfig(workers=workers), **kw)
    return [(p.name, p.read_text()) for p in paths]


def test_two_worker_reveal_over_http_matches_one_worker(tmp_path, monkeypatch):
    _always_pool(monkeypatch)
    report = RunReport()
    with _http_store() as store:
        config = OrchestratorConfig(workers=2)
        run_encrypt_table(make_src(tmp_path), store, TABLE_KEY, config)
        family_id, _ = run_add_family(store, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, rng_seed=3, config=config)
        keys = run_view_gen(store, family_id, FAMILY_KEY, VIEW_SQL)
        one = _view_texts(store, keys, tmp_path / "out-1", 1)
        two = _view_texts(store, keys, tmp_path / "out-2", 2, report=report)
    assert one == two
    assert any(text for _, text in one)
    assert report.pool_workers == 2


def test_single_partition_reveal_starts_no_pool(tmp_path, monkeypatch):
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    want = _view_texts(dst, keys, tmp_path / "out-1", 1, fil=(2, 2))

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started for one partition")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert _view_texts(dst, keys, tmp_path / "out-2", 2, fil=(2, 2)) == want
    assert want == [("view-part-00002.csv", "Marine,red\n")]


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool started")


def test_two_worker_reveal_of_a_small_table_runs_inline_and_reads_each_file_once(tmp_path, monkeypatch):
    """On the boats table a pool would cost more than it saves: the
    reveal runs inline, and the first partition's scan is finished, not
    read again."""
    dst, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    want = _view_texts(dst, keys, tmp_path / "out-1", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    dst.gets.clear()
    report = RunReport()
    assert _view_texts(dst, keys, tmp_path / "out-2", 2, report=report) == want
    assert [n for n in dst.gets if n.startswith("part-")] == [partition_name(pid, 1) for pid in sorted(BOATS_CSV)]
    assert (report.pool_workers, report.probe_seconds) == (0, 0.0)


class SlowStorage(LocalDirStorage):
    """Local storage whose every get takes at least 30 ms, as a remote
    object store's might."""

    def get(self, name):
        time.sleep(0.03)
        return super().get(name)


def test_reveal_through_slow_storage_starts_a_pool(tmp_path):
    """The same reveal as the inline one above starts a pool once reads
    are slow: the rule follows the measured cost, not the table."""
    fast, family_id = _encrypted_table(tmp_path)
    keys = run_view_gen(fast, family_id, FAMILY_KEY, VIEW_SQL)
    want = _view_texts(fast, keys, tmp_path / "out-1", 1)
    slow = SlowStorage(fast.root)
    report = RunReport()
    assert _view_texts(slow, keys, tmp_path / "out-2", 2, report=report) == want
    assert report.pool_workers == 2
    assert report.probe_seconds >= 0.03  # the dropped scan's read
    assert report.input_bytes == sum(len(fast.get(partition_name(pid, 1))) for pid in BOATS_CSV)
    assert [stats.pid for stats in report.stats] == sorted(BOATS_CSV)


def test_skewed_reveal_switches_to_a_pool_part_way(tmp_path, monkeypatch):
    """Partition 1 matches no row and is cheap, so the reveal starts
    inline; the later partitions match every row, and the scan of
    partition 2 shows that a pool pays, so it and the rest go to a pool.
    The output is that of one worker, byte for byte."""
    parts = {1: "1,Sloop,blue\n"}
    for pid in range(2, 7):
        parts[pid] = "".join(f"{1000 * pid + k},Boat{k},red\n" for k in range(3000))
    dst = LocalDirStorage(tmp_path / "table")
    run_encrypt_table(make_src(tmp_path, parts), dst, TABLE_KEY, sequential_config())
    family_id, _ = run_add_family(dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, config=sequential_config())
    keys = run_view_gen(dst, family_id, FAMILY_KEY, "SELECT bname, color FROM boats WHERE color = 'red'")
    one = run_reveal_view(dst, keys, tmp_path / "out-1", config=sequential_config())
    submitted = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, item):
            submitted.append(item)
            return super().submit(fn, item)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    report = RunReport()
    two = run_reveal_view(dst, keys, tmp_path / "out-2", config=OrchestratorConfig(workers=2), report=report)
    assert [p.read_bytes() for p in two] == [p.read_bytes() for p in one]
    assert [p.name for p in two] == [p.name for p in one]
    assert len(one[1].read_bytes().splitlines()) == 3000
    assert report.pool_workers == 2
    assert submitted == [2, 3, 4, 5, 6]
    assert report.probe_seconds > 0
    assert [stats.pid for stats in report.stats] == list(range(1, 7))


def test_pool_pays_when_the_rounds_it_saves_outweigh_its_start(monkeypatch):
    monkeypatch.setattr(orchestrator, "POOL_START_SECONDS", 0.010)
    pays = orchestrator._pool_pays
    # 8 partitions on 2 workers take 4 rounds: the pool saves 4 partitions' time.
    assert not pays(0.002, 8, 2)
    assert pays(0.003, 8, 2)
    # 7 on 2 still take 4 rounds, so 3 are saved.
    assert not pays(0.003, 7, 2)
    assert pays(0.004, 7, 2)
    # No more workers than partitions: 3 on 4 workers take 1 round.
    assert not pays(0.004, 3, 4)
    assert pays(0.006, 3, 4)
    # One partition, or one worker, saves nothing.
    assert not pays(1.0, 1, 2)
    assert not pays(1.0, 8, 1)


def test_input_bytes_are_the_partition_files_read(tmp_path):
    src = make_src(tmp_path)
    sources = sum(path.stat().st_size for path in src.glob("part-*.csv"))
    seen = []
    for workers in (1, 2):
        config = OrchestratorConfig(workers=workers)
        dst = LocalDirStorage(tmp_path / f"table{workers}")
        reports = [RunReport() for _ in range(3)]
        run_encrypt_table(src, dst, TABLE_KEY, config, reports[0])
        generation_0 = sum(len(dst.get(partition_name(pid, 0))) for pid in BOATS_CSV)
        family_id, _ = run_add_family(
            dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, rng_seed=3, config=config, report=reports[1]
        )
        generation_1 = sum(len(dst.get(partition_name(pid, 1))) for pid in BOATS_CSV)
        keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
        run_reveal_view(dst, keys, tmp_path / f"out{workers}", config=config, report=reports[2])
        assert [r.input_bytes for r in reports] == [sources, generation_0, generation_1]
        for report in reports:
            assert report.input_bytes == sum(stats.input_bytes for stats in report.stats)
            assert report.fetch_seconds == sum(stats.read_seconds for stats in report.stats) > 0
        seen.append([r.input_bytes for r in reports])
    assert seen[0] == seen[1]


def test_reveal_output_is_utf8_bytes_and_counted_in_bytes(tmp_path):
    src = make_src(tmp_path, {1: "101,zürich,red\n", 2: "102,münchen,red\n103,Clipper,green\n"})
    dst = LocalDirStorage(tmp_path / "table")
    run_encrypt_table(src, dst, TABLE_KEY, sequential_config())
    family_id, _ = run_add_family(dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, config=sequential_config())
    keys = run_view_gen(dst, family_id, FAMILY_KEY, "SELECT bname, color FROM boats WHERE color = 'red'")
    report = RunReport()
    paths = run_reveal_view(dst, keys, tmp_path / "out", config=sequential_config(), report=report)
    assert [p.read_bytes() for p in paths] == ["zürich,red\n".encode(), "münchen,red\n".encode()]
    assert report.output_bytes == sum(p.stat().st_size for p in paths) == 25


def _without_read_time(result):
    stats, out = result
    stats.read_seconds = 0.0
    return stats, out


@pytest.mark.parametrize("kind", ["local", "http"])
def test_worker_contexts_survive_pickling(tmp_path, monkeypatch, kind):
    """Under a start method other than fork, each pool worker receives
    its operation's context pickled: a copy must do the same work."""
    checked = []
    real_map = orchestrator._map_partitions

    def checking_map(items, work, context, store, workers, report):
        copy = pickle.loads(pickle.dumps(context))
        want = _without_read_time(work(context, items[0]))
        assert _without_read_time(work(copy, items[0])) == want
        checked.append(work)
        real_map(items, work, context, store, workers, report)

    monkeypatch.setattr(orchestrator, "_map_partitions", checking_map)
    with contextlib.ExitStack() as stack:
        if kind == "http":
            store = stack.enter_context(_http_store())
        else:
            store = LocalDirStorage(tmp_path / "table")
        run_encrypt_table(make_src(tmp_path), store, TABLE_KEY, sequential_config())
        family_id, _ = run_add_family(
            store, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, rng_seed=3, config=sequential_config()
        )
        keys = run_view_gen(store, family_id, FAMILY_KEY, VIEW_SQL)
        run_reveal_view(store, keys, tmp_path / "out", config=sequential_config())
    assert checked == [orchestrator._encrypt_worker, orchestrator._add_family_worker, orchestrator._reveal_worker]


def test_reveal_under_forkserver_matches_inline(tmp_path, monkeypatch):
    _always_pool(monkeypatch)
    dst = LocalDirStorage(tmp_path / "table")
    run_encrypt_table(make_src(tmp_path), dst, TABLE_KEY, sequential_config())
    family_id, _ = run_add_family(dst, TABLE_KEY, FAMILY_SQL, FAMILY_KEY, config=sequential_config())
    keys = run_view_gen(dst, family_id, FAMILY_KEY, VIEW_SQL)
    want = _view_texts(dst, keys, tmp_path / "out-1", 1)
    context = multiprocessing.get_context("forkserver")
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=context)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    report = RunReport()
    assert _view_texts(dst, keys, tmp_path / "out-2", 2, report=report) == want
    assert report.pool_workers == 2


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
