"""Command-line surface: workflows, exit codes, and golden plan output."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sealview
from sealview.cli import build_parser, main
from sealview.keys import read_key
from sealview.mep import PartitionFormatError, parse_partition, serialize_plain
from sealview.model import PlainPartition, Schema
from sealview.orchestrator import LocalDirStorage, OrchestratorConfig, StorageError, run_add_family

from mep_edit import with_cell_end

SCHEMA_DOC = {
    "table": "boats",
    "columns": [
        {"name": "bid", "type": "int64"},
        {"name": "bname", "type": "utf8"},
        {"name": "color", "type": "utf8"},
    ],
}

FAMILY_SQL = "SELECT bname, color FROM boats WHERE bname IN ?x1 OR color IN ?x2"
VIEW_SQL = "SELECT bname, color FROM boats WHERE bname = 'Interlake' OR color = 'red'"

GOLDEN_PLAN = {
    "branching_bits": 8,
    "family_id": "5e4d5c9b3d63553e",
    "predicate_count": 2,
    "predicates": [
        {"atoms": ["bname"], "index": 1, "wildcards": ["x1"]},
        {"atoms": ["color"], "index": 2, "wildcards": ["x2"]},
    ],
    "projected": ["bname", "color"],
}


@pytest.fixture
def src_dir(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "schema.json").write_text(json.dumps(SCHEMA_DOC))
    (src / "part-00001.csv").write_text("101,Interlake,blue\n102,Interlake,red\n")
    (src / "part-00002.csv").write_text("103,Clipper,green\n104,Marine,red\n")
    return src


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_full_workflow(tmp_path, capsys, src_dir):
    table = tmp_path / "table"
    keys = tmp_path / "keys"
    rc, out, _ = run_cli(
        capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys)
    )
    assert rc == 0
    assert "encrypted 2 partitions" in out
    table_key_path = keys / "boats.tablekey"
    assert table_key_path.exists()

    rc, out, _ = run_cli(
        capsys,
        "add-family",
        "--table", str(table),
        "--table-key", str(table_key_path),
        "--family", FAMILY_SQL,
        "--keys-dir", str(keys),
    )
    assert rc == 0
    family_id = out.split()[1]
    family_key_path = keys / f"fam-{family_id}.familykey"
    assert family_key_path.exists()

    vk_path = keys / "analyst.viewkeys"
    rc, out, _ = run_cli(
        capsys,
        "view-gen",
        "--table", str(table),
        "--family-id", family_id,
        "--family-key", str(family_key_path),
        "--view", VIEW_SQL,
        "--out", str(vk_path),
    )
    assert rc == 0
    assert "2 keys" in out

    out_dir = tmp_path / "revealed"
    rc, out, _ = run_cli(
        capsys,
        "reveal-view",
        "--table", str(table),
        "--view-keys", str(vk_path),
        "--out", str(out_dir),
    )
    assert rc == 0
    assert "revealed 3 rows" in out
    text = (out_dir / "view-part-00001.csv").read_text()
    assert text == "Interlake,blue\nInterlake,red\n"
    assert (out_dir / "view-part-00002.csv").read_text() == "Marine,red\n"


def test_encrypt_table_saves_its_key_before_it_commits(tmp_path, capsys, src_dir):
    """A table key that cannot be saved leaves no table: the rerun with a
    good keys directory commits, and its key opens the table."""
    table, keys = tmp_path / "table", tmp_path / "keys"
    (tmp_path / "a-file").write_text("")
    rc, _, err = run_cli(
        capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table),
        "--keys-dir", str(tmp_path / "a-file" / "keys"),
    )
    assert rc == 2 and "Not a directory" in err
    assert not (table / "manifest.json").exists()
    rc, _, _ = run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    assert rc == 0
    _, out, _ = run_cli(
        capsys, "add-family", "--table", str(table),
        "--table-key", str(keys / "boats.tablekey"), "--family", FAMILY_SQL, "--keys-dir", str(keys),
    )
    family_id = out.split()[1]
    vk = keys / "a.viewkeys"
    run_cli(
        capsys, "view-gen", "--table", str(table), "--family-id", family_id,
        "--family-key", str(keys / f"fam-{family_id}.familykey"), "--view", VIEW_SQL, "--out", str(vk),
    )
    rc, out, _ = run_cli(capsys, "reveal-view", "--table", str(table), "--view-keys", str(vk), "--out", str(tmp_path / "o"))
    assert (rc, out.split()[1]) == (0, "3")


def test_reveal_respects_fil(tmp_path, capsys, src_dir):
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    rc, out, _ = run_cli(
        capsys, "add-family", "--table", str(table),
        "--table-key", str(keys / "boats.tablekey"), "--family", FAMILY_SQL, "--keys-dir", str(keys),
    )
    family_id = out.split()[1]
    vk = keys / "a.viewkeys"
    run_cli(
        capsys, "view-gen", "--table", str(table), "--family-id", family_id,
        "--family-key", str(keys / f"fam-{family_id}.familykey"), "--view", VIEW_SQL, "--out", str(vk),
    )
    out_dir = tmp_path / "filtered"
    rc, _, _ = run_cli(
        capsys, "reveal-view", "--table", str(table), "--view-keys", str(vk),
        "--out", str(out_dir), "--fil", "2:2",
    )
    assert rc == 0
    assert [p.name for p in sorted(out_dir.iterdir())] == ["view-part-00002.csv"]


def _table_and_view_keys(tmp_path, capsys, src_dir, *views):
    """Encrypt `src_dir` into tmp_path/table, add the family, and mint
    each view's keys: the table, then one view key file per view."""
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    run_cli(
        capsys, "add-family", "--table", str(table),
        "--table-key", str(keys / "boats.tablekey"), "--family", FAMILY_SQL, "--keys-dir", str(keys),
    )
    (family_key,) = keys.glob("fam-*.familykey")
    paths = []
    for i, view_sql in enumerate(views):
        paths.append(keys / f"{i}.viewkeys")
        run_cli(
            capsys, "view-gen", "--table", str(table), "--family-id", family_key.name[4:20],
            "--family-key", str(family_key), "--view", view_sql, "--out", str(paths[-1]),
        )
    return table, *paths


def _dir_snapshot(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def test_reveal_replaces_the_view_files_of_an_earlier_reveal(tmp_path, capsys, src_dir):
    table, wide, narrow = _table_and_view_keys(
        tmp_path, capsys, src_dir, VIEW_SQL, "SELECT bname, color FROM boats WHERE color = 'red'"
    )
    out_dir = tmp_path / "revealed"
    for vk, fil in ((wide, []), (narrow, ["--fil", "1:1"])):
        rc, _, _ = run_cli(
            capsys, "reveal-view", "--table", str(table), "--view-keys", str(vk), "--out", str(out_dir), *fil
        )
        assert rc == 0
    assert _dir_snapshot(out_dir) == {"view-part-00001.csv": b"Interlake,red\n"}


def test_failed_reveal_exits_two_and_leaves_the_output_directory_as_it_was(tmp_path, capsys, src_dir):
    (src_dir / "part-00003.csv").write_text("105,Driftwood,red\n")
    table, vk = _table_and_view_keys(tmp_path, capsys, src_dir, VIEW_SQL)
    out_dir = tmp_path / "revealed"
    reveal = ("reveal-view", "--table", str(table), "--view-keys", str(vk), "--out", str(out_dir))
    assert run_cli(capsys, *reveal, "--fil", "3:3")[0] == 0
    before = _dir_snapshot(out_dir)
    assert before == {"view-part-00003.csv": b"Driftwood,red\n"}
    second, third = table / "part-00002.g1.mep", table / "part-00003.g1.mep"
    second_bytes = second.read_bytes()
    second.write_bytes(third.read_bytes())
    third.write_bytes(second_bytes)
    rc, err = _run_cli_process(*reveal)
    assert (rc, "Traceback" in err) == (2, False), err
    assert "partition file 2 carries id 3" in err
    assert _dir_snapshot(out_dir) == before


def test_plan_json_golden(tmp_path, capsys):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA_DOC))
    rc, out, _ = run_cli(
        capsys, "plan", "--schema", str(schema_path), "--family", FAMILY_SQL, "--json"
    )
    assert rc == 0
    assert json.loads(out) == GOLDEN_PLAN


def test_plan_reports_range_cover_counts(tmp_path, capsys):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA_DOC))
    rc, out, _ = run_cli(
        capsys,
        "plan",
        "--schema", str(schema_path),
        "--family", "SELECT * FROM boats WHERE bid >= ?lo AND bid <= ?hi",
        "--view", "SELECT * FROM boats WHERE bid >= 0 AND bid <= 255",
        "--json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["predicate_count"] == 9
    assert doc["total_values"] == 1
    counts = {p["atoms"][0]: p["value_count"] for p in doc["predicates"]}
    assert counts["bid[bits:56/64]"] == 1


def test_check_evaluates_oracle(capsys, src_dir):
    rc, out, _ = run_cli(capsys, "check", "--src", str(src_dir), "--view", VIEW_SQL)
    assert rc == 0
    assert out == "Interlake,blue\nInterlake,red\nMarine,red\n"


def test_check_rejects_a_mep_file_whose_id_differs_from_its_name(capsys, src_dir):
    schema = Schema.from_json(SCHEMA_DOC["columns"])
    blob = serialize_plain(PlainPartition(1, [[105, "Sunfish", "white"]]), schema)
    (src_dir / "part-00003.mep").write_bytes(blob)
    rc, _, err = run_cli(capsys, "check", "--src", str(src_dir), "--view", VIEW_SQL)
    assert rc == 2
    assert "partition file 3 carries id 1" in err


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["encrypt-table"]) == 1  # missing required flags
    assert main([]) == 1
    capsys.readouterr()


def test_data_errors_exit_two(tmp_path, capsys, src_dir):
    rc, _, err = run_cli(
        capsys, "reveal-view", "--table", str(tmp_path / "nowhere"),
        "--view-keys", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
    )
    assert rc == 2
    assert "error:" in err
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps(SCHEMA_DOC))
    rc, _, err = run_cli(
        capsys, "plan", "--schema", str(bad_schema), "--family", "SELECT * FROM t WHERE a LIKE ?x"
    )
    assert rc == 2


def _run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, so a leaked exception shows as
    a traceback on stderr rather than as a test error."""
    src = str(Path(sealview.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sealview.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stderr


def test_short_key_blobs_exit_two_without_traceback(tmp_path, capsys, src_dir):
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    view_keys = tmp_path / "short.viewkeys"
    view_keys.write_bytes(b"MVK1\x00\x01")
    rc, err = _run_cli_process(
        "reveal-view", "--table", str(table), "--view-keys", str(view_keys), "--out", str(tmp_path / "o")
    )
    assert (rc, "Traceback" in err) == (2, False), err
    assert "error: truncated view key blob" in err
    table_key = tmp_path / "short.tablekey"
    table_key.write_bytes(b"MKY1")
    rc, err = _run_cli_process(
        "add-family", "--table", str(table), "--table-key", str(table_key),
        "--family", FAMILY_SQL, "--keys-dir", str(keys),
    )
    assert (rc, "Traceback" in err) == (2, False), err
    assert "truncated key file" in err


def _columns(*names):
    return json.dumps({"columns": [{"name": name, "type": "utf8"} for name in names]})


@pytest.mark.parametrize(
    "text",
    [
        '{"table": "t"}',
        '{"columns": [{"name": "a"}]}',
        "not json",
        pytest.param(_columns("bid", "\udcff"), id="lone-surrogate-column-name"),
        pytest.param(_columns("a" * 65_536), id="column-name-over-65535-bytes"),
        pytest.param(
            json.dumps(dict(SCHEMA_DOC, table="\ud800")), id="lone-surrogate-table-name"
        ),
    ],
)
def test_bad_schema_descriptor_exits_two_without_traceback(tmp_path, src_dir, text):
    (src_dir / "schema.json").write_text(text)
    for argv in [
        ("encrypt-table", "--src", str(src_dir), "--dst", str(tmp_path / "table"),
         "--keys-dir", str(tmp_path / "keys")),
        ("plan", "--schema", str(src_dir / "schema.json"), "--family", FAMILY_SQL),
    ]:
        rc, err = _run_cli_process(*argv)
        assert (rc, "Traceback" in err) == (2, False), err
        assert "error: schema" in err


@pytest.mark.parametrize(
    "family, view, error",
    [
        # A serialized family stores a wildcard name's length in one byte.
        pytest.param(
            "SELECT * FROM boats WHERE bname IN ?" + "w" * 256, None, "longer than 255 characters",
            id="wildcard-over-255-bytes",
        ),
        # An undecodable command-line byte reaches the planner as a lone surrogate.
        pytest.param(
            FAMILY_SQL, "SELECT bname, color FROM boats WHERE bname = '\udcff'", "is not valid UTF-8",
            id="literal-not-utf8",
        ),
    ],
)
def test_text_the_formats_cannot_hold_exits_two_without_traceback(tmp_path, src_dir, family, view, error):
    argv = ["plan", "--schema", str(src_dir / "schema.json"), "--family", family]
    rc, err = _run_cli_process(*argv, *(["--view", view] if view else []))
    assert (rc, "Traceback" in err) == (2, False), err
    assert error in err


def test_reveal_of_a_partition_file_carrying_another_id_exits_two(tmp_path, capsys, src_dir):
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    _, out, _ = run_cli(
        capsys, "add-family", "--table", str(table),
        "--table-key", str(keys / "boats.tablekey"), "--family", FAMILY_SQL, "--keys-dir", str(keys),
    )
    family_id = out.split()[1]
    vk = keys / "a.viewkeys"
    run_cli(
        capsys, "view-gen", "--table", str(table), "--family-id", family_id,
        "--family-key", str(keys / f"fam-{family_id}.familykey"), "--view", VIEW_SQL, "--out", str(vk),
    )
    first, second = table / "part-00001.g1.mep", table / "part-00002.g1.mep"
    first_bytes = first.read_bytes()
    first.write_bytes(second.read_bytes())
    second.write_bytes(first_bytes)
    rc, err = _run_cli_process(
        "reveal-view", "--table", str(table), "--view-keys", str(vk),
        "--out", str(tmp_path / "o"), "--fil", "1:1",
    )
    assert (rc, "Traceback" in err) == (2, False), err
    assert "partition file 1 carries id 2" in err


def test_null_in_non_nullable_column_exits_two(tmp_path, src_dir):
    (src_dir / "part-00002.csv").write_text("103,NULL,green\n")
    rc, err = _run_cli_process(
        "encrypt-table", "--src", str(src_dir), "--dst", str(tmp_path / "table"),
        "--keys-dir", str(tmp_path / "keys"),
    )
    assert (rc, "Traceback" in err) == (2, False), err
    assert "null in non-nullable column 'bname'" in err


def test_non_utf8_csv_exits_two_without_traceback(tmp_path, src_dir):
    (src_dir / "part-00001.csv").write_bytes(b"ab\xff\n")
    for argv in [
        ("encrypt-table", "--src", str(src_dir), "--dst", str(tmp_path / "table"),
         "--keys-dir", str(tmp_path / "keys")),
        ("check", "--src", str(src_dir), "--view", VIEW_SQL),
    ]:
        rc, err = _run_cli_process(*argv)
        assert (rc, "Traceback" in err) == (2, False), err
        assert "part-00001.csv is not UTF-8" in err


def test_csv_field_over_the_csv_limit_exits_two_without_traceback(tmp_path, src_dir):
    (src_dir / "part-00002.csv").write_text("103,Clipper,green\n104," + "M" * 200_000 + ",red\n")
    for argv in [
        ("encrypt-table", "--src", str(src_dir), "--dst", str(tmp_path / "table"),
         "--keys-dir", str(tmp_path / "keys")),
        ("check", "--src", str(src_dir), "--view", VIEW_SQL),
    ]:
        rc, err = _run_cli_process(*argv)
        assert (rc, "Traceback" in err) == (2, False), err
        assert "line 2: field larger than field limit" in err


def test_partition_id_beyond_u32_exits_two_without_traceback(tmp_path, src_dir):
    (src_dir / "part-4294967296.csv").write_text("105,Driftwood,blue\n")
    rc, err = _run_cli_process(
        "encrypt-table", "--src", str(src_dir), "--dst", str(tmp_path / "table"),
        "--keys-dir", str(tmp_path / "keys"),
    )
    assert (rc, "Traceback" in err) == (2, False), err
    assert "partition ids must be in 1..4294967295, got 4294967296" in err


@pytest.mark.parametrize("name", ["../outside", "", ".", "..", "a/b", "a\\b", "a\0b"])
def test_table_name_that_is_not_a_file_name_exits_two_and_writes_nothing(tmp_path, src_dir, name):
    """The table name names the key file, so one that is a path would put
    the key outside --keys-dir."""
    (src_dir / "schema.json").write_text(json.dumps(dict(SCHEMA_DOC, table=name)))
    files_before = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    rc, err = _run_cli_process(
        "encrypt-table", "--src", str(src_dir), "--dst", str(tmp_path / "table"),
        "--keys-dir", str(tmp_path / "keys"),
    )
    assert (rc, "Traceback" in err) == (2, False), err
    assert "is not a file name" in err
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files_before


def test_table_name_defaults_to_the_source_directory_name(tmp_path, capsys, src_dir, monkeypatch):
    (src_dir / "schema.json").write_text(json.dumps({"columns": SCHEMA_DOC["columns"]}))
    monkeypatch.chdir(src_dir)
    rc, _, err = run_cli(capsys, "encrypt-table", "--src", ".", "--dst", str(tmp_path / "table"),
                         "--keys-dir", str(tmp_path / "keys"))
    assert (rc, err) == (0, "")
    assert [p.name for p in (tmp_path / "keys").glob("*.tablekey")] == ["src.tablekey"]


def test_importing_the_cli_loads_no_process_pool():
    """The pool module loads when a pool starts, so a command that runs
    inline does not pay for it."""
    src = str(Path(sealview.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, sealview.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_bad_cell_offset_fails_reveal_and_add_family_before_any_commit(tmp_path, capsys, src_dir):
    """Partition 1's first bname offset points past the column's end. The
    file parses, and the reveal that opens the row exits 2; an add-family
    whose WHERE column is intact still raises, when it writes the column
    out, and commits nothing."""
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    run_cli(capsys, "add-family", "--table", str(table), "--table-key", str(keys / "boats.tablekey"),
            "--family", FAMILY_SQL, "--keys-dir", str(keys))
    (family_key,) = keys.glob("fam-*.familykey")
    view_keys = keys / "a.viewkeys"
    run_cli(capsys, "view-gen", "--table", str(table), "--family-id", family_key.stem[4:],
            "--family-key", str(family_key), "--view", VIEW_SQL, "--out", str(view_keys))
    part = table / "part-00001.g1.mep"
    blob = part.read_bytes()
    bname = parse_partition(blob)[1].columns[1]
    part.write_bytes(with_cell_end(blob, 1, 0, len(bname.data) + 1))

    rc, err = _run_cli_process(
        "reveal-view", "--table", str(table), "--view-keys", str(view_keys), "--out", str(tmp_path / "out")
    )
    assert (rc, "Traceback" in err) == (2, False), err
    assert "cell end offsets are not non-decreasing" in err
    manifest = (table / "manifest.json").read_bytes()
    with pytest.raises(PartitionFormatError, match="non-decreasing"):
        run_add_family(
            LocalDirStorage(table), read_key(keys / "boats.tablekey"), "SELECT bid FROM boats WHERE bid IN ?b",
            config=OrchestratorConfig(workers=1),
        )
    assert (table / "manifest.json").read_bytes() == manifest


def test_table_without_a_manifest_exits_two_naming_it(tmp_path, capsys):
    (tmp_path / "table").mkdir()
    rc, _, err = run_cli(capsys, "plan", "--table", str(tmp_path / "table"), "--family", FAMILY_SQL)
    assert rc == 2
    assert "missing file 'manifest.json'" in err


def test_directory_file_arguments_exit_two_without_traceback(tmp_path, capsys, src_dir):
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    for argv in [
        ("plan", "--schema", str(tmp_path), "--family", FAMILY_SQL),
        ("add-family", "--table", str(table), "--table-key", str(tmp_path),
         "--family", FAMILY_SQL, "--keys-dir", str(keys)),
    ]:
        rc, err = _run_cli_process(*argv)
        assert (rc, "Traceback" in err) == (2, False), err
        assert "error: [Errno" in err and "Is a directory" in err


def _table_files(table):
    return {p.name: p.read_bytes() for p in sorted(table.iterdir())}


@pytest.mark.parametrize(
    "family", [FAMILY_SQL, "SELECT * FROM boats WHERE bid >= ?lo AND bid <= ?hi"]
)
def test_add_family_with_zero_branching_bits_exits_two_and_changes_nothing(tmp_path, capsys, src_dir, family):
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    before = _table_files(table)
    add_family = (
        "add-family", "--table", str(table), "--table-key", str(keys / "boats.tablekey"),
        "--family", family, "--keys-dir", str(keys),
    )
    rc, err = _run_cli_process(*add_family, "--branching-bits", "0")
    assert (rc, "Traceback" in err) == (2, False), err
    assert "branching bits must be 1, 2, 4, 8, 16, 32 or 64, got 0" in err
    assert _table_files(table) == before
    assert not list(keys.glob("fam-*"))
    rc, _, err = run_cli(capsys, *add_family)
    assert (rc, err) == (0, "")


@pytest.mark.parametrize("bits", ["0", "-8", "256"])
def test_plan_with_bad_branching_bits_exits_two_without_traceback(tmp_path, src_dir, bits):
    for family in (FAMILY_SQL, "SELECT * FROM boats WHERE bid >= ?lo"):
        rc, err = _run_cli_process(
            "plan", "--schema", str(src_dir / "schema.json"), "--family", family,
            "--branching-bits", bits,
        )
        assert (rc, "Traceback" in err) == (2, False), err
        assert f"branching bits must be 1, 2, 4, 8, 16, 32 or 64, got {bits}" in err


@pytest.mark.parametrize("bits", ["32", "64"])
def test_plan_of_an_unbounded_range_cover_exits_two_without_traceback(tmp_path, bits):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"columns": [{"name": "x", "type": "int64"}]}))
    started = time.perf_counter()
    rc, err = _run_cli_process(
        "plan", "--schema", str(schema_path), "--family", "SELECT * FROM t WHERE x < ?a",
        "--view", "SELECT * FROM t WHERE x < 5", "--branching-bits", bits,
    )
    assert (rc, "Traceback" in err) == (2, False), err
    assert "expands past" in err
    assert time.perf_counter() - started < 5


def test_out_of_range_int64_literal_exits_two_without_traceback(tmp_path, capsys, src_dir):
    family = "SELECT * FROM boats WHERE bid = ?b"
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    rc, out, _ = run_cli(
        capsys, "add-family", "--table", str(table), "--table-key", str(keys / "boats.tablekey"),
        "--family", family, "--keys-dir", str(keys),
    )
    family_id = out.split()[1]
    for where in ("bid = 99999999999999999999", "bid = -99999999999999999999", "bid IN (1, 99999999999999999999)"):
        view = f"SELECT * FROM boats WHERE {where}"
        for argv in [
            ("plan", "--schema", str(src_dir / "schema.json"), "--family", family, "--view", view),
            ("view-gen", "--table", str(table), "--family-id", family_id,
             "--family-key", str(keys / f"fam-{family_id}.familykey"), "--view", view, "--out", str(tmp_path / "vk")),
        ]:
            rc, err = _run_cli_process(*argv)
            assert (rc, "Traceback" in err) == (2, False), err
            assert "99999999999999999999 is out of Int64 range for column 'bid'" in err


def test_corrupted_manifest_exits_two_without_traceback(tmp_path, capsys, src_dir):
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))
    run_cli(
        capsys, "add-family", "--table", str(table), "--table-key", str(keys / "boats.tablekey"),
        "--family", FAMILY_SQL, "--keys-dir", str(keys),
    )
    view_keys = tmp_path / "analyst.viewkeys"
    family_key = next(keys.glob("fam-*.familykey"))
    run_cli(
        capsys, "view-gen", "--table", str(table), "--family-id", family_key.name[4:20],
        "--family-key", str(family_key), "--view", VIEW_SQL, "--out", str(view_keys),
    )
    manifest = (table / "manifest.json").read_bytes()
    for corrupted, message in [
        (manifest[: len(manifest) // 2], "not valid JSON"),
        (b"\xff\xfe" + manifest, "not valid JSON"),
        (b"[1]", "must be a JSON object"),
        (b'{"format_version": 1}', "version 1"),
        (manifest.replace(b'"canonical": "', b'"canonical": "zz'), "bad canonical form"),
        (manifest.replace(b'"generation": 1', b'"generation": -1'), "generation"),
    ]:
        (table / "manifest.json").write_bytes(corrupted)
        rc, err = _run_cli_process(
            "reveal-view", "--table", str(table), "--view-keys", str(view_keys),
            "--out", str(tmp_path / "o"),
        )
        assert (rc, "Traceback" in err) == (2, False), err
        assert message in err


def _add_family_and_reveal(capsys, tmp_path, table, keys):
    """add-family then a reveal; an exception from add-family is raised
    only after the reveal ran with the key left on disk."""
    add_family = (
        "add-family", "--table", str(table), "--table-key", str(keys / "boats.tablekey"),
        "--family", FAMILY_SQL, "--keys-dir", str(keys),
    )
    try:
        rc, _, err = run_cli(capsys, *add_family)
        crash = None
    except RuntimeError as exc:
        rc, err, crash = None, "", exc
    (family_key,) = keys.glob("fam-*.familykey")
    view_keys = tmp_path / "analyst.viewkeys"
    assert run_cli(
        capsys, "view-gen", "--table", str(table), "--family-id", family_key.name[4:20],
        "--family-key", str(family_key), "--view", VIEW_SQL, "--out", str(view_keys),
    )[0] == 0
    out_dir = tmp_path / "revealed"
    assert run_cli(
        capsys, "reveal-view", "--table", str(table), "--view-keys", str(view_keys), "--out", str(out_dir)
    )[0] == 0
    assert (out_dir / "view-part-00002.csv").read_text() == "Marine,red\n"
    if crash is not None:
        raise crash
    return rc, err


def test_failed_cleanup_delete_keeps_the_family_and_its_key(tmp_path, capsys, src_dir, monkeypatch):
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))

    def failing_delete(self, name):
        raise StorageError(f"delete {name!r} failed with status 503")

    monkeypatch.setattr(LocalDirStorage, "delete", failing_delete)
    rc, err = _add_family_and_reveal(capsys, tmp_path, table, keys)
    assert (rc, err) == (0, "")
    assert sorted(p.name for p in table.glob("part-*")) == [
        "part-00001.g0.mep", "part-00001.g1.mep", "part-00002.g0.mep", "part-00002.g1.mep",
    ]


def test_crash_after_commit_leaves_the_family_key_on_disk(tmp_path, capsys, src_dir, monkeypatch):
    table, keys = tmp_path / "table", tmp_path / "keys"
    run_cli(capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys))

    def crash(self, name):
        raise RuntimeError("process killed")

    monkeypatch.setattr(LocalDirStorage, "delete", crash)
    with pytest.raises(RuntimeError, match="killed"):
        _add_family_and_reveal(capsys, tmp_path, table, keys)


def test_keys_not_echoed_without_flag(tmp_path, capsys, src_dir):
    table, keys = tmp_path / "table", tmp_path / "keys"
    rc, out, _ = run_cli(
        capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table), "--keys-dir", str(keys)
    )
    key_hex = (keys / "boats.tablekey.hex").read_text().strip()
    assert key_hex not in out
    table2 = tmp_path / "table2"
    rc, out, _ = run_cli(
        capsys, "encrypt-table", "--src", str(src_dir), "--dst", str(table2),
        "--keys-dir", str(keys / "k2"), "--insecure-print-keys",
    )
    key_hex2 = (keys / "k2" / "boats.tablekey.hex").read_text().strip()
    assert key_hex2 in out


def test_http_table_without_requests_exits_two_without_traceback(tmp_path, capsys, monkeypatch):
    """With the optional `requests` missing, an http table is a data
    error that names the extra to install."""
    monkeypatch.setitem(sys.modules, "requests", None)
    argv = ["reveal-view", "--table", "http://127.0.0.1:9/t", "--view-keys", str(tmp_path / "k"), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "pip install 'sealview[http]'" in capsys.readouterr().err


def test_every_documented_flag_in_help(capsys):
    parser = build_parser()
    sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    commands = sub_actions[0].choices
    expected = {
        "encrypt-table": ["--src", "--dst", "--keys-dir", "--workers", "--insecure-print-keys"],
        "add-family": ["--table", "--table-key", "--family", "--keys-dir", "--tag-length", "--branching-bits"],
        "view-gen": ["--table", "--family-id", "--family-key", "--view", "--out"],
        "reveal-view": ["--table", "--view-keys", "--out", "--fil"],
        "plan": ["--family", "--view", "--schema", "--table", "--branching-bits", "--json"],
        "check": ["--src", "--view"],
        "bench": ["--rows", "--partitions", "--tag-length", "--selectivity", "--json"],
    }
    for command, flags in expected.items():
        help_text = commands[command].format_help()
        for flag in flags:
            assert flag in help_text, f"{command} help lacks {flag}"
        assert "--batch-size" not in help_text and "--no-pipeline" not in help_text
    # Seeded projection keys are guessable, and the other two only slow a
    # command down; the library keeps them for tests and benchmarks.
    for command, flags in {"add-family": ["--rng-seed", "--cache-capacity"], "reveal-view": ["--no-tags"]}.items():
        help_text = commands[command].format_help()
        for flag in flags:
            assert flag not in help_text, f"{command} help offers {flag}"


def test_bench_smoke_json(capsys):
    rc, out, _ = run_cli(
        capsys, "bench", "reveal-view", "--rows", "400", "--partitions", "2", "--json",
        "--workers", "1",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"] == 400
    for phase in ("encrypt-table", "add-family", "reveal-view"):
        assert "mb_per_second_plaintext" in doc[phase]
        assert doc[phase]["compute_seconds"] >= 0
