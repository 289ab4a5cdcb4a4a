"""Operator command line.

Subcommands: encrypt-table, add-family, view-gen, reveal-view, plan,
check, bench. Exit codes: 0 success, 1 usage error, 2 data or crypto
error. Keys live in files under a keys directory; nothing secret is
printed unless --insecure-print-keys is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .backend import DEFAULT_TAG_LENGTH, BackendError
from .encoding import EncodingError
from .keys import KeyFileError, read_key, read_view_keys, write_key, write_view_keys
from .manifest import ManifestError
from .mep import PartitionFormatError, partition_to_csv
from .model import Schema, SchemaError
from .oracle import eval_view
from .orchestrator import (
    OrchestratorConfig,
    OrchestratorError,
    RunReport,
    StorageError,
    discover_plain_partitions,
    load_manifest,
    load_schema_descriptor,
    open_storage,
    parse_plain_source,
    parse_schema_descriptor,
    run_add_family,
    run_encrypt_table,
    run_reveal_view,
    run_view_gen,
)
from .planner import DEFAULT_BRANCHING_BITS, PlannerError, describe_plan, plan_family, plan_view
from .primitives import CryptoError

_DATA_ERRORS = (
    BackendError,
    CryptoError,
    EncodingError,
    KeyFileError,
    ManifestError,
    OrchestratorError,
    PartitionFormatError,
    PlannerError,
    SchemaError,
    StorageError,
    OSError,  # a missing, unreadable or directory file argument
)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--workers", type=int, default=0, help="worker processes (default: CPUs)")


def _config(args) -> OrchestratorConfig:
    return OrchestratorConfig(workers=args.workers)


def _parse_fil(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a lo:hi partition id range") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sealview",
        description="Cryptographic access-control views over partitioned tables.",
    )
    parser.add_argument("--version", action="version", version=f"sealview {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt-table", help="encrypt a plaintext table directory")
    p.set_defaults(handler=cmd_encrypt_table)
    p.add_argument("--src", required=True, help="directory with schema.json and part-*.csv/.mep")
    p.add_argument("--dst", required=True, help="storage root for the encrypted table")
    p.add_argument("--keys-dir", required=True, help="directory that receives the table key file")
    p.add_argument("--insecure-print-keys", action="store_true")
    _add_run_flags(p)

    p = sub.add_parser("add-family", help="instantiate an access-control view family")
    p.set_defaults(handler=cmd_add_family)
    p.add_argument("--table", required=True, help="encrypted table storage root")
    p.add_argument("--table-key", required=True, help="path to the table key file")
    p.add_argument("--family", required=True, help="family SQL with ?wildcards")
    p.add_argument("--keys-dir", required=True, help="directory that receives the family key file")
    p.add_argument("--tag-length", type=int, default=DEFAULT_TAG_LENGTH)
    p.add_argument("--branching-bits", type=int, default=DEFAULT_BRANCHING_BITS)
    p.add_argument("--insecure-print-keys", action="store_true")
    _add_run_flags(p)

    p = sub.add_parser("view-gen", help="mint view keys for a view in a family")
    p.set_defaults(handler=cmd_view_gen)
    p.add_argument("--table", required=True)
    p.add_argument("--family-id", required=True)
    p.add_argument("--family-key", required=True, help="path to the family key file")
    p.add_argument("--view", required=True, help="view SQL with literal constants")
    p.add_argument("--out", required=True, help="output path for the view key blob")
    p.add_argument("--insecure-print-keys", action="store_true")

    p = sub.add_parser("reveal-view", help="decrypt a view into local CSV partitions")
    p.set_defaults(handler=cmd_reveal_view)
    p.add_argument("--table", required=True)
    p.add_argument("--view-keys", required=True, help="path to the view key blob")
    p.add_argument("--out", required=True, help="local output directory")
    p.add_argument("--fil", type=_parse_fil, default=None, help="inclusive partition id range lo:hi")
    _add_run_flags(p)

    p = sub.add_parser("plan", help="show the canonical form of a family or view")
    p.set_defaults(handler=cmd_plan)
    p.add_argument("--family", required=True, help="family SQL")
    p.add_argument("--view", default=None, help="view SQL to bind against the family")
    p.add_argument("--schema", default=None, help="schema.json path")
    p.add_argument("--table", default=None, help="read the schema from a table root")
    p.add_argument("--branching-bits", type=int, default=DEFAULT_BRANCHING_BITS)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="evaluate a view over plaintext partitions (debugging)")
    p.set_defaults(handler=cmd_check)
    p.add_argument("--src", required=True, help="plaintext table directory")
    p.add_argument("--view", required=True)

    p = sub.add_parser("bench", help="synthetic throughput report (informational)")
    p.set_defaults(handler=cmd_bench)
    p.add_argument("phase", choices=["encrypt-table", "add-family", "reveal-view"])
    p.add_argument("--rows", type=int, default=20_000)
    p.add_argument("--partitions", type=int, default=4)
    p.add_argument("--tag-length", type=int, default=DEFAULT_TAG_LENGTH)
    p.add_argument("--selectivity", type=float, default=0.05)
    p.add_argument("--json", action="store_true")
    _add_run_flags(p)
    return parser


def _load_plan_schema(args) -> Schema:
    if args.schema:
        path = Path(args.schema)  # plan uses no table name; the default is the file's stem
        return parse_schema_descriptor(path.read_bytes(), path.stem)[1]
    if args.table:
        return load_manifest(open_storage(args.table)).schema
    raise OrchestratorError("plan needs --schema or --table")


def cmd_encrypt_table(args) -> int:
    report = RunReport()
    storage = open_storage(args.dst)
    key_dir = Path(args.keys_dir)

    def save_key(table_name, table_key):
        # Before the commit: a committed table always has its key on disk.
        write_key(key_dir / f"{table_name}.tablekey", table_key)

    manifest, table_key = run_encrypt_table(
        args.src, storage, None, _config(args), report, before_commit=save_key
    )
    key_path = key_dir / f"{manifest.name}.tablekey"
    print(f"encrypted {report.partitions} partitions into {args.dst}")
    print(f"table key written to {key_path}")
    if args.insecure_print_keys:
        print(f"table key (hex): {table_key.hex()}")
    return 0


def cmd_add_family(args) -> int:
    storage = open_storage(args.table)
    table_key = read_key(args.table_key)
    report = RunReport()
    key_dir = Path(args.keys_dir)

    def save_key(family_id, family_key):
        # Before the commit: a registered family always has its key on disk.
        write_key(key_dir / f"fam-{family_id}.familykey", family_key)

    family_id, family_key = run_add_family(
        storage,
        table_key,
        args.family,
        None,
        tag_length=args.tag_length,
        branching_bits=args.branching_bits,
        config=_config(args),
        report=report,
        before_commit=save_key,
    )
    key_path = key_dir / f"fam-{family_id}.familykey"
    print(f"family {family_id} instantiated on {report.partitions} partitions")
    print(f"family key written to {key_path}")
    if args.insecure_print_keys:
        print(f"family key (hex): {family_key.hex()}")
    return 0


def cmd_view_gen(args) -> int:
    storage = open_storage(args.table)
    family_key = read_key(args.family_key)
    keys = run_view_gen(storage, args.family_id, family_key, args.view)
    write_view_keys(args.out, keys)
    print(f"view keys for family {keys.family_id}: {keys.total_keys()} keys")
    print(f"written to {args.out}")
    if args.insecure_print_keys:
        print(f"view key blob (hex): {keys.serialize().hex()}")
    return 0


def cmd_reveal_view(args) -> int:
    storage = open_storage(args.table)
    keys = read_view_keys(args.view_keys)
    report = RunReport()
    paths = run_reveal_view(storage, keys, args.out, fil=args.fil, config=_config(args), report=report)
    emitted = sum(stats.rows_emitted for stats in report.stats)
    print(f"revealed {emitted} rows across {len(paths)} partitions into {args.out}")
    return 0


def cmd_plan(args) -> int:
    schema = _load_plan_schema(args)
    family = plan_family(args.family, schema, branching_bits=args.branching_bits)
    view = plan_view(args.view, family, schema) if args.view else None
    summary = describe_plan(family, schema, view)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"family {summary['family_id']}: {summary['predicate_count']} predicates")
    print(f"projected columns: {', '.join(summary['projected'])}")
    for pred in summary["predicates"]:
        line = f"  g{pred['index']}: " + " ⊛ ".join(pred["atoms"])
        if "value_count" in pred:
            line += f"  [{pred['value_count']} values]"
        print(line)
    if view is not None:
        print(f"total bound values: {summary['total_values']}")
    return 0


def cmd_check(args) -> int:
    src = Path(args.src)
    _, schema = load_schema_descriptor(src)
    rows = []
    for source in discover_plain_partitions(src):
        rows.extend(parse_plain_source(source, source[2].read_bytes(), schema).rows)
    partition_to_csv(eval_view(schema, rows, args.view), sys.stdout)
    return 0


def cmd_bench(args) -> int:
    import random
    import tempfile

    from .orchestrator import LocalDirStorage

    rng = random.Random(1234)
    with tempfile.TemporaryDirectory() as work:
        src = Path(work) / "src"
        src.mkdir()
        (src / "schema.json").write_text(
            json.dumps(
                {
                    "table": "bench",
                    "columns": [
                        {"name": "id", "type": "int64"},
                        {"name": "grp", "type": "int64"},
                        {"name": "label", "type": "utf8"},
                    ],
                }
            )
        )
        group_span = max(1, int(1 / max(args.selectivity, 1e-6)))
        for pid in range(1, args.partitions + 1):
            lines = []
            for i in range(args.rows // args.partitions):
                lines.append(f"{i},{rng.randrange(group_span)},row-{rng.randrange(1000)}")
            (src / f"part-{pid:05d}.csv").write_text("\n".join(lines) + "\n")

        storage = LocalDirStorage(Path(work) / "table")
        config = _config(args)
        reports = {}
        enc_report = RunReport()
        _, table_key = run_encrypt_table(src, storage, None, config, enc_report)
        plain_bytes = sum(stats.plain_bytes for stats in enc_report.stats)
        reports["encrypt-table"] = enc_report
        if args.phase in ("add-family", "reveal-view"):
            fam_report = RunReport()
            family_id, family_key = run_add_family(
                storage,
                table_key,
                "SELECT * FROM bench WHERE grp = ?x",
                tag_length=args.tag_length,
                config=config,
                report=fam_report,
            )
            reports["add-family"] = fam_report
            if args.phase == "reveal-view":
                keys = run_view_gen(storage, family_id, family_key, "SELECT * FROM bench WHERE grp = 0")
                rev_report = RunReport()
                run_reveal_view(storage, keys, Path(work) / "out", config=config, report=rev_report)
                reports["reveal-view"] = rev_report

    doc = {"rows": args.rows, "partitions": args.partitions, "plaintext_bytes": plain_bytes}
    for phase, report in reports.items():
        mbps = plain_bytes / report.wall_seconds / 1e6 if report.wall_seconds else None
        doc[phase] = {
            "fetch_seconds": round(report.fetch_seconds, 6),
            "compute_seconds": round(report.compute_seconds, 6),
            "store_seconds": round(report.store_seconds, 6),
            "wall_seconds": round(report.wall_seconds, 6),
            "output_bytes": report.output_bytes,
            "mb_per_second_plaintext": round(mbps, 3) if mbps else None,
        }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"plaintext bytes: {plain_bytes}")
        for phase, numbers in doc.items():
            if isinstance(numbers, dict):
                rate = numbers["mb_per_second_plaintext"]
                print(
                    f"{phase}: compute {numbers['compute_seconds']}s, wall {numbers['wall_seconds']}s"
                    + (f", {rate} MB/s over plaintext" if rate else "")
                )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return 1  # argparse usage errors
    try:
        return args.handler(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
