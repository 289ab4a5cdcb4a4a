"""Owner/reader benchmark for sealview.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Runs one workload through the orchestrator entry points the CLI calls,
on a `LocalDirStorage` table under `.perfbench-work/` in the checkout,
and compares every revealed view with `oracle.eval_view` over the
generated plaintext outside the timed region. With `--trace 0` it prints
the end-to-end metrics; with `--trace 1` it replays the workload through
each module's public functions and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
records the environment. The exit code is 0 only when every operation
succeeded and every output was correct. Without `src/sealview` beside
this directory it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ingest", "reveal-sparse", "reveal-dense")


def parse_args(argv):
    p = argparse.ArgumentParser(description="Owner/reader benchmark for sealview.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, help="table rows, a multiple of 8 (default: per workload)")
    return p.parse_args(argv)


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


def environment(args, workers: int, partitions: int, table_bytes: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": _version("cryptography"),
        "numpy": _version("numpy"),
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "rows": args.rows,
        "partitions": partitions,
        "plain_table_bytes": table_bytes,
        "trace": args.trace,
        "caveat": "the table fits in the page cache: storage latency is this host's, not a disk's",
    }


def main(argv=None, tamper=None) -> int:
    """`tamper`, when given, rewrites each revealed row list before the
    oracle gate; the self-test uses it to show that the gate bites."""
    args = parse_args(argv)
    if not (SRC / "sealview" / "__init__.py").is_file():
        print(f"error: no sealview sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sealview

    if not Path(sealview.__file__).resolve().is_relative_to(SRC):
        print(f"error: sealview was imported from {sealview.__file__}", file=sys.stderr)
        return 2
    import layers
    import prims
    import tables
    import workloads

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    run = workloads.Run(Path(tempfile.mkdtemp(dir=scratch)), tamper)
    args.rows = args.rows or workloads.WORKLOADS[args.workload]["rows"]
    try:
        failures = prims.known_answer_failures(args.seed)
        run.check(not failures, f"BlockCipher known answers: {', '.join(failures)}")
        if args.trace:
            metrics = workloads.run_traced(run, args.workload, args.seed, args.rows, args.seconds)
            units = layers.PER_LAYER_UNITS
        else:
            metrics = workloads.run_measured(run, args.workload, args.seed, args.rows, args.seconds)
            units = workloads.END_TO_END_UNITS
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    print(f"failed_op_share {run.failed / run.attempted:.6g} ratio  ({run.failed} of {run.attempted})")
    env = environment(args, workloads.WORKERS, tables.PARTITIONS, run.plain_bytes)
    print(json.dumps({"environment": env}))
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
