"""Run the benchmark on two trees in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B \
        [--seconds 30] [--out BENCH_name.json]

Each directory is a checkout with its own `perfbench/` and `src/`. Pair
i runs `python3 perfbench/run.py --workload W --seed N --seconds S` once
in each tree, at seed N = A + i; the parent runs first in even pairs
(i = 0, 2, ...) and the change first in odd ones, so drift over the
series falls on both sides. Every run's end-to-end values are kept.

For each metric of `BENCHMARK.json` (read from CHANGE_DIR) the output
holds the per-run values of both sides, their medians, inclusive
quartiles (`statistics.quantiles(n=4, method="inclusive")`) and
interquartile ranges, the change against the parent's median, whether
that stays within the metric's bound, and the change's wins: pairs in
which the change is strictly better. `gap_over_parent_iqr` is the
improvement of the median over the parent's interquartile range, so a
claimed gain needs it above 1 and at least 9 wins in 10 pairs. A metric
is `unresolved` when the parent's interquartile range over its median
exceeds the metric's bound, unless every change run is better than
every parent run: its runs spread too widely to call it unchanged.

A run that exits non-zero or prints no result counts as failed and adds
no values: its seed's place in its side's list holds null. The two runs
of a pair share a seed, and only pairs in which both runs have a value
are counted (`pairs`) and can be wins.

With `--out`, the workload's entry is written into that JSON file,
whose other workloads and keys are kept; the summary is printed either
way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PROTOCOL = (
    "alternating parent/change pairs, pair i at seed A+i; the parent runs first in even pairs, "
    "the change first in odd ones; each side runs from its own copy of the tree; quartiles are "
    "statistics.quantiles(n=4, method='inclusive') over one side's runs; a run that exits non-zero "
    "adds no value; a win is a pair whose runs both have a value and in which the change is strictly "
    "better; every run made is listed"
)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its result line, or a failed entry."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{") and '"metrics"' in line:
            result = json.loads(line)
            result["exit"] = proc.returncode
            return result
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


def run_values(runs: list[dict], name: str) -> list[float | None]:
    """Metric `name` of each run, in seed order; None where the run
    failed or did not report it."""
    return [r["metrics"][name]["value"] if r["exit"] == 0 and name in r["metrics"] else None for r in runs]


def compare(spec: dict, parent_runs: list[float | None], change_runs: list[float | None]) -> dict:
    """One metric's values on both sides, one per seed (None for a failed
    run), and their comparison."""
    lower = spec["better"] == "lower"
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
    out.update(parent=parent_runs, change=change_runs)
    pairs = [(p, c) for p, c in zip(parent_runs, change_runs) if p is not None and c is not None]
    parent = [p for p in parent_runs if p is not None]
    change = [c for c in change_runs if c is not None]
    if not parent or not change:
        return out
    pq, cq = quartiles(parent), quartiles(change)
    pm, cm = statistics.median(parent), statistics.median(change)
    rel = (cm - pm) / pm if pm else 0.0
    worse_by = rel if lower else -rel
    p_iqr = pq[2] - pq[0]
    spread = p_iqr / pm if pm else 0.0
    gain = (pm - cm) if lower else (cm - pm)
    clear = max(change) < min(parent) if lower else min(change) > max(parent)
    out.update(
        parent_median=pm,
        change_median=cm,
        parent_quartiles=pq,
        change_quartiles=cq,
        parent_iqr=p_iqr,
        change_iqr=cq[2] - cq[0],
        change_vs_parent=rel,
        worse_by=worse_by,
        within_bound=worse_by <= spec["bound"],
        parent_iqr_over_median=spread,
        unresolved=spread > spec["bound"] and not clear,
        gap_over_parent_iqr=gain / p_iqr if p_iqr else None,
        pairs=len(pairs),
        change_wins=sum((c < p) if lower else (c > p) for p, c in pairs),
    )
    return out


def summarize(seeds: list[int], runs: dict[str, list[dict]], specs: dict[str, dict]) -> dict:
    """The workload's entry: each side's runs, one per seed in seed
    order, compared metric by metric."""
    return {
        "seeds": seeds,
        "failed": {side: [r["failed"] if r["metrics"] else None for r in rs] for side, rs in runs.items()},
        "exit": {side: [r["exit"] for r in rs] for side, rs in runs.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "metrics": {
            name: compare(spec, run_values(runs["parent"], name), run_values(runs["change"], name))
            for name, spec in specs.items()
        },
    }


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def host() -> str:
    try:
        from importlib.metadata import version

        crypto = f", cryptography {version('cryptography')}"
    except Exception:
        crypto = ""
    return f"{os.cpu_count()} CPUs, Python {platform.python_version()}{crypto}"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    specs = {m["name"]: m for m in json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}

    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(result)
            value = result["metrics"].get("reveal_s", {}).get("value")
            print(f"seed {seed} {side}: exit {result['exit']}, reveal_s {value}", file=sys.stderr, flush=True)

    entry = summarize(args.seeds, runs, specs)
    for name, m in entry["metrics"].items():
        if "parent_median" in m:
            print(
                f"{args.workload:14s} {name:30s} {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                f"({100 * m['change_vs_parent']:+.1f}%, parent IQR {100 * m['parent_iqr_over_median']:.1f}%, "
                f"wins {m['change_wins']}/{m['pairs']}, within bound: {m['within_bound']}, "
                f"unresolved: {m['unresolved']})"
            )
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("command", "python3 perfbench/run.py --workload W --seed N --seconds %g" % args.seconds)
        doc.setdefault("protocol", PROTOCOL)
        doc.setdefault("host", host())
        doc.setdefault("workloads", {})[args.workload] = entry
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
