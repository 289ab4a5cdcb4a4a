"""Small-size self-test of the benchmark.

    python3 -m pytest -q perfbench

Runs every workload at 1,600 rows, with and without tracing, and checks
that the result names every metric in BENCHMARK.json with its unit, that
dropping one revealed row before the oracle gate fails the run, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, tamper=None):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv + ["--rows", "1600"], tamper=tamper)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_with_its_unit(workload, trace, kind):
    code, lines, result = _run(workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-2] if len(line.split()) >= 3}
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert printed["failed_op_share"] == "ratio"
    env = json.loads(lines[-2])["environment"]
    assert env["workers"] == 2 and env["partitions"] == 8 and env["seed"] == 5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_dropped_row_fails_the_oracle_gate(workload):
    dropped = []

    def drop_one(rows):
        dropped.append(len(rows) > 0)
        return rows[1:]

    code, _, result = _run(workload, 0, tamper=drop_one)
    assert any(dropped), "no revealed row to drop"
    assert code != 0
    assert not result["correct"] and result["failed"] >= sum(dropped)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
