"""The pair-comparison tool's statistics, on synthetic runs: a run that
exits non-zero adds no values, and wins are counted over the pairs of
one seed in which both runs have a value."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = {"reveal_s": {"name": "reveal_s", "unit": "s", "better": "lower", "bound": 0.25}}


def _run(value, exit_code=0):
    """One run's result as `run_once` returns it."""
    if value is None:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "exit": exit_code}
    metrics = {"reveal_s": {"value": value, "unit": "s"}}
    return {"correct": exit_code == 0, "attempted": 1, "failed": 0, "metrics": metrics, "exit": exit_code}


def test_a_run_that_exits_non_zero_adds_no_values():
    # The change's second run printed a result but exited 1 (an incorrect output).
    runs = {
        "parent": [_run(1.0), _run(1.0), _run(1.0)],
        "change": [_run(0.5), _run(0.1, exit_code=1), _run(0.5)],
    }
    m = bench_pairs.summarize([1, 2, 3], runs, SPECS)["metrics"]["reveal_s"]
    assert m["change"] == [0.5, None, 0.5]
    assert m["change_median"] == 0.5 and m["change_quartiles"] == [0.5, 0.5, 0.5]
    assert (m["pairs"], m["change_wins"]) == (2, 2)


def test_wins_pair_the_runs_of_one_seed():
    # The parent's first run failed. Zipping the values that are left would
    # pair the parent's seed-2 run with the change's seed-1 run, and so on,
    # and count three wins where the change wins no pair of one seed.
    runs = {
        "parent": [_run(None, exit_code=1), _run(1.0), _run(2.0), _run(3.0)],
        "change": [_run(0.5), _run(1.5), _run(2.5), _run(3.5)],
    }
    entry = bench_pairs.summarize([1, 2, 3, 4], runs, SPECS)
    m = entry["metrics"]["reveal_s"]
    assert m["parent"] == [None, 1.0, 2.0, 3.0]
    assert (m["pairs"], m["change_wins"]) == (3, 0)
    assert m["parent_median"] == 2.0 and m["change_median"] == 2.0
    assert entry["exit"] == {"parent": [1, 0, 0, 0], "change": [0, 0, 0, 0]}
    assert entry["failed"]["parent"] == [None, 0, 0, 0]


def test_a_side_without_values_is_not_compared():
    runs = {"parent": [_run(1.0)], "change": [_run(None, exit_code=1)]}
    m = bench_pairs.summarize([1], runs, SPECS)["metrics"]["reveal_s"]
    assert m["change"] == [None] and "change_median" not in m


def test_a_spread_wider_than_the_bound_is_unresolved():
    # The parent's quartiles are 1.0 and 1.3: an IQR of 30% of its median
    # of 1.0, past the 25% bound.
    parent = [_run(v) for v in (1.0, 0.9, 1.3, 1.4, 1.0)]
    for change, unresolved in [((1.0, 1.0, 1.0, 1.0, 1.0), True), ((0.8, 0.8, 0.8, 0.8, 0.85), False)]:
        runs = {"parent": parent, "change": [_run(v) for v in change]}
        m = bench_pairs.summarize([1, 2, 3, 4, 5], runs, SPECS)["metrics"]["reveal_s"]
        assert m["parent_iqr_over_median"] > SPECS["reveal_s"]["bound"]
        assert m["unresolved"] is unresolved
    runs = {"parent": [_run(v) for v in (1.0, 1.0, 1.1)], "change": [_run(1.0)] * 3}
    assert bench_pairs.summarize([1, 2, 3], runs, SPECS)["metrics"]["reveal_s"]["unresolved"] is False


def test_gain_rule_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_parent_iqr():
    # The parent's quartiles are 1.025 and 1.175 (IQR 0.15, median 1.1).
    parent = [1.0, 1.2, 1.1, 1.0, 1.2, 1.1, 1.0, 1.2, 1.1, 1.1]
    for change, met in [
        ([0.8] * 10, True),  # 10 wins, the median 0.3 better: gap 2
        ([0.8] * 9 + [1.3], True),  # 9 wins of 10
        ([0.8] * 8 + [1.3] * 2, False),  # 8 wins of 10
        ([0.99] * 10, False),  # 10 wins, but the median only 0.11 better: gap 0.73
    ]:
        runs = {"parent": [_run(v) for v in parent], "change": [_run(v) for v in change]}
        m = bench_pairs.summarize(list(range(10)), runs, SPECS)["metrics"]["reveal_s"]
        assert m["gain_rule_met"] is met, change
    # A higher-is-better metric, with no spread at the parent: any gain clears it.
    specs = {"reveal_s": {**SPECS["reveal_s"], "better": "higher"}}
    runs = {"parent": [_run(1.0)] * 10, "change": [_run(1.01)] * 10}
    m = bench_pairs.summarize(list(range(10)), runs, specs)["metrics"]["reveal_s"]
    assert m["gap_over_parent_iqr"] is None and m["gain_rule_met"] is True


def test_progress_line_prints_every_end_to_end_value():
    specs = {**SPECS, "encrypt_rows_per_s": {"name": "encrypt_rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25}}
    result = _run(0.5)
    result["metrics"]["encrypt_rows_per_s"] = {"value": 120000.0, "unit": "rows/s"}
    line = bench_pairs.progress_line(9301, "change", result, specs)
    assert line == "seed 9301 change: exit 0, reveal_s 0.5, encrypt_rows_per_s 120000.0"
    failed = bench_pairs.progress_line(9302, "parent", _run(None, exit_code=1), specs)
    assert failed == "seed 9302 parent: exit 1, reveal_s None, encrypt_rows_per_s None"
