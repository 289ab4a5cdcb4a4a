"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The multi-worker scaling criterion requires at
least four physical cores and skips (with a message) on smaller hosts.
"""

import os
import random
import time

import pytest

from sealview.backend import (
    AddFamilyStats,
    FamilyParams,
    RevealStats,
    add_family,
    encrypt_partition,
    generate_view_keys,
    random_key,
    reveal_partition,
)
from sealview.encoding import TYPE_INT64, TYPE_UTF8, encode_cell
from sealview.mep import serialize_encrypted
from sealview.model import Column, PlainPartition, Schema
from sealview.oracle import eval_view
from sealview.orchestrator import (
    MemoryStorage,
    OrchestratorConfig,
    run_add_family,
)
from sealview.planner import plan_family, plan_view
from sealview.planner.rewrite import RangeSet

from gen_random import random_family_and_view, random_rows, random_schema


def _report(number: int, message: str):
    print(f"CRITERION {number} PASS: {message}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_completeness_oracle_equivalence():
    """1,000 randomized end-to-end trials match the plaintext oracle."""
    rng = random.Random(0x5EA1)
    trials = 1000
    started = time.perf_counter()
    for trial in range(trials):
        schema = random_schema(rng, max_columns=6)
        rows = random_rows(rng, schema, max_rows=64)
        _, view_sql, family, view = random_family_and_view(rng, schema)
        table_key, family_key = random_key(), random_key()

        n_parts = rng.randint(1, 3)
        cut_points = sorted(rng.randint(0, len(rows)) for _ in range(n_parts - 1))
        bounds = [0, *cut_points, len(rows)]
        got = []
        for i in range(n_parts):
            chunk = rows[bounds[i] : bounds[i + 1]]
            plain = PlainPartition(i + 1, [list(r) for r in chunk])
            enc_part = encrypt_partition(plain, schema, table_key)
            add_family(enc_part, schema, table_key, family, family_key)
            keys = generate_view_keys(view, family_key)
            got.extend(reveal_partition(enc_part, schema, family, keys))

        expected = eval_view(schema, rows, view_sql)
        assert got == expected, f"trial {trial} diverged for {view_sql}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"completeness run took {elapsed:.0f}s, budget is 5 minutes"
    _report(1, f"{trials} randomized trials, zero divergence, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_planner_golden_range_cover():
    """0 <= x <= 4 over a 3-bit domain with b=1 covers {x[2:0]=4, x[2]=0}."""
    cover = RangeSet.from_intervals(3, [(0, 4)]).cover(1)
    assert cover == {3: [4], 1: [0]}
    _report(2, "3-bit range cover is exactly {x[2:0] IN (4), x[2] IN (0)}")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_combination_effect_counts():
    """AND-elimination multiplies value-list sizes exactly."""
    schema = Schema((Column("a", TYPE_INT64), Column("b", TYPE_INT64)))
    family = plan_family("SELECT * FROM t WHERE a = ?x AND b = ?y", schema)
    assert family.n_pred == 1
    for sizes, expected in (((2, 2), 4), ((3, 4), 12), ((1, 5), 5)):
        lhs = ", ".join(str(i) for i in range(sizes[0]))
        rhs = ", ".join(str(100 + i) for i in range(sizes[1]))
        view = plan_view(
            f"SELECT * FROM t WHERE a IN ({lhs}) AND b IN ({rhs})", family, schema
        )
        assert len(view.values[0]) == expected, f"sizes {sizes}"
    _report(3, "value counts 4, 12, 5 for input sizes (2,2), (3,4), (1,5)")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_tag_truncation_robustness():
    """1-byte tags give byte-identical output to 16-byte tags on 50k rows."""
    rng = random.Random(0x7A6)
    schema = Schema((Column("k", TYPE_INT64), Column("label", TYPE_UTF8)))
    rows = [[rng.randint(0, 400), rng.choice("abcdefgh") * 3] for _ in range(50_000)]
    plain = PlainPartition(1, rows)
    family = plan_family("SELECT * FROM t WHERE k = ?x OR label = ?y", schema)
    view_sql = "SELECT * FROM t WHERE k IN (7, 19, 23, 101) OR label = 'ccc'"
    table_key, family_key = random_key(), random_key()

    outputs = {}
    for tag_length in (1, 16):
        enc_part = encrypt_partition(plain, schema, table_key)
        add_family(
            enc_part, schema, table_key, family, family_key,
            FamilyParams(tag_length=tag_length),
        )
        view = plan_view(view_sql, family, schema)
        keys = generate_view_keys(view, family_key, tag_length=tag_length)
        stats = RevealStats()
        outputs[tag_length] = reveal_partition(
            enc_part, schema, family, keys, stats=stats
        )
        if tag_length == 1:
            # Truncation collisions must actually occur for this test to
            # mean anything; they are caught by the projection check.
            assert stats.decrypt_attempts > stats.decrypt_successes
    assert outputs[1] == outputs[16]
    assert outputs[1] == eval_view(schema, rows, view_sql)
    _report(4, f"{len(outputs[1])} matching rows identical at 1-byte and 16-byte tags")


# ---------------------------------------------------------------- criterion 5


N_ROWS_SPEEDUP = 200_000
_WINDOW_LO = 171 * (1 << 24)
_WINDOW_HI = 187 * (1 << 24) - 1


def _speedup_table():
    rng = random.Random(0xBEEF)
    pool = []
    while len(pool) < 510:
        v = rng.randrange(0, 1 << 32)
        if not _WINDOW_LO <= v <= _WINDOW_HI:
            pool.append(v)
    pool.append(_WINDOW_LO + 12_345)
    pool.append(_WINDOW_LO + 9 * (1 << 24) + 999_888)
    rows = [[i, rng.choice(pool)] for i in range(N_ROWS_SPEEDUP)]
    schema = Schema((Column("id", TYPE_INT64), Column("v", TYPE_INT64)))
    return schema, rows


def test_criterion_5_key_hiding_tag_speedup():
    """Tags make a low-selectivity inequality reveal >= 10x faster."""
    schema, rows = _speedup_table()
    family = plan_family("SELECT * FROM t WHERE v >= ?lo AND v <= ?hi", schema)
    assert family.n_pred >= 8
    table_key, family_key = random_key(), random_key()
    plain = PlainPartition(1, rows)
    enc_part = encrypt_partition(plain, schema, table_key)
    add_family(enc_part, schema, table_key, family, family_key)
    view = plan_view(
        f"SELECT * FROM t WHERE v >= {_WINDOW_LO} AND v <= {_WINDOW_HI}", schema=schema, family=family
    )
    keys = generate_view_keys(view, family_key)
    assert keys.total_keys() >= 10

    tagged_stats = RevealStats()
    t0 = time.perf_counter()
    tagged = reveal_partition(enc_part, schema, family, keys, stats=tagged_stats)
    tagged_time = time.perf_counter() - t0

    selectivity = len(tagged) / N_ROWS_SPEEDUP
    assert 0 < selectivity < 0.01, f"selectivity {selectivity:.4%} outside the bar"

    t0 = time.perf_counter()
    naive = reveal_partition(enc_part, schema, family, keys, use_tags=False)
    naive_time = time.perf_counter() - t0

    assert tagged == naive
    speedup = naive_time / tagged_time
    assert speedup >= 10, f"speedup {speedup:.1f}x below the 10x bar"
    _report(
        5,
        f"{keys.total_keys()} keys, selectivity {selectivity:.2%}, "
        f"tags {tagged_time:.2f}s vs naive {naive_time:.2f}s = {speedup:.0f}x",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_selectivity_linearity():
    """Reveal crypto time is linear in matched rows (R^2 >= 0.9)."""
    rng = random.Random(0x11A)
    n_rows = 100_000
    schema = Schema((Column("id", TYPE_INT64), Column("v", TYPE_INT64)))
    rows = [[i, rng.randrange(512) * (1 << 23)] for i in range(n_rows)]
    plain = PlainPartition(1, rows)
    family = plan_family("SELECT * FROM t WHERE v >= ?lo AND v <= ?hi", schema)
    table_key, family_key = random_key(), random_key()
    enc_part = encrypt_partition(plain, schema, table_key)
    add_family(enc_part, schema, table_key, family, family_key)

    matched_counts = []
    crypto_times = []
    for k in (5, 26, 51, 128, 256):  # ~1%, 5%, 10%, 25%, 50% of value slots
        hi = k * (1 << 23) - 1
        view = plan_view(f"SELECT * FROM t WHERE v >= 0 AND v <= {hi}", family, schema)
        keys = generate_view_keys(view, family_key)
        stats = RevealStats()
        out = reveal_partition(enc_part, schema, family, keys, stats=stats)
        matched_counts.append(len(out))
        crypto_times.append(stats.crypto_seconds)

    n = len(matched_counts)
    mean_x = sum(matched_counts) / n
    mean_y = sum(crypto_times) / n
    sxx = sum((x - mean_x) ** 2 for x in matched_counts)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(matched_counts, crypto_times))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(matched_counts, crypto_times)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in crypto_times)
    r_squared = 1 - ss_res / ss_tot
    assert r_squared >= 0.9, f"R^2 {r_squared:.3f} below 0.9 ({crypto_times})"
    _report(
        6,
        f"crypto time vs matches over {matched_counts} rows fits R^2 = {r_squared:.3f}",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_size_overhead():
    """A SELECT-* single-equality family at most doubles the table size."""
    rng = random.Random(0x51E)
    schema = Schema(
        (
            Column("id", TYPE_INT64),
            Column("region", TYPE_INT64),
            Column("name", TYPE_UTF8),
            Column("score", TYPE_INT64),
        )
    )
    rows = [
        [i, rng.randrange(50), "item-" + format(rng.randrange(10_000), "04d"), rng.randrange(10**6)]
        for i in range(5000)
    ]
    plain = PlainPartition(1, rows)
    table_key = random_key()
    enc_part = encrypt_partition(plain, schema, table_key)
    base_bytes = len(serialize_encrypted(enc_part, schema))
    family = plan_family("SELECT * FROM t WHERE region = ?x", schema)
    add_family(enc_part, schema, table_key, family, random_key())
    family_bytes = len(serialize_encrypted(enc_part, schema))
    ratio = family_bytes / base_bytes
    assert ratio <= 2.0, f"size ratio {ratio:.3f} exceeds 2.0"
    _report(7, f"AddFamily output is {ratio:.2f}x the EncryptTable output")


# ---------------------------------------------------------------- criterion 8


def _scaling_table(storage: MemoryStorage) -> bytes:
    """16-partition in-memory encrypted table, sized so compute dominates."""
    import json
    from pathlib import Path
    import tempfile

    rng = random.Random(0x5CA1E)
    with tempfile.TemporaryDirectory() as work:
        src = Path(work)
        (src / "schema.json").write_text(
            json.dumps(
                {
                    "table": "scale",
                    "columns": [
                        {"name": "id", "type": "int64"},
                        {"name": "grp", "type": "int64"},
                    ],
                }
            )
        )
        for pid in range(1, 17):
            lines = [f"{i},{rng.randrange(64)}" for i in range(4000)]
            (src / f"part-{pid:05d}.csv").write_text("\n".join(lines) + "\n")
        from sealview.orchestrator import run_encrypt_table

        _, table_key = run_encrypt_table(
            src, storage, None, OrchestratorConfig(workers=1)
        )
    return table_key


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="multi-worker scaling criterion requires a >= 4-core machine",
)
def test_criterion_8_multi_worker_scaling():
    """AddFamily over 16 partitions speeds up >= 2.8x with 4 workers."""
    base = MemoryStorage()
    table_key = _scaling_table(base)
    timings = {}
    for workers in (1, 4):
        storage = MemoryStorage()
        storage.files = dict(base.files)
        config = OrchestratorConfig(workers=workers)
        t0 = time.perf_counter()
        run_add_family(
            storage, table_key, "SELECT * FROM scale WHERE grp = ?x", config=config
        )
        timings[workers] = time.perf_counter() - t0
    speedup = timings[1] / timings[4]
    assert speedup >= 2.8, f"4-worker speedup {speedup:.2f}x below 2.8x"
    _report(8, f"4 workers: {speedup:.2f}x over 1 worker on 16 partitions")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_selection_cache_transparency_and_benefit():
    """Cache changes nothing but time; >= 1.2x on a 64-value column."""
    rng = random.Random(0xCAC4E)
    n_rows = 100_000
    schema = Schema((Column("id", TYPE_INT64), Column("grp", TYPE_INT64)))
    rows = [[i, rng.randrange(64)] for i in range(n_rows)]
    plain = PlainPartition(1, rows)
    family = plan_family("SELECT * FROM t WHERE grp = ?x", schema)
    table_key, family_key = random_key(), random_key()

    blobs = {}
    crypto_times = {}
    for capacity in (0, 512):
        enc_part = encrypt_partition(plain, schema, table_key)
        stats = AddFamilyStats()
        add_family(
            enc_part, schema, table_key, family, family_key,
            FamilyParams(cache_capacity=capacity), stats=stats,
        )
        blobs[capacity] = serialize_encrypted(enc_part, schema)
        crypto_times[capacity] = stats.crypto_seconds
    assert blobs[0] == blobs[512], "cache must be output-transparent"
    ratio = crypto_times[0] / crypto_times[512]
    assert ratio >= 1.2, f"cache speedup {ratio:.2f}x below 1.2x"
    _report(
        9,
        f"outputs identical; AddFamily crypto {crypto_times[0]:.2f}s -> "
        f"{crypto_times[512]:.2f}s = {ratio:.1f}x with the cache",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_structural_indistinguishability_smoke():
    """Lengths/layouts equal for length-equal plaintexts; no plaintext
    leaks into the files; repeated-key tags stay pairwise distinct."""
    schema = Schema(
        (
            Column("id", TYPE_INT64),
            Column("secret", TYPE_UTF8),
            Column("grade", TYPE_INT64),
        )
    )
    protected = [
        "CONFIDENTIAL-RECORD-A", "CONFIDENTIAL-RECORD-B", "CONFIDENTIAL-RECORD-C",
    ]
    substitutes = ["xxxxxxxxxxxxxxxxxxx-1", "xxxxxxxxxxxxxxxxxxx-2", "xxxxxxxxxxxxxxxxxxx-3"]
    shared = [[i, f"plain-{i:03d}", i % 7] for i in range(200)]
    rows_a = [list(r) for r in shared]
    rows_b = [list(r) for r in shared]
    for i, (a_val, b_val) in enumerate(zip(protected, substitutes)):
        assert len(a_val) == len(b_val)
        rows_a[10 + i][1] = a_val
        rows_b[10 + i][1] = b_val

    table_key, family_key = random_key(), random_key()
    family = plan_family("SELECT id, grade FROM t WHERE grade = ?x", schema)
    serialized = {}
    for name, rows in (("a", rows_a), ("b", rows_b)):
        enc_part = encrypt_partition(PlainPartition(1, rows), schema, table_key)
        add_family(
            enc_part, schema, table_key, family, family_key, FamilyParams(rng_seed=3)
        )
        serialized[name] = serialize_encrypted(enc_part, schema)
        cols = enc_part.families[family.family_id]
        layout = (
            [[len(c) for c in row] for row in enc_part.rows],
            [len(e) for e in cols.projection],
            [len(e) for e in cols.selection],
            [len(e) for e in cols.tagging],
        )
        serialized[name + "-layout"] = layout
    assert len(serialized["a"]) == len(serialized["b"])
    assert serialized["a-layout"] == serialized["b-layout"]

    for value in protected:
        for encoding in (value.encode(), encode_cell(value, TYPE_UTF8)):
            assert len(encoding) >= 8
            assert encoding not in serialized["a"]

    # Repeated selection key: one value in every row; full-width tags are
    # outputs of a permutation over distinct counters, hence distinct.
    n = 10_000
    rows = [[i, "x", 1] for i in range(n)]
    repeat_key = random_key()
    enc_part = encrypt_partition(PlainPartition(1, rows), schema, repeat_key)
    add_family(
        enc_part, schema, repeat_key, family, random_key(), FamilyParams(tag_length=16)
    )
    tags = enc_part.families[family.family_id].tagging
    assert len(set(tags)) == n
    _report(10, "layout equality, no plaintext substrings, 10^4 distinct tags")
