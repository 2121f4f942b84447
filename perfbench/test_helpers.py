"""Tests of the benchmark's pure helpers and of its metric declaration.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from helpers import (  # noqa: E402
    DUP, FRESH, HIT, group_self_time, latencies, lateness, layer_of,
    make_mix, module_of, nearest_rank, open_loop_schedule, reference_seconds,
    spec_seeds, summarize, tail, tail_pct,
)

SRC = "/checkout/src"


# ---------------------------------------------------------------- percentiles
def test_nearest_rank_picks_ranked_sample():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 50) == 7.0
    assert nearest_rank([3, 1, 2], 50) == 2


def test_nearest_rank_rejects_empty_sample():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


@pytest.mark.parametrize("n,expected", [
    (100, 90),   # exactly 10 beyond p90
    (240, 90),
    (99, 89),    # p90 would leave only 9 beyond
    (50, 80),
    (11, 9),
    (10, None),  # no percentile has 10 samples beyond it
    (0, None),
])
def test_tail_pct_keeps_ten_samples_beyond(n, expected):
    pct = tail_pct(n, 90)
    assert pct == expected
    if pct is not None:
        assert n - math.ceil(pct * n / 100) >= 10


def test_tail_reports_the_percentile_it_used():
    values = [float(v) for v in range(50)]
    pct, value = tail(values, 90)
    assert pct == 80
    assert value == nearest_rank(values, 80)
    assert sum(1 for v in values if v > value) >= 10
    assert tail(values[:5], 90) == (None, None)


def test_summarize_matches_statistics_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == {"median": statistics.median(values),
                                 "q1": q1, "q3": q3, "n": 6}
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


# ------------------------------------------------------------- host speed
def test_reference_seconds_scales_wall_by_measured_speed():
    times = [0.1 * i for i in range(1, 21)]  # a sample every 0.1 s to 2 s
    nominal = [1.0] * 20
    assert reference_seconds(times, nominal, 0.0, 2.0,
                             reference_s=1.0) == pytest.approx(2.0)
    # The host runs at half speed for the second second.
    slow = [1.0] * 10 + [2.0] * 10
    assert reference_seconds(times, slow, 0.0, 1.0,
                             reference_s=1.0, smooth=1) == pytest.approx(1.0)
    assert reference_seconds(times, slow, 1.0, 2.0,
                             reference_s=1.0, smooth=1) == pytest.approx(0.5)
    # Past the last sample, the last speed holds.
    assert reference_seconds(times, slow, 2.0, 3.0,
                             reference_s=1.0, smooth=1) == pytest.approx(0.5)


def test_reference_seconds_median_smooths_single_outliers():
    times = [0.1 * i for i in range(1, 21)]
    durations = [1.0] * 20
    durations[7] = 50.0  # one sample preempted mid-measurement
    assert reference_seconds(times, durations, 0.0, 2.0,
                             reference_s=1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        reference_seconds([], [], 0.0, 1.0, reference_s=1.0)
    with pytest.raises(ValueError):
        reference_seconds(times, durations, 1.0, 0.5, reference_s=1.0)


# ------------------------------------------------------------- self time
def test_module_of_maps_repro_files_only():
    assert module_of(f"{SRC}/repro/hw/node.py", SRC) == "repro.hw.node"
    assert module_of(f"{SRC}/repro/sched/__init__.py", SRC) == "repro.sched"
    assert module_of("/usr/lib/python3/heapq.py", SRC) is None
    assert module_of("~", SRC) is None


@pytest.mark.parametrize("module,layer", [
    ("repro.hw.node", "hw"),
    ("repro.sched.analytic", "sched.analytic"),
    ("repro.sched.cluster", "cluster"),
    ("repro.sched.result", "sched"),
    ("repro.harness.cache", "store"),
    ("repro.harness.executor", "harness"),
    ("repro.experiments.runner", "runner"),
    ("repro.cosched.predictor", "cosched.predictor"),
    ("repro.simulation", "other"),  # a prefix must end at a dot
    ("repro.cli", "other"),
    (None, "other"),
])
def test_layer_of_uses_most_specific_prefix(module, layer):
    assert layer_of(module) == layer


def test_group_self_time_by_layer_and_caller():
    hw = (f"{SRC}/repro/hw/node.py", 10, "_recompute")
    sim = (f"{SRC}/repro/sim/engine.py", 5, "run")
    bench = ("/checkout/perfbench/run.py", 1, "main")
    numpy_call = ("~", 0, "<built-in method numpy.dot>")
    orphan = ("~", 0, "<built-in method time.sleep>")
    stats = {
        hw: (1, 1, 2.0, 5.0, {sim: (1, 1, 2.0, 5.0)}),
        sim: (1, 1, 1.0, 6.0, {bench: (1, 1, 1.0, 6.0)}),
        bench: (1, 1, 0.5, 7.0, {}),
        # 3 s of numpy: 2 s on behalf of hw, 1 s of the benchmark's own.
        numpy_call: (3, 3, 3.0, 3.0, {hw: (2, 2, 2.0, 2.0),
                                      bench: (1, 1, 1.0, 1.0)}),
        orphan: (1, 1, 0.25, 0.25, {}),
    }
    grouped = group_self_time(stats, SRC)
    assert grouped == pytest.approx({"hw": 4.0, "sim": 1.0, "other": 1.75})
    assert sum(grouped.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))


# ------------------------------------------------------------- open loop
def test_open_loop_schedule_is_fixed_rate():
    dues = open_loop_schedule(20.0, 1.0)
    assert len(dues) == 20
    assert dues[0] == 0.0
    assert all(b - a == pytest.approx(0.05) for a, b in zip(dues, dues[1:]))
    assert len(open_loop_schedule(20.0, 12.0)) == 240
    with pytest.raises(ValueError):
        open_loop_schedule(0.0, 1.0)


def test_lateness_counts_only_late_sends():
    assert lateness([0.0, 1.0, 2.0], [0.0, 1.5, 1.9]) == [0.0, 0.5, 0.0]
    with pytest.raises(ValueError):
        lateness([0.0], [])


def test_latency_runs_from_due_time_and_misses_are_infinite():
    # A stall delayed request 1's send; its latency includes that wait.
    due = [0.0, 0.05, 0.10]
    seen = [0.02, 0.30, None]
    lat = latencies(due, seen)
    assert lat[0] == pytest.approx(0.02)
    assert lat[1] == pytest.approx(0.25)
    assert lat[2] == math.inf
    assert nearest_rank(lat, 90) == math.inf  # a miss misses every limit


# ------------------------------------------------------------------ mix
def test_mix_is_deterministic_per_seed():
    one = make_mix(3, 240, dup_frac=0.3, hit_frac=0.2)
    assert one == make_mix(3, 240, dup_frac=0.3, hit_frac=0.2)
    assert one != make_mix(4, 240, dup_frac=0.3, hit_frac=0.2)


def test_mix_has_exact_shares_per_block_and_valid_references():
    for seed in range(20):
        mix = make_mix(seed, 240, dup_frac=0.3, hit_frac=0.1)
        kinds = [kind for kind, _ in mix]
        assert kinds.count(DUP) == 72 and kinds.count(HIT) == 24
        assert kinds.count(FRESH) == 144
        for start in range(10, 240, 10):  # block 0 moves a fresh to front
            block = kinds[start:start + 10]
            assert (block.count(FRESH), block.count(DUP),
                    block.count(HIT)) == (6, 3, 1)
        assert mix[0][0] == FRESH
        assert [ref for kind, ref in mix if kind == FRESH] == list(range(144))
        assert [ref for kind, ref in mix if kind == HIT] == list(range(24))
        for i, (kind, ref) in enumerate(mix):
            if kind == DUP:
                assert mix[ref][0] == FRESH
                assert ref <= i - 10 or ref == 0


def test_mix_rejects_impossible_shares():
    with pytest.raises(ValueError):
        make_mix(0, 10, dup_frac=0.6, hit_frac=0.4)
    with pytest.raises(ValueError):
        make_mix(0, 0, dup_frac=0.1, hit_frac=0.1)


def test_spec_seeds_are_distinct_and_seeded():
    seeds = spec_seeds(7, 500)
    assert len(set(seeds)) == 500
    assert seeds == spec_seeds(7, 500)
    assert seeds != spec_seeds(8, 500)


# ------------------------------------------------------- declaration
def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    assert set(run.SLOTS) == set(run.WORKLOAD_NAMES)
