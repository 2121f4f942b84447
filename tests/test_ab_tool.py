"""The pure summariser of ``tools/ab.py`` (alternating benchmark pairs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [("primary_s", "lower"), ("rate", "higher")]


def _run(primary, rate, *, correct=True, attempted=3, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"primary_s": {"value": primary, "unit": "s"},
                        "rate": {"value": rate, "unit": "1/s"}}}


def _pairs(base, change):
    return [{"base": _run(*b), "change": _run(*c)} for b, c in zip(base, change)]


def test_end_to_end_reads_benchmark_json():
    benchmark = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    names = [name for name, _ in ab.end_to_end(benchmark)]
    assert names == ["setup_s", "primary_s", "secondary_s", "peak_rss_mb"]
    assert {better for _, better in ab.end_to_end(benchmark)} == {"lower"}


def test_wins_follow_each_metrics_direction():
    pairs = _pairs(
        base=[(5.0, 10.0), (5.2, 10.0), (4.9, 10.0), (5.1, 10.0)],
        change=[(4.6, 11.0), (4.7, 9.0), (5.0, 10.0), (4.5, 12.0)],
    )
    summary = ab.summarize_pairs(pairs, METRICS)
    primary = summary["metrics"]["primary_s"]
    assert primary["wins"] == 3  # pair 2 is slower
    assert primary["base_median"] == pytest.approx(5.05)
    assert primary["change_median"] == pytest.approx(4.65)
    assert primary["delta_frac"] == pytest.approx(-0.4 / 5.05)
    rate = summary["metrics"]["rate"]
    assert rate["wins"] == 2  # higher is better; a tie is no win
    assert summary["pairs"] == 4


def test_beyond_iqr_compares_medians_with_the_base_spread():
    base = [(float(v), 1.0) for v in (4.0, 5.0, 6.0, 7.0, 8.0)]
    near = ab.summarize_pairs(_pairs(base, [(4.0, 1.0)] * 5), METRICS)
    spread = near["metrics"]["primary_s"]
    assert (spread["base_q1"], spread["base_median"], spread["base_q3"]) == (4.5, 6.0, 7.5)
    assert spread["beyond_iqr"] is False  # 2.0 < 3.0
    far = ab.summarize_pairs(_pairs(base, [(2.5, 1.0)] * 5), METRICS)
    assert far["metrics"]["primary_s"]["beyond_iqr"] is True  # 3.5 > 3.0
    assert far["metrics"]["primary_s"]["wins"] == 5


def test_run_counts_are_summed_per_side():
    pairs = [
        {"base": _run(1.0, 1.0, attempted=2), "change": _run(1.0, 1.0, attempted=3)},
        {"base": _run(1.0, 1.0, correct=False, attempted=2, failed=1),
         "change": _run(1.0, 1.0, attempted=4)},
    ]
    runs = ab.summarize_pairs(pairs, METRICS)["runs"]
    assert runs["base"] == {"correct": 1, "attempted": 4, "failed": 1}
    assert runs["change"] == {"correct": 2, "attempted": 7, "failed": 0}


def test_one_pair_has_degenerate_quartiles():
    summary = ab.summarize_pairs(_pairs([(3.0, 1.0)], [(2.0, 1.0)]), METRICS)
    primary = summary["metrics"]["primary_s"]
    assert (primary["base_q1"], primary["base_q3"]) == (3.0, 3.0)
    assert primary["beyond_iqr"] is True


def test_empty_input_is_refused():
    with pytest.raises(ValueError):
        ab.summarize_pairs([], METRICS)


def test_format_and_last_json():
    summary = ab.summarize_pairs(_pairs([(5.0, 1.0)] * 2, [(4.0, 1.0)] * 2), METRICS)
    lines = ab.format_summary(summary)
    assert lines[1].startswith("primary_s") and "2/2" in lines[1]
    assert lines[-2].startswith("base") and "correct 2/2" in lines[-2]
    out = "provenance: {}\n  table\n" + json.dumps(_run(1.0, 2.0)) + "\n\n"
    assert ab.last_json(out)["metrics"]["rate"]["value"] == 2.0
    with pytest.raises(ValueError):
        ab.last_json("\n")
