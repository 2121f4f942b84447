"""Regression tests for the bench overhead report (``benchreport``).

The historical bug: the engine bench runner (since retired in favour of
``perfbench``) indexed the committed baseline
directly for every ``OVERHEAD_PAIRS`` member, so the first read-only run
after adding a new paired scenario (whose baseline had not been recorded
yet) died with ``KeyError`` instead of printing per-scenario deltas.
These tests pin the graceful-degradation contract the pure helpers now
carry.
"""

from __future__ import annotations

import pytest

from repro.perf.benchreport import (
    missing_from_baseline,
    overhead_report,
    speedup_table,
)
from repro.perf.scenarios import BENCH_SCENARIOS, OVERHEAD_PAIRS

pytestmark = pytest.mark.metering


def _rec(wall_s: float, **extra) -> dict:
    return {"wall_s": wall_s, **extra}


CURRENT = {
    "table1-bots-fib": _rec(1.0),
    "table1-fib-validated": _rec(1.2, invariant_checks=500),
    "table1-fib-metered": _rec(1.1),
}

#: A baseline recorded before the metered scenario existed.
STALE_BASELINE = {
    "table1-bots-fib": _rec(1.0),
    "table1-fib-validated": _rec(1.3),
}


def test_pairs_reference_registered_scenarios() -> None:
    for checked, unchecked in OVERHEAD_PAIRS:
        assert checked in BENCH_SCENARIOS
        assert unchecked in BENCH_SCENARIOS


def test_new_pair_degrades_to_note_not_keyerror() -> None:
    lines = overhead_report(CURRENT, STALE_BASELINE, OVERHEAD_PAIRS)
    assert len(lines) == 2
    validated = next(l for l in lines if "fib-validated" in l)
    metered = next(l for l in lines if "fib-metered" in l)
    # The pair with a recorded baseline reports the delta...
    assert "baseline" in validated and "pp" in validated
    # ...the pair newer than the baseline degrades to a note.
    assert "(new pair; no baseline)" in metered
    assert "overhead +10.0%" in metered


def test_empty_baseline_reports_all_pairs_as_new() -> None:
    lines = overhead_report(CURRENT, {}, OVERHEAD_PAIRS)
    assert len(lines) == 2
    assert all("(new pair; no baseline)" in l for l in lines)


def test_scenario_filter_skips_untimed_pairs() -> None:
    only_base = {"table1-bots-fib": _rec(1.0)}
    assert overhead_report(only_base, STALE_BASELINE, OVERHEAD_PAIRS) == []


def test_zero_wall_baseline_is_uncomputable_not_zerodivision() -> None:
    degenerate = {
        "table1-bots-fib": _rec(0.0),
        "table1-fib-metered": _rec(1.0),
    }
    assert overhead_report(degenerate, {}, OVERHEAD_PAIRS) == []


def test_missing_from_baseline_lists_new_scenarios() -> None:
    assert missing_from_baseline(CURRENT, STALE_BASELINE) == [
        "table1-fib-metered"
    ]
    assert missing_from_baseline(CURRENT, CURRENT) == []


def test_speedup_table_ignores_scenarios_absent_from_baseline() -> None:
    table = speedup_table(CURRENT, STALE_BASELINE)
    assert set(table) == {"table1-bots-fib", "table1-fib-validated"}
    assert table["table1-fib-validated"] == pytest.approx(1.3 / 1.2)
