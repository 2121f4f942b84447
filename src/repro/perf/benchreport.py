"""Pure report helpers for the benchmark runners.

Anything that derives numbers from (current, baseline) scenario dicts
lives here as pure functions so it can be unit-tested without timing
anything.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence


def _overhead_pct(
    scenarios: Mapping[str, Mapping], checked: str, unchecked: str
) -> Optional[float]:
    """Checked-vs-unchecked wall overhead in percent, None if uncomputable."""
    chk = scenarios.get(checked)
    unchk = scenarios.get(unchecked)
    if not chk or not unchk:
        return None
    base_wall = unchk.get("wall_s", 0.0)
    if not base_wall or base_wall <= 0:
        return None
    return (chk.get("wall_s", 0.0) / base_wall - 1.0) * 100.0


def overhead_report(
    current: Mapping[str, Mapping],
    baseline: Mapping[str, Mapping],
    pairs: Iterable[tuple[str, str]],
) -> list[str]:
    """Render the checked-vs-unchecked overhead lines for each pair.

    Every pair whose two scenarios were timed in *this* run produces a
    line; the baseline comparison degrades gracefully — a pair member
    missing from the committed baseline (a newly added scenario) reports
    ``(new pair; no baseline)`` instead of raising ``KeyError``, so
    adding a scenario never breaks the read-only bench run before its
    baseline has been recorded.
    """
    lines: list[str] = []
    for checked, unchecked in pairs:
        overhead = _overhead_pct(current, checked, unchecked)
        if overhead is None:
            continue  # pair not timed this run (e.g. --scenario filter)
        checks = current[checked].get("invariant_checks", 0)
        line = (
            f"overhead {overhead:+.1f}% ({checked} vs {unchecked}"
            + (f", {checks} checks)" if checks else ")")
        )
        base_overhead = _overhead_pct(baseline, checked, unchecked)
        if base_overhead is not None:
            line += (
                f"   baseline {base_overhead:+.1f}%"
                f"   delta {overhead - base_overhead:+.1f}pp"
            )
        else:
            line += "   (new pair; no baseline)"
        lines.append(line)
    return lines


def speedup_table(
    current: Mapping[str, Mapping],
    baseline: Mapping[str, Mapping],
) -> dict[str, float]:
    """Per-scenario baseline/current speedups for scenarios in both."""
    return {
        name: baseline[name]["wall_s"] / record["wall_s"]
        for name, record in current.items()
        if name in baseline and record.get("wall_s", 0.0) > 0
    }


def missing_from_baseline(
    current: Mapping[str, Mapping],
    baseline: Mapping[str, Mapping],
) -> Sequence[str]:
    """Scenarios timed this run that the committed baseline lacks."""
    return [name for name in current if name not in baseline]
