"""Tables IV-VII: MAESTRO dynamic concurrency throttling (Section IV-B).

For each of the four applications whose power curves admit savings, run:

* 16 threads, dynamic throttling (RCRdaemon + controller active);
* 16 threads, fixed (throttling off);
* 12 threads, fixed.

Also runs the Section-IV-B preamble check: on applications that already
scale well, "our throttling implementation never detected the need to
throttle and resulted in only minor overheads (up to 0.6%)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.calibration.paper_data import PaperRow, THROTTLE_TABLES
from repro.harness import BatchExecutor, MeasurementRecord, RunSpec, default_executor
from repro.measure.report import MeasurementRow, format_measurement_table

#: Table number per application (for display).
TABLE_NUMBERS = {
    "lulesh": "IV",
    "dijkstra": "V",
    "bots-health": "VI",
    "bots-strassen": "VII",
}

#: Well-scaling applications used for the no-throttle overhead check.
WELL_SCALING_APPS: tuple[str, ...] = (
    "bots-alignment-for",
    "bots-fib",
    "bots-nqueens",
    "bots-sparselu-single",
)


@dataclass
class ThrottleTableResult:
    """One measured Table IV-VII."""

    app: str
    dynamic16: MeasurementRecord
    fixed16: MeasurementRecord
    fixed12: MeasurementRecord

    def rows(self) -> list[MeasurementRow]:
        return [
            self.dynamic16.row("16 Threads - Dynamic"),
            self.fixed16.row("16 Threads - Fixed"),
            self.fixed12.row("12 Threads - Fixed"),
        ]

    def paper_rows(self) -> dict[str, PaperRow]:
        return THROTTLE_TABLES[self.app]

    @property
    def dynamic_energy_savings(self) -> float:
        """Fractional energy saved by dynamic throttling vs fixed 16."""
        return 1.0 - self.dynamic16.energy_j / self.fixed16.energy_j

    @property
    def dynamic_power_savings_w(self) -> float:
        """Average power reduction of dynamic throttling vs fixed 16."""
        return self.fixed16.watts - self.dynamic16.watts

    def format(self) -> str:
        number = TABLE_NUMBERS.get(self.app, "?")
        return format_measurement_table(
            self.rows(),
            title=(
                f"TABLE {number}: {self.app} with MAESTRO (-O3) — "
                f"dynamic saves {self.dynamic_energy_savings:+.1%} energy, "
                f"{self.dynamic_power_savings_w:+.1f} W"
            ),
        )


def throttle_specs(
    app: str, *, threads: int = 16, throttled_threads: int = 12
) -> list[RunSpec]:
    """The three configurations of one Table IV-VII, in row order."""
    return [
        RunSpec(app, "maestro", "O3", threads=threads, throttle=True,
                label=f"{app} dynamic{threads}"),
        RunSpec(app, "maestro", "O3", threads=threads,
                label=f"{app} fixed{threads}"),
        RunSpec(app, "maestro", "O3", threads=throttled_threads,
                label=f"{app} fixed{throttled_threads}"),
    ]


def _table_from_records(app: str, records: list[MeasurementRecord]) -> ThrottleTableResult:
    dynamic, fixed16, fixed12 = records
    return ThrottleTableResult(
        app=app, dynamic16=dynamic, fixed16=fixed16, fixed12=fixed12
    )


def run_throttle_table(
    app: str,
    *,
    threads: int = 16,
    throttled_threads: int = 12,
    harness: Optional[BatchExecutor] = None,
) -> ThrottleTableResult:
    """Run the three configurations of one Table IV-VII."""
    if app not in THROTTLE_TABLES:
        raise KeyError(
            f"{app!r} is not a throttling application; one of {sorted(THROTTLE_TABLES)}"
        )
    harness = harness if harness is not None else default_executor()
    records = harness.run(
        throttle_specs(app, threads=threads, throttled_threads=throttled_threads),
        sweep=f"throttle-{app}",
    )
    return _table_from_records(app, records)


@dataclass
class OverheadCheckResult:
    """No-throttle overhead on a well-scaling application."""

    app: str
    with_controller: MeasurementRecord
    without_controller: MeasurementRecord

    @property
    def overhead(self) -> float:
        """Fractional time overhead of running with throttling enabled."""
        base = self.without_controller.time_s
        return (self.with_controller.time_s - base) / base if base > 0 else 0.0

    @property
    def throttled(self) -> bool:
        """True if the controller ever engaged (it should not)."""
        return self.with_controller.run.throttle_activations > 0


def run_overhead_check(
    app: str,
    compiler: str = "gcc",
    optlevel: str = "O3",
    *,
    harness: Optional[BatchExecutor] = None,
) -> OverheadCheckResult:
    """Verify throttling never triggers (and costs ~nothing) on a scaler."""
    harness = harness if harness is not None else default_executor()
    with_tc, without_tc = harness.run(
        [
            RunSpec(app, compiler, optlevel, threads=16, throttle=True,
                    label=f"{app} +controller"),
            RunSpec(app, compiler, optlevel, threads=16,
                    label=f"{app} baseline"),
        ],
        sweep=f"overhead-{app}",
    )
    return OverheadCheckResult(
        app=app, with_controller=with_tc, without_controller=without_tc
    )


def run_all_throttle_tables(
    *, harness: Optional[BatchExecutor] = None
) -> dict[str, ThrottleTableResult]:
    """Tables IV-VII in one (parallelizable) sweep."""
    harness = harness if harness is not None else default_executor()
    apps = list(THROTTLE_TABLES)
    specs = [spec for app in apps for spec in throttle_specs(app)]
    records = harness.run(specs, sweep="throttle-tables")
    return {
        app: _table_from_records(app, records[k * 3:(k + 1) * 3])
        for k, app in enumerate(apps)
    }
