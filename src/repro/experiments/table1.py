"""Table I: execution time and energy usage at 16 threads, GCC vs ICC (-O2).

Regenerates the paper's compiler-comparison table by running every
application under both compiler profiles and printing the same row
layout.  The qualitative findings the paper draws from this table are
checked by the test suite:

* GCC draws less average power than ICC for most applications, but ICC's
  faster execution wins on total energy for several of them;
* the BOTS fib-with-cutoff case: GCC 96.5 W vs ICC 157.0 W, with GCC
  using less total energy despite being slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.calibration.paper_data import PaperRow, TABLE1_GCC, TABLE1_ICC
from repro.analysis.tables import render_grid_table
from repro.harness import BatchExecutor, MeasurementRecord, RunSpec, default_executor

#: Applications in the paper's Table I row order.
TABLE1_APPS: tuple[str, ...] = tuple(TABLE1_GCC.keys())


@dataclass
class Table1Result:
    """Measured Table I."""

    cells: dict[tuple[str, str], PaperRow] = field(default_factory=dict)
    results: dict[tuple[str, str], MeasurementRecord] = field(default_factory=dict)

    def paper_cells(self) -> dict[tuple[str, str], PaperRow]:
        out: dict[tuple[str, str], PaperRow] = {}
        for app, row in TABLE1_GCC.items():
            out[(app, "GCC")] = row
        for app, row in TABLE1_ICC.items():
            out[(app, "ICC")] = row
        return out

    def format(self) -> str:
        return render_grid_table(
            "TABLE I: execution time and energy usage (16 threads, -O2)",
            list(TABLE1_APPS),
            ["GCC", "ICC"],
            self.cells,
        )


def table1_specs(
    apps: tuple[str, ...] = TABLE1_APPS, threads: int = 16
) -> list[RunSpec]:
    """One spec per (app, compiler) cell, in the paper's row order."""
    return [
        RunSpec(app, compiler, "O2", threads=threads,
                label=f"{app} {label}")
        for app in apps
        for compiler, label in (("gcc", "GCC"), ("icc", "ICC"))
    ]


def run_table1(
    apps: tuple[str, ...] = TABLE1_APPS,
    threads: int = 16,
    *,
    harness: Optional[BatchExecutor] = None,
) -> Table1Result:
    """Run every (app, compiler) cell of Table I through the harness."""
    harness = harness if harness is not None else default_executor()
    specs = table1_specs(apps, threads)
    records = harness.run(specs, sweep="table1")
    out = Table1Result()
    for spec, record in zip(specs, records):
        label = "GCC" if spec.compiler == "gcc" else "ICC"
        out.results[(spec.app, label)] = record
        out.cells[(spec.app, label)] = PaperRow(
            time_s=record.time_s,
            joules=record.energy_j,
            watts=record.watts,
        )
    return out
