"""Tables II and III: optimization-level sweeps at 16 threads.

Table II is GCC at -O0..-O3, Table III is ICC (with -ipo for sparselu).
The paper's qualitative findings checked by the test suite:

* -O0 generally costs the most time, power, and energy;
* optimization reduces energy substantially (typically 2-3x from -O0);
* there is no single best level: O2 beats O3 for some applications
  (GCC nqueens) and vice versa, and GCC fibonacci's O2 is anomalously
  slow (141.6 s vs 77-84 s at other levels) — an anomaly we inherit via
  calibration, not a modelling artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import render_grid_table
from repro.calibration.paper_data import PaperRow, TABLE2_GCC, TABLE3_ICC
from repro.harness import BatchExecutor, MeasurementRecord, RunSpec, default_executor

OPT_LEVELS: tuple[str, ...] = ("O0", "O1", "O2", "O3")


@dataclass
class OptLevelResult:
    """One measured optimization-level table (II or III)."""

    compiler: str
    cells: dict[tuple[str, str], PaperRow] = field(default_factory=dict)
    results: dict[tuple[str, str], MeasurementRecord] = field(default_factory=dict)

    @property
    def apps(self) -> list[str]:
        return sorted({app for app, _ in self.cells})

    def paper_cells(self) -> dict[tuple[str, str], PaperRow]:
        table = TABLE2_GCC if self.compiler == "gcc" else TABLE3_ICC
        return {
            (app, level): row
            for app, rows in table.items()
            for level, row in rows.items()
        }

    def format(self) -> str:
        number = "II" if self.compiler == "gcc" else "III"
        table = TABLE2_GCC if self.compiler == "gcc" else TABLE3_ICC
        return render_grid_table(
            f"TABLE {number}: optimization levels, {self.compiler.upper()}, 16 threads",
            list(table.keys()),
            list(OPT_LEVELS),
            self.cells,
        )


def run_opt_levels(
    compiler: str,
    apps: tuple[str, ...] | None = None,
    levels: tuple[str, ...] = OPT_LEVELS,
    threads: int = 16,
    *,
    harness: Optional[BatchExecutor] = None,
) -> OptLevelResult:
    """Run an optimization-level sweep for one compiler."""
    harness = harness if harness is not None else default_executor()
    table = TABLE2_GCC if compiler == "gcc" else TABLE3_ICC
    if apps is None:
        apps = tuple(table.keys())
    specs = [
        RunSpec(app, compiler, level, threads=threads,
                label=f"{app} -{level}")
        for app in apps
        for level in levels
    ]
    records = harness.run(specs, sweep=f"table{'2' if compiler == 'gcc' else '3'}")
    out = OptLevelResult(compiler=compiler)
    for spec, record in zip(specs, records):
        out.results[(spec.app, spec.optlevel)] = record
        out.cells[(spec.app, spec.optlevel)] = PaperRow(
            time_s=record.time_s,
            joules=record.energy_j,
            watts=record.watts,
        )
    return out


def run_table2(**kwargs) -> OptLevelResult:
    """Table II: GCC optimization-level sweep."""
    return run_opt_levels("gcc", **kwargs)


def run_table3(**kwargs) -> OptLevelResult:
    """Table III: ICC optimization-level sweep."""
    return run_opt_levels("icc", **kwargs)
