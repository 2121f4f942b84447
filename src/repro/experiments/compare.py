"""Paper-vs-measured comparison across every table and figure.

:func:`generate_experiments_report` runs the whole evaluation and writes
the EXPERIMENTS.md record: for each table a measured-vs-paper grid with
relative errors, for each figure the speedup/energy series with the
paper's qualitative claims checked, plus the cold-start and overhead
results.  This is the one command that regenerates the full reproduction:

    repro-paper reproduce -o EXPERIMENTS.md
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional

from repro.analysis.stats import relative_error, summarize_errors
from repro.harness import BatchExecutor, default_executor
from repro.calibration.paper_data import (
    ENERGY_RISE_AT_16,
    SPEEDUP16,
    TABLE1_GCC,
    TABLE1_ICC,
    TABLE2_GCC,
    TABLE3_ICC,
    THROTTLE_TABLES,
)
from repro.experiments.coldstart import run_cold_start
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.table1 import run_table1
from repro.experiments.table23 import run_opt_levels
from repro.experiments.throttling import (
    WELL_SCALING_APPS,
    run_all_throttle_tables,
    run_overhead_check,
)


def _md_table_rows(buf: io.StringIO, headers: list[str], rows: list[list[str]]) -> None:
    buf.write("| " + " | ".join(headers) + " |\n")
    buf.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        buf.write("| " + " | ".join(row) + " |\n")


def _fmt_cell(time_s: float, joules: float, watts: float) -> str:
    return f"{time_s:.2f} s / {joules:.0f} J / {watts:.1f} W"


def _compare_table(buf: io.StringIO, title: str, measured, paper, key_order) -> dict[str, float]:
    buf.write(f"\n### {title}\n\n")
    errors: dict[str, float] = {}
    rows = []
    for key in key_order:
        m = measured[key]
        p = paper[key]
        label = key if isinstance(key, str) else " / ".join(key)
        errors[f"{label} time"] = relative_error(m.time_s, p.time_s)
        errors[f"{label} energy"] = relative_error(m.joules, p.joules)
        rows.append(
            [
                label,
                _fmt_cell(m.time_s, m.joules, m.watts),
                _fmt_cell(p.time_s, p.joules, p.watts),
                f"{relative_error(m.time_s, p.time_s):+.1%} / "
                f"{relative_error(m.joules, p.joules):+.1%} / "
                f"{relative_error(m.watts, p.watts):+.1%}",
            ]
        )
    _md_table_rows(buf, ["configuration", "measured", "paper", "err T/E/W"], rows)
    buf.write(f"\n*{summarize_errors(errors)}*\n")
    return errors


def generate_experiments_report(
    output: Path | str | None = None,
    *,
    quick: bool = False,
    harness: Optional[BatchExecutor] = None,
) -> str:
    """Run everything; return (and optionally write) the markdown report.

    ``quick=True`` limits the sweeps (fewer apps/levels/threads) for CI.
    ``harness`` (workers, cache, telemetry) is shared by every sweep.
    """
    harness = harness if harness is not None else default_executor()
    buf = io.StringIO()
    buf.write("# EXPERIMENTS — paper vs. measured\n\n")
    buf.write(
        "Regenerated by `repro-paper reproduce -o EXPERIMENTS.md`"
        f"{' (quick mode)' if quick else ''}.  Absolute numbers come from a\n"
        "simulated node calibrated on each application's 16-thread row\n"
        "(see DESIGN.md); everything else — thread sweeps, 12-thread rows,\n"
        "all dynamic-throttling results — is emergent and constitutes the\n"
        "reproduction.\n"
    )

    # ------------------------------------------------------------- Table I
    apps1 = ("reduction", "mergesort", "fibonacci", "lulesh") if quick else tuple(TABLE1_GCC)
    t1 = run_table1(apps=apps1, harness=harness)
    paper1 = {}
    for app in apps1:
        paper1[(app, "GCC")] = TABLE1_GCC[app]
        paper1[(app, "ICC")] = TABLE1_ICC[app]
    if "fibonacci" in apps1:
        # The paper's Table I fibonacci/GCC row (77.0 s) contradicts its
        # own Table II O2 cell (141.6 s); Table I evidently printed the
        # O3 numbers.  We calibrate and compare against the per-level
        # table.
        paper1[("fibonacci", "GCC")] = TABLE2_GCC["fibonacci"]["O2"]
        buf.write(
            "\n> Note: the paper's Table I fibonacci/GCC row (77.0 s) "
            "contradicts its own Table II -O2 cell (141.6 s); Table I "
            "evidently printed the -O3 numbers for that row.  The "
            "comparison below uses the per-level table.\n"
        )
    _compare_table(
        buf,
        "Table I — GCC vs ICC, 16 threads, -O2",
        t1.cells,
        paper1,
        [(app, comp) for app in apps1 for comp in ("GCC", "ICC")],
    )

    # -------------------------------------------------------- Tables II/III
    levels = ("O0", "O2") if quick else ("O0", "O1", "O2", "O3")
    for compiler, number, paper_table in (
        ("gcc", "II", TABLE2_GCC),
        ("icc", "III", TABLE3_ICC),
    ):
        apps = ("nqueens", "lulesh") if quick else tuple(paper_table)
        measured = run_opt_levels(compiler, apps=apps, levels=levels, harness=harness)
        paper_cells = {
            (app, level): paper_table[app][level] for app in apps for level in levels
        }
        _compare_table(
            buf,
            f"Table {number} — {compiler.upper()} optimization levels, 16 threads",
            measured.cells,
            paper_cells,
            [(app, level) for app in apps for level in levels],
        )

    # ------------------------------------------------------------- Figures
    threads = (1, 4, 16) if quick else (1, 2, 4, 8, 12, 16)
    buf.write("\n### Figures 1-4 — speedup and normalized energy vs threads\n\n")
    for figure in FIGURES:
        apps = None
        if quick:
            apps = ("mergesort", "lulesh") if figure in ("fig1", "fig2") else ("bots-health",)
        result = run_figure(figure, threads=threads, apps=apps, harness=harness)
        buf.write(f"\n**{figure.upper()}** ({result.compiler.upper()}):\n\n")
        rows = []
        for app, series in sorted(result.series.items()):
            s16 = series.speedup(16)
            target = SPEEDUP16.get(app)
            rise = series.energy_rise_at_max_threads
            rows.append(
                [
                    app,
                    " ".join(f"{s:.1f}" for _, s in series.speedups()),
                    f"{s16:.2f}" + (f" (paper ~{target:.2f})" if target else ""),
                    f"{series.min_energy_threads}",
                    f"{rise:+.0%}"
                    + (
                        f" (paper {ENERGY_RISE_AT_16[app]:+.0%})"
                        if app in ENERGY_RISE_AT_16
                        else ""
                    ),
                ]
            )
        _md_table_rows(
            buf,
            ["app", f"speedup @ {list(threads)}", "speedup@16", "min-energy threads", "energy rise @16"],
            rows,
        )

    # -------------------------------------------------------- Tables IV-VII
    buf.write("\n### Tables IV-VII — MAESTRO dynamic concurrency throttling (-O3)\n")
    throttle = run_all_throttle_tables(harness=harness)
    for app, result in throttle.items():
        paper = THROTTLE_TABLES[app]
        measured_cells = {
            "dynamic16": result.dynamic16,
            "fixed16": result.fixed16,
            "fixed12": result.fixed12,
        }
        buf.write(f"\n**{app}**:\n\n")
        rows = []
        for config in ("dynamic16", "fixed16", "fixed12"):
            m = measured_cells[config]
            p = paper[config]
            rows.append(
                [
                    config,
                    _fmt_cell(m.time_s, m.energy_j, m.watts),
                    _fmt_cell(p.time_s, p.joules, p.watts),
                    f"{relative_error(m.time_s, p.time_s):+.1%} / "
                    f"{relative_error(m.energy_j, p.joules):+.1%} / "
                    f"{relative_error(m.watts, p.watts):+.1%}",
                ]
            )
        _md_table_rows(buf, ["configuration", "measured", "paper", "err T/E/W"], rows)
        buf.write(
            f"\n*dynamic saves {result.dynamic_energy_savings:+.1%} energy and "
            f"{result.dynamic_power_savings_w:+.1f} W vs fixed 16; throttle "
            f"engaged {result.dynamic16.run.throttle_activations}x*\n"
        )

    # -------------------------------------------- overhead + cold start
    buf.write("\n### Section IV-B preamble — no-throttle overhead on scalers\n\n")
    rows = []
    for app in (WELL_SCALING_APPS[:1] if quick else WELL_SCALING_APPS):
        check = run_overhead_check(app, harness=harness)
        rows.append([app, str(check.throttled), f"{check.overhead:+.2%}"])
    _md_table_rows(buf, ["app", "ever throttled (want False)", "time overhead (paper ≤0.6%)"], rows)

    buf.write("\n### Footnote 2 — cold-start effect\n\n")
    cold = run_cold_start(bus=harness.bus)
    buf.write("```\n" + cold.format() + "\n```\n")

    buf.write(
        """
## Known deviations and their causes

* **Dijkstra's 12-thread power** — the paper measures the *same* average
  power at 12 fixed threads as at 16 (141.2 W vs 141.0 W): on real
  hardware the surviving threads stall less and issue more, almost
  exactly offsetting the four missing cores.  Our power model's
  stall-vs-issue contrast is weaker, so the simulated 12-thread
  configurations draw 15-20 W less; the 12-thread *energies* are
  correspondingly lower than the paper's.  Times and orderings are
  unaffected.
* **LULESH's low-thread energy curve** — reproducing its 4.0x speedup
  at 16 threads requires near-saturating memory intensity, which makes
  the 2-4 thread region more efficient (and thus the energy rise to 16
  threads larger) than the paper's figures show.  The quantitative
  12-to-16-thread slope, which Table IV pins, matches.
* **Health's dynamic energy margin** — the paper's Table VI saving is
  1.9% (173.0 J vs 176.3 J).  Our dynamic run reproduces the power
  reduction and time ordering but lands within +-2% of energy
  break-even: the spin loop's residual draw (calibrated to the paper's
  own ~2.5 W/core figure) cancels most of the four-core saving on this
  very short (1.3 s) run.
* **Strassen's throttled share** — the paper says "most of the execution
  was done with 16 threads"; our dynamic run throttles ~30-40% of the
  time (the addition/combine sweeps).  The observable outcomes match:
  the throttled run is the fastest configuration and saves energy.
* **Daemon CPU overhead** — the real RCRdaemon consumes ~16% of one
  core; the simulated daemon is free by default, so the paper's <=0.6%
  no-throttle overhead shows up here as 0.0%.  An opt-in model exists
  (``RCRDaemon(model_overhead=True)``) but is not used for the table
  runs: the paper's numbers already include the daemon's interference,
  so our calibration absorbs it.

## Robustness: the fault-sweep recipe

Everything above is measured through an *ideal* sensor path.  The
fault-sweep experiment re-runs the Table IV-VII throttling comparison
with deterministic faults injected into the measurement pipeline (MSR
reads failing with the EIO analog, counters sticking, bounded
thermal/uncore noise, tick jitter, a mid-run sampler stall) and reports
how much of the energy-savings signal survives each profile:

```
python -m repro.cli faultsweep --seed 0            # full sweep
python -m repro.cli faultsweep --quick --seed 0    # one app, 3 profiles
make smoke-faults                                  # the same quick sweep
python -m repro.cli run lulesh --compiler maestro --optlevel O3 \\
    --throttle --faults default                    # single faulty run
```

Profiles live in `repro.faults.PROFILES` (`--faults` also accepts
`field=value` overrides, e.g. `--faults "stall,stall_at_s=0.5"`).  Faults
are drawn from the seeded `"faults"` RNG stream, so a (seed, profile)
pair replays the exact same fault sequence; with faults disabled the
pipeline is bit-identical to a fault-free build.  Every power sample
carries a quality flag (OK / RETRIED / INTERPOLATED / WRAP_SUSPECT), the
daemon watchdog counts late and missed ticks, and the throttle
controller holds on stale meters then fail-safe releases past its
deadline — see docs/architecture.md, "Fault model & degraded-mode
semantics".

## Performance: the benchmark recipe

The simulator is benchmarked end to end and layer by layer, so
optimization work is measured, not asserted:

```
python3 perfbench/run.py --workload paper-tables             # 40 paper cells
python3 perfbench/run.py --workload paper-tables --trace 1   # per-layer split
make test-golden                                   # bit-identity vs pinned digests
```

The untraced run reports the serial and 2-worker sweep times of the 40
paper cells; the traced run splits self time across layers named after
the packages under `src/repro` (`self_s.hw`, `self_s.sim`,
`self_s.qthreads`, ...).  A speed claim compares against the parent
commit measured on the same host in the same session, never against
committed numbers from another machine (see `perfbench/README.md`).

Speed claims only count if behavior is untouched, so the benchmark
recipe is inseparable from the golden-trace one: `make test-golden`
replays three canonical full-stack runs (a BOTS fib run, a throttled
LULESH slice, the fault-sweep inert profile) and compares bit-exact
digests — energies, MSR registers, counter hashes, and a SHA-256 over
the full event trace — against `tests/sim/golden_digests.json`.  After
an *intentional* behavior change (a model fix, a new calibration),
re-pin with:

```
python -m repro.perf.golden --update
```

and justify the new digests in the same change.  A `--update` run after
a pure optimization must produce a byte-identical file; if it does not,
the optimization changed behavior and is a bug.

## Scale: the harness recipe

Every sweep above runs through one execution core, `repro.harness`:
declarative `RunSpec`s fan out over worker processes, results land in a
digest-keyed on-disk cache, and progress flows through a typed telemetry
bus instead of prints.  The same knobs apply to every CLI sweep:

```
python -m repro.cli table1 --workers 4             # process-parallel sweep
python -m repro.cli table1                         # second run: cache hits
python -m repro.cli faultsweep --no-cache          # force re-execution
python -m repro.cli figure fig1 --events run.jsonl # JSONL event log
python -m repro.cli cache info                     # inspect the cache
python -m repro.cli cache clear                    # drop it
make sweep-smoke                                   # parallel + cache-hit check
python3 perfbench/run.py --workload paper-tables   # serial vs 2-worker timing
```

Cache entries are keyed by the spec's content digest *and* a code stamp
(version + golden digests + calibration residuals), so an unrelated edit
keeps the cache warm while a model or calibration change invalidates it
by construction.  Parallel sweeps are bit-identical to serial ones —
the simulation is deterministic per spec — and a determinism test pins
that (`pytest -m harness`).
"""
    )

    text = buf.getvalue()
    if output is not None:
        Path(output).write_text(text)
    return text
