"""Tables IV-VII: the dynamic-throttling reproduction (Section IV-B).

Only the fixed-16 rows and the 12-vs-16 time ratios were calibrated;
everything asserted here about the *dynamic* rows is emergent behaviour
of the policy + runtime + machine model.  The ablations at the end pit
the paper's design choices against their alternatives (DESIGN.md).
"""

import pytest

from repro.apps import build_app
from repro.calibration.paper_data import (
    MAX_NO_THROTTLE_OVERHEAD,
    THROTTLE_TABLES,
)
from repro.calibration.profiles import get_profile
from repro.config import RuntimeConfig, ThrottleConfig
from repro.experiments.runner import run_measurement
from repro.experiments.throttling import (
    WELL_SCALING_APPS,
    run_overhead_check,
    run_throttle_table,
)
from repro.openmp import OmpEnv
from repro.qthreads import Runtime
from repro.throttle import DvfsActuator


@pytest.fixture(scope="module")
def tables():
    return {app: run_throttle_table(app) for app in THROTTLE_TABLES}


@pytest.mark.parametrize("app", sorted(THROTTLE_TABLES))
def test_fixed_rows_match_paper(tables, app):
    result = tables[app]
    paper = THROTTLE_TABLES[app]
    assert result.fixed16.time_s == pytest.approx(paper["fixed16"].time_s, rel=0.04)
    assert result.fixed16.watts == pytest.approx(paper["fixed16"].watts, rel=0.04)
    assert result.fixed12.time_s == pytest.approx(paper["fixed12"].time_s, rel=0.06)


def test_lulesh_table4_dynamic(tables):
    """Table IV: throttling cuts LULESH power ~14 W and saves ~3% energy
    at a ~3 s time cost."""
    r = tables["lulesh"]
    assert r.dynamic16.time_s > r.fixed16.time_s          # slower...
    assert r.dynamic16.watts < r.fixed16.watts - 8.0      # ...much cooler
    assert 0.015 < r.dynamic_energy_savings < 0.08        # paper: 3.3%
    # Duty-cycle spin saves over half of what OS idling would: dynamic
    # power sits between fixed-12 (cores idle) and fixed-16.
    assert r.fixed12.watts < r.dynamic16.watts < r.fixed16.watts


def test_dijkstra_table5_dynamic(tables):
    """Table V: dijkstra runs *faster* with fewer threads (contention
    collapse); dynamic throttling recovers performance and energy."""
    r = tables["dijkstra"]
    assert r.fixed12.time_s < r.fixed16.time_s            # 12 beats 16
    assert r.dynamic16.time_s < r.fixed16.time_s          # dynamic recovers
    assert r.dynamic16.energy_j < r.fixed16.energy_j


def test_health_table6_dynamic(tables):
    """Table VI: dynamic throttling cuts power at a small slowdown.

    The paper's energy saving here is razor-thin (173 J vs 176.3 J,
    1.9%); our model lands within +-2.5% of break-even with the same
    power reduction and time ordering (see EXPERIMENTS.md)."""
    r = tables["bots-health"]
    assert r.dynamic16.watts < r.fixed16.watts - 2.0
    assert abs(r.dynamic16.energy_j / r.fixed16.energy_j - 1.0) < 0.025
    assert r.fixed16.time_s < r.dynamic16.time_s < r.fixed12.time_s * 1.01


def test_strassen_table7_dynamic(tables):
    """Table VII: the fastest strassen execution has throttling enabled;
    it saves energy vs fixed 16 with power between the fixed configs and
    throttles only during the addition sweeps ('most of the execution
    was done with 16 threads')."""
    r = tables["bots-strassen"]
    assert r.dynamic_energy_savings > 0.01                # paper: 3.2%
    assert r.fixed12.watts < r.dynamic16.watts < r.fixed16.watts
    assert r.dynamic16.time_s < r.fixed12.time_s
    assert r.dynamic16.time_s < r.fixed16.time_s * 1.01   # fastest config
    throttled = r.dynamic16.time_throttled_s
    assert throttled < 0.6 * r.dynamic16.time_s           # mostly 16 threads


@pytest.mark.parametrize("app", sorted(THROTTLE_TABLES))
def test_dynamic_actually_throttles(tables, app):
    r = tables[app]
    assert r.dynamic16.run.throttle_activations >= 1
    assert r.dynamic16.run.spin_entries >= 4
    assert r.dynamic16.time_throttled_s > 0


def test_savings_are_about_three_percent(tables):
    """Headline claim: 'dynamic runtime throttling consistently reduces
    power and overall energy usage slightly (around 3%)'.  Power drops
    for all four applications; energy savings are a few percent for
    three of them, with health within noise of break-even (its paper
    margin was 1.9%)."""
    for t in tables.values():
        assert t.dynamic_power_savings_w > 2.0
    savings = [t.dynamic_energy_savings for t in tables.values()]
    assert sum(1 for s in savings if s > 0.01) >= 3
    assert all(s > -0.025 for s in savings)
    assert all(s < 0.20 for s in savings)


@pytest.mark.parametrize("app", WELL_SCALING_APPS[:2])
def test_no_throttle_on_scalers(app):
    """Well-scaling applications never trigger throttling and suffer at
    most the paper's 0.6% overhead."""
    check = run_overhead_check(app)
    assert not check.throttled
    assert abs(check.overhead) < MAX_NO_THROTTLE_OVERHEAD


def test_spinning_saves_power_vs_active(tables):
    """Section IV: idling four threads saves >8 W (paper: >12 W in one
    case, ~3 W per thread)."""
    r = tables["lulesh"]
    assert r.dynamic_power_savings_w > 8.0


# ------------------------------------------------------------- ablations
def test_spin_vs_os_idle(tables):
    """Table IV: OS-parking the four excess threads saves more power
    than the duty-cycled spin loop ('an additional 10.2 W'), at equal
    time."""
    r = tables["lulesh"]
    assert 4.0 < r.dynamic16.watts - r.fixed12.watts < 16.0
    assert r.dynamic16.time_s == pytest.approx(r.fixed12.time_s, rel=0.06)


def test_duty_cycle_beats_chip_wide_dvfs(tables):
    """Shedding LULESH's excess parallelism per core (duty-cycled spin)
    beats slowing the whole chip (DVFS at 0.75) on energy-delay, though
    both shed power against fixed 16."""
    duty, fixed16 = tables["lulesh"].dynamic16, tables["lulesh"].fixed16
    rt = Runtime(runtime_config=RuntimeConfig(num_threads=16))
    actuator = DvfsActuator(rt.node)
    for socket in range(2):
        actuator.set_frequency_ratio(socket, 0.75)
    dvfs = rt.run(build_app("lulesh", OmpEnv(num_threads=16),
                            profile=get_profile("lulesh", "maestro", "O3")))
    assert duty.watts < fixed16.watts
    assert dvfs.avg_power_w < fixed16.watts
    assert duty.time_s < dvfs.elapsed_s
    assert duty.energy_j * duty.time_s < dvfs.energy_j * dvfs.elapsed_s


def test_dual_metric_spares_efficient_high_power_program():
    """Section IV-A: power alone would throttle ICC bots-fib (157 W,
    near-linear speedup) and cost time and energy; the memory-concurrency
    condition leaves it alone."""
    baseline = run_measurement("bots-fib", "icc", "O2")
    dual = run_measurement("bots-fib", "icc", "O2", throttle=True)
    power_only = run_measurement(
        "bots-fib", "icc", "O2", throttle=True,
        throttle_config=ThrottleConfig(enabled=True, power_only=True),
    )
    assert dual.run.throttle_activations == 0
    assert dual.energy_j == pytest.approx(baseline.energy_j, rel=0.01)
    assert power_only.run.throttle_activations >= 1
    assert power_only.time_s > baseline.time_s * 1.05
    assert power_only.energy_j > baseline.energy_j
