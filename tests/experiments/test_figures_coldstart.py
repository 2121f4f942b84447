"""Figures 1-4 scaling claims and the footnote-2 cold-start effect.

The GCC panels (Figures 1 and 3) share one module sweep over the
figures' thread set; the ICC panels (Figures 2 and 4) are checked in
``tests/test_final_shapes.py``.
"""

import pytest

from repro.analysis.curves import ScalingSeries
from repro.experiments.coldstart import run_cold_start
from repro.experiments.figures import FIGURES, run_figure, run_scaling_series


@pytest.fixture(scope="module")
def sweeps():
    """Thread sweeps for the apps whose scaling the paper describes."""
    threads = (1, 2, 4, 8, 12, 16)
    apps = {
        "nqueens": "gcc",
        "mergesort": "gcc",
        "dijkstra": "gcc",
        "fibonacci": "gcc",
        "reduction": "gcc",
        "lulesh": "gcc",
        "bots-health": "gcc",
        "bots-sort": "gcc",
        "bots-strassen": "gcc",
        "bots-fib": "gcc",
        "bots-alignment-for": "gcc",
        "bots-nqueens": "gcc",
    }
    return {
        app: run_scaling_series(app, compiler, threads=threads)
        for app, compiler in apps.items()
    }


def test_nqueens_scales_to_16(sweeps):
    series = sweeps["nqueens"]
    assert series.speedup(16) > 13.0
    assert series.speedup(16) > series.speedup(8)


def test_mergesort_scales_to_2(sweeps):
    series = sweeps["mergesort"]
    assert series.speedup(2) == pytest.approx(1.85, abs=0.25)
    # Flat beyond 2 threads.
    assert series.speedup(16) == pytest.approx(series.speedup(2), rel=0.1)
    assert series.speedup(16) == pytest.approx(1.85, abs=0.3)


def test_dijkstra_scales_to_8(sweeps):
    series = sweeps["dijkstra"]
    assert series.speedup(8) > 6.0
    # Little or no gain beyond 8 threads.
    assert series.speedup(16) < series.speedup(8) * 1.3


def test_serial_fibonacci_beats_parallel(sweeps):
    """16 threads took ~50% longer than serial (Section II-C.4)."""
    series = sweeps["fibonacci"]
    assert series.speedup(16) < 0.8
    assert all(series.speedup(p) <= 1.05 for p in series.thread_counts)


def test_serial_reduction_beats_parallel(sweeps):
    """Reduction time increased ~220% at 16 threads."""
    series = sweeps["reduction"]
    assert series.speedup(16) == pytest.approx(1 / 3.2, rel=0.25)


def test_bots_speedups_match_text(sweeps):
    """health 6.7, sort 12.6, strassen 4.9, lulesh 4.0 (Section II-C.4)."""
    assert sweeps["bots-health"].speedup(16) == pytest.approx(6.7, rel=0.15)
    assert sweeps["bots-sort"].speedup(16) == pytest.approx(12.6, rel=0.15)
    assert sweeps["bots-strassen"].speedup(16) == pytest.approx(4.9, rel=0.15)
    assert sweeps["lulesh"].speedup(16) == pytest.approx(4.0, rel=0.15)
    assert sweeps["bots-fib"].speedup(16) > 13.0  # "near linear"


def test_most_bots_scale_near_linearly(sweeps):
    """Figure 3: "Most of the BOTS tests have near linear speedup"."""
    for app in ("bots-alignment-for", "bots-fib", "bots-nqueens"):
        assert sweeps[app].speedup(16) > 13.0, app


def test_well_scaled_apps_minimize_energy_at_16(sweeps):
    """Adding cores improves energy when speedup is proportional."""
    for app in ("nqueens", "bots-fib"):
        series = sweeps[app]
        assert series.min_energy_threads >= 12
        assert series.normalized_energy(16) < series.normalized_energy(1)
    # bots-fib scales so well that both optima sit at the full 16 threads.
    fib = sweeps["bots-fib"]
    assert fib.min_energy_threads == 16
    assert max(fib.thread_counts, key=fib.speedup) == 16


def test_poor_scalers_energy_minimum_below_16(sweeps):
    """For the poor scalers the minimum-energy thread count is below the
    maximum, and energy rises toward 16 (17% lulesh .. 30% dijkstra)."""
    for app in ("lulesh", "dijkstra", "bots-strassen"):
        series = sweeps[app]
        assert series.min_energy_threads < 16
        assert series.energy_rise_at_max_threads > 0.05


def test_lulesh_energy_and_time_optima_disagree(sweeps):
    """Minimum energy and minimum time pick different thread counts, so
    an energy autotuner must run lulesh on fewer threads."""
    series = sweeps["lulesh"]
    fastest = max(series.thread_counts, key=series.speedup)
    assert series.min_energy_threads < fastest


def test_energy_rise_magnitudes(sweeps):
    """The paper reports 17% (lulesh) to 30% (dijkstra) rises from the
    energy minimum to 16 threads.  Our model reproduces the direction and
    a clear rise; the lulesh magnitude overshoots because the calibrated
    contention needed for its 4.0x speedup is steeper than the real
    machine's (see EXPERIMENTS.md)."""
    assert sweeps["lulesh"].energy_rise_at_max_threads > 0.10
    assert sweeps["dijkstra"].energy_rise_at_max_threads == pytest.approx(0.30, abs=0.20)
    # The 12->16 thread energy slope, which Table IV pins quantitatively,
    # is checked in the throttling tests.


def test_scaling_series_api(sweeps):
    series = sweeps["lulesh"]
    assert series.baseline.threads == 1
    assert len(series.speedups()) == len(series.thread_counts)
    assert "lulesh" in series.format()
    with pytest.raises(KeyError):
        series.speedup(3)


def test_run_figure_structure():
    result = run_figure("fig1", threads=(1, 16), apps=("mergesort",))
    assert result.compiler == "gcc"
    assert set(result.series) == {"mergesort"}
    with pytest.raises(KeyError):
        run_figure("fig9")


def test_figures_cover_all_apps():
    fig_apps = set()
    for apps, _ in FIGURES.values():
        fig_apps.update(apps)
    assert "lulesh" in fig_apps
    assert "bots-strassen" in fig_apps
    assert len(fig_apps) >= 13


# ------------------------------------------------------------- cold start
def test_cold_start_first_run_uses_less_energy():
    """Footnote 2: cold first run uses ~3% less energy, lower power,
    same execution time."""
    # A long, hot run (reduction: 75 s) fully warms the die, so the
    # second run sees steady-state leakage throughout.
    result = run_cold_start(app="reduction", compiler="gcc")
    assert result.cold.elapsed_s == pytest.approx(result.warm.elapsed_s, rel=0.01)
    assert 0.01 < result.energy_savings < 0.09
    assert result.power_delta_w > 1.0
    assert "less energy" in result.format()
