"""Tables I-III reproduction: measured 16-thread rows match the paper.

Tables II and III are swept once per module; Table I's cells are their
-O2 columns (the same specs), so every cell below is read, not re-run.
"""

import pytest

from repro.calibration.paper_data import TABLE1_GCC, TABLE1_ICC, TABLE2_GCC, TABLE3_ICC
from repro.experiments.runner import run_measurement
from repro.experiments.table1 import table1_specs
from repro.experiments.table23 import run_table2, run_table3

#: Calibration is exact at O2 (the residual-corrected level); other levels
#: share structural corrections and land within a few percent.
TOL_TIME = 0.05
TOL_WATTS = 0.05


@pytest.fixture(scope="module")
def opt_tables():
    """``{"gcc": Table II, "icc": Table III}``, every cell measured."""
    return {"gcc": run_table2(), "icc": run_table3()}


def _cell(opt_tables, app, compiler, level):
    return opt_tables[compiler].results[(app, level)]


def test_table1_cells_are_the_o2_columns(opt_tables):
    for spec in table1_specs():
        assert _cell(opt_tables, spec.app, spec.compiler, "O2").spec == spec


@pytest.mark.parametrize("app", sorted(TABLE1_GCC))
def test_table1_gcc_rows(opt_tables, app):
    result = _cell(opt_tables, app, "gcc", "O2")
    # The paper's Table I fibonacci/GCC row (77.0 s) contradicts its own
    # Table II O2 cell (141.6 s) — Table I evidently printed the O3
    # numbers for that row.  We calibrate against the per-level table.
    paper = TABLE2_GCC[app]["O2"] if app == "fibonacci" else TABLE1_GCC[app]
    assert result.time_s == pytest.approx(paper.time_s, rel=TOL_TIME)
    assert result.watts == pytest.approx(paper.watts, rel=TOL_WATTS)
    assert result.energy_j == pytest.approx(paper.joules, rel=0.08)


@pytest.mark.parametrize(
    "app", ["mergesort", "fibonacci", "bots-fib", "bots-strassen", "lulesh"]
)
def test_table1_icc_key_rows(opt_tables, app):
    result = _cell(opt_tables, app, "icc", "O2")
    paper = TABLE1_ICC[app]
    assert result.time_s == pytest.approx(paper.time_s, rel=TOL_TIME)
    assert result.watts == pytest.approx(paper.watts, rel=TOL_WATTS)


@pytest.mark.parametrize("app", sorted(TABLE1_ICC))
def test_table1_icc_rows_time(opt_tables, app):
    result = _cell(opt_tables, app, "icc", "O2")
    assert result.time_s == pytest.approx(TABLE1_ICC[app].time_s, rel=0.08)


OPT_LEVEL_CELLS = [
    (compiler, app, level)
    for compiler, table in (("gcc", TABLE2_GCC), ("icc", TABLE3_ICC))
    for app, rows in table.items()
    for level in rows
]


@pytest.mark.parametrize("compiler, app, level", OPT_LEVEL_CELLS)
def test_opt_level_cell_time_within_10_percent(opt_tables, compiler, app, level):
    """Every Table II (GCC) and Table III (ICC) cell."""
    paper = (TABLE2_GCC if compiler == "gcc" else TABLE3_ICC)[app][level]
    result = _cell(opt_tables, app, compiler, level)
    assert abs(result.time_s - paper.time_s) / paper.time_s < 0.10


def test_table1_compiler_winners_flip(opt_tables):
    """No compiler dominates: GCC wins fib-with-cutoff energy despite
    being slower; ICC wins fibonacci outright (Section II-C.1)."""
    gcc_fib = _cell(opt_tables, "bots-fib", "gcc", "O2")
    icc_fib = _cell(opt_tables, "bots-fib", "icc", "O2")
    assert gcc_fib.time_s > icc_fib.time_s          # ICC faster
    assert gcc_fib.energy_j < icc_fib.energy_j      # GCC cheaper
    assert gcc_fib.watts < icc_fib.watts - 30       # 96.5 W vs 157 W

    gcc_fibo = _cell(opt_tables, "fibonacci", "gcc", "O2")
    icc_fibo = _cell(opt_tables, "fibonacci", "icc", "O2")
    assert icc_fibo.time_s < gcc_fibo.time_s / 5    # 13.5 s vs 141.6 s
    assert icc_fibo.energy_j < gcc_fibo.energy_j


@pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3"])
def test_table2_lulesh_all_levels(opt_tables, level):
    result = _cell(opt_tables, "lulesh", "gcc", level)
    paper = TABLE2_GCC["lulesh"][level]
    assert result.time_s == pytest.approx(paper.time_s, rel=0.06)
    assert result.watts == pytest.approx(paper.watts, rel=0.06)


@pytest.mark.parametrize("app", ["nqueens", "bots-sparselu-single", "mergesort"])
def test_table2_o0_is_most_expensive(opt_tables, app):
    o0 = _cell(opt_tables, app, "gcc", "O0")
    o2 = _cell(opt_tables, app, "gcc", "O2")
    assert o0.time_s > o2.time_s
    assert o0.energy_j > o2.energy_j


def test_optimization_energy_reduction_factor(opt_tables):
    """Optimization cuts energy 'typically a factor of 2 or 3' from O0."""
    o0 = _cell(opt_tables, "bots-sparselu-single", "gcc", "O0")
    o2 = _cell(opt_tables, "bots-sparselu-single", "gcc", "O2")
    assert 2.0 < o0.energy_j / o2.energy_j < 8.0


def test_no_single_best_level(opt_tables):
    """GCC nqueens: O2 beats O3 (649 J vs 846 J) — Section II-C.3."""
    o2 = _cell(opt_tables, "nqueens", "gcc", "O2")
    o3 = _cell(opt_tables, "nqueens", "gcc", "O3")
    assert o2.energy_j < o3.energy_j


def test_gcc_fibonacci_o2_anomaly_inherited(opt_tables):
    """GCC fibonacci at O2 is ~2x slower than O3 (141.6 s vs 77.1 s)."""
    o2 = _cell(opt_tables, "fibonacci", "gcc", "O2")
    o3 = _cell(opt_tables, "fibonacci", "gcc", "O3")
    assert o2.time_s > 1.5 * o3.time_s


@pytest.mark.parametrize("app", ["mergesort", "dijkstra", "bots-strassen"])
def test_table3_icc_o3_rows(opt_tables, app):
    result = _cell(opt_tables, app, "icc", "O3")
    paper = TABLE3_ICC[app]["O3"]
    assert result.time_s == pytest.approx(paper.time_s, rel=0.06)
    assert result.watts == pytest.approx(paper.watts, rel=0.06)


def test_icc_fibonacci_constant_across_levels(opt_tables):
    """ICC fibonacci: 13.5 s at every optimization level (Table III)."""
    times = [_cell(opt_tables, "fibonacci", "icc", lvl).time_s for lvl in
             ("O0", "O1", "O2", "O3")]
    assert max(times) / min(times) < 1.05


def test_power_range_matches_paper_extremes(opt_tables):
    """Section II-C.2: power spans ~59-159 W; mergesort is the floor."""
    merge = _cell(opt_tables, "mergesort", "gcc", "O2")
    strassen = _cell(opt_tables, "bots-strassen", "gcc", "O2")
    assert merge.watts < 65.0
    assert strassen.watts > 145.0


def test_measurement_path_matches_ground_truth():
    """The RCR/RAPL measurement equals the simulator's energy ground
    truth within counter quantization."""
    result = run_measurement("bots-sort", "gcc", "O2")
    assert result.energy_j == pytest.approx(result.run.energy_j, rel=1e-3)
    assert result.time_s == pytest.approx(result.run.elapsed_s, rel=1e-9)
