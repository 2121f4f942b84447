"""Final shape checks: ICC figure curves and coordinator arithmetic."""

import pytest

from repro.cluster import ClusterNode, PowerCoordinator
from repro.cluster.coordinator import NODE_FLOOR_W
from repro.experiments.figures import run_scaling_series
from repro.sim.engine import Engine


# ------------------------------------------------------------ ICC figures
@pytest.fixture(scope="module")
def icc_sweeps():
    threads = (1, 4, 16)
    return {
        app: run_scaling_series(app, "icc", threads=threads)
        for app in ("fibonacci", "mergesort", "bots-strassen", "lulesh",
                    "bots-health", "bots-alignment-single",
                    "bots-sparselu-single")
    }


def test_icc_fibonacci_scales_unlike_gcc(icc_sweeps):
    """Figure 2 vs Figure 1: ICC's transformed fibonacci speeds up where
    GCC's task-storm version slows down."""
    assert icc_sweeps["fibonacci"].speedup(16) > 5.0
    gcc = run_scaling_series("fibonacci", "gcc", threads=(1, 16))
    assert gcc.speedup(16) < 1.0


def test_icc_mergesort_still_caps_at_two(icc_sweeps):
    assert icc_sweeps["mergesort"].speedup(16) == pytest.approx(1.85, abs=0.3)


def test_icc_poor_scalers_match_gcc_shapes(icc_sweeps):
    """The scaling pathologies are properties of the algorithms, not the
    compiler: strassen and lulesh cap out the same way under ICC."""
    assert icc_sweeps["bots-strassen"].speedup(16) == pytest.approx(4.9, rel=0.15)
    assert icc_sweeps["lulesh"].speedup(16) == pytest.approx(4.0, rel=0.15)


def test_icc_bots_match_figure_4(icc_sweeps):
    """Figure 4: health falls short as under GCC; the single-producer
    variants still scale near-linearly."""
    assert icc_sweeps["bots-health"].speedup(16) == pytest.approx(6.7, rel=0.15)
    for app in ("bots-alignment-single", "bots-sparselu-single"):
        assert icc_sweeps[app].speedup(16) > 13.0, app


# -------------------------------------------------------- coordinator math
def _idle_cluster(n_nodes, budget):
    engine = Engine()
    nodes = [
        ClusterNode(f"n{i}", engine, budget_w=budget / n_nodes)
        for i in range(n_nodes)
    ]
    coordinator = PowerCoordinator(engine, nodes, budget)
    return engine, nodes, coordinator


def test_coordinator_budgets_always_sum_to_global():
    engine, nodes, coordinator = _idle_cluster(3, 400.0)
    for sample in coordinator.samples:
        assert sum(sample.budgets_w.values()) == pytest.approx(400.0)
    coordinator._rebalance()
    assert sum(coordinator.samples[-1].budgets_w.values()) == pytest.approx(400.0)


def test_coordinator_respects_floors():
    engine, nodes, coordinator = _idle_cluster(4, 260.0)
    coordinator._rebalance()
    for budget in coordinator.samples[-1].budgets_w.values():
        assert budget >= NODE_FLOOR_W - 1e-9


def test_coordinator_peak_power_empty_is_zero():
    engine, nodes, coordinator = _idle_cluster(2, 300.0)
    coordinator.samples.clear()
    assert coordinator.peak_cluster_power_w == 0.0


def test_coordinator_start_stop_lifecycle():
    from repro.errors import SimulationError

    engine, nodes, coordinator = _idle_cluster(2, 300.0)
    coordinator.start()
    with pytest.raises(SimulationError):
        coordinator.start()
    coordinator.stop()
    engine.run(until=engine.now + 3.0)
    # No ticks after stop: the sample log stays where it was.
    count = len(coordinator.samples)
    engine.run(until=engine.now + 3.0)
    assert len(coordinator.samples) == count
