"""Extensions: power clamping and the cluster coordinator."""

import pytest

from repro.cluster import ClusterNode, PowerCoordinator, run_cluster
from repro.errors import SimulationError
from repro.hw.msr import MSR_PKG_POWER_LIMIT
from repro.qthreads import Spawn, Taskwait, Work
from repro.rcr import Blackboard, RCRDaemon
from repro.sim.engine import Engine
from repro.throttle.clamp import (
    DECISION_HISTORY,
    PowerClampController,
    decode_power_limit,
    encode_power_limit,
)
from tests.conftest import make_runtime


# ------------------------------------------------------------ clamp MSRs
def test_power_limit_encoding_roundtrip():
    raw = encode_power_limit(82.5)
    watts, enabled = decode_power_limit(raw)
    assert watts == pytest.approx(82.5, abs=0.125)
    assert enabled


def test_power_limit_disable():
    watts, enabled = decode_power_limit(encode_power_limit(100.0, enabled=False))
    assert not enabled
    with pytest.raises(ValueError):
        encode_power_limit(-1.0)
    with pytest.raises(ValueError):
        decode_power_limit(-1)


def _clamped_runtime(budget_w, threads=16):
    rt = make_runtime(threads)
    bb = Blackboard()
    daemon = RCRDaemon(rt.engine, rt.node, bb)
    daemon.start()
    clamp = PowerClampController(rt.engine, rt.scheduler, bb, budget_w)
    clamp.start()
    return rt, bb, clamp


def _hot_program(chunks=800):
    def body():
        yield Work(0.01, mem_fraction=0.2, power_scale=1.3)
        return 1

    def program():
        handles = []
        for _ in range(chunks):
            handle = yield Spawn(body())
            handles.append(handle)
        yield Taskwait()
        return sum(h.result for h in handles)

    return program()


def test_clamp_enforces_budget():
    """A 110 W budget forces a ~150 W workload to shed threads; the
    steady-state measured power respects the bound, the whole-run average
    lands within 8% of it, and the bound costs time."""
    rt, bb, clamp = _clamped_runtime(110.0)
    res = rt.run(_hot_program())
    assert res.result == 800
    # After the initial reaction window every decision is near/below budget.
    settled = [d for d in clamp.decisions if d.time_s > 0.5]
    assert settled, "run too short to evaluate the clamp"
    over = [d for d in settled if d.node_power_w > 110.0 * 1.08]
    assert len(over) <= len(settled) // 5
    assert clamp.active_limit < 16  # it really did shed threads

    free_rt = make_runtime(16)
    RCRDaemon(free_rt.engine, free_rt.node, Blackboard()).start()
    free = free_rt.run(_hot_program())
    assert res.avg_power_w < 110.0 * 1.08
    assert res.avg_power_w < free.avg_power_w
    assert res.elapsed_s > free.elapsed_s


def test_clamp_leaves_cheap_workload_alone():
    rt, bb, clamp = _clamped_runtime(200.0)
    res = rt.run(_hot_program(chunks=300))
    assert clamp.active_limit == 16
    assert res.spin_entries == 0


def test_clamp_budget_visible_via_msr():
    rt, bb, clamp = _clamped_runtime(120.0)
    raw = rt.node.msr.read_package(0, MSR_PKG_POWER_LIMIT, privileged=True)
    watts, enabled = decode_power_limit(raw)
    assert enabled
    assert watts == pytest.approx(60.0, abs=0.2)  # half per socket
    clamp.set_budget(90.0)
    raw = rt.node.msr.read_package(1, MSR_PKG_POWER_LIMIT, privileged=True)
    assert decode_power_limit(raw)[0] == pytest.approx(45.0, abs=0.2)


def test_clamp_rejects_bad_budget():
    rt, bb, clamp = _clamped_runtime(120.0)
    with pytest.raises(SimulationError):
        clamp.set_budget(0.0)


@pytest.mark.parametrize("budget_w", [float("nan"), float("inf")])
def test_clamp_rejects_non_finite_budget(budget_w):
    with pytest.raises(SimulationError, match="power budget"):
        _clamped_runtime(budget_w)
    rt, bb, clamp = _clamped_runtime(120.0)
    with pytest.raises(SimulationError, match="power budget"):
        clamp.set_budget(budget_w)
    assert clamp.budget_w == 120.0


@pytest.mark.parametrize("period_s", [0.0, float("nan"), float("inf")])
def test_clamp_rejects_bad_period(period_s):
    """Regression: a NaN period passed the ``<= 0`` guard and the clamp
    never acted, so a 110 W budget let the node average 145 W."""
    rt = make_runtime(16)
    with pytest.raises(SimulationError, match="period"):
        PowerClampController(rt.engine, rt.scheduler, Blackboard(), 110.0,
                             period_s=period_s)


# --------------------------------------------------------------- cluster
def test_cluster_two_nodes_share_budget():
    result = run_cluster(
        [("bots-health", "maestro"), ("bots-sort", "gcc")],
        global_budget_w=280.0,
        time_limit_s=60.0,
    )
    assert len(result.rows) == 2
    # Both workloads completed with plausible times (standalone: 1.26 s
    # and 1.5 s; clamping may slow them somewhat).
    for row in result.rows:
        assert 0.5 < row.time_s < 10.0
    assert result.peak_power_w <= 280.0 * 1.10
    assert "Cluster run" in result.format()


def test_cluster_three_nodes_hold_the_global_budget():
    result = run_cluster(
        [("bots-health", "maestro"), ("bots-strassen", "maestro"),
         ("lulesh", "maestro")],
        global_budget_w=380.0,
        time_limit_s=300.0,
    )
    assert len(result.rows) == 3
    assert result.peak_power_w <= 380.0 * 1.10


def test_cluster_budget_flows_to_demanding_node():
    """Once the short workload finishes, the coordinator shifts its slack
    to the node still running."""
    result = run_cluster(
        [("bots-health", "maestro"), ("bots-strassen", "maestro")],
        global_budget_w=250.0,
        time_limit_s=120.0,
    )
    # After health (<2 s) completes, strassen (~30 s) keeps running: some
    # coordination round must have granted it a clearly larger budget.
    assert any(
        s.budgets_w["node1"] > s.budgets_w["node0"] + 20.0
        for s in result.samples
    )


def test_cluster_validates_budget():
    with pytest.raises(SimulationError):
        run_cluster([("bots-sort", "gcc")] * 3, global_budget_w=100.0)


def test_cluster_timeout_leaves_no_pending_events():
    """Regression: a timed-out run must still stop the coordinator and
    every node's clamp/daemon timers.  Before the try/finally those
    repeating ticks leaked, so the engine's queue never drained."""
    engine = Engine()
    with pytest.raises(SimulationError, match="exceeded"):
        run_cluster(
            [("bots-health", "maestro"), ("bots-sort", "gcc")],
            global_budget_w=280.0,
            time_limit_s=0.3,  # both workloads need > 1 s: guaranteed timeout
            engine=engine,
        )
    # Teardown cancelled all repeating timers; only the (finite) workload
    # events remain.  Draining the engine must therefore terminate with
    # an empty queue — leaked coordinator/daemon/clamp ticks would
    # reschedule themselves forever and leave peek_time() non-None.
    engine.run(until=engine.now + 60.0)
    assert engine.peek_time() is None
    assert engine.pending == 0


def test_cluster_teardown_is_idempotent():
    """finish() after the harness's finally-shutdown must not double-stop."""
    result = run_cluster(
        [("bots-health", "maestro")], global_budget_w=160.0, time_limit_s=60.0
    )
    assert len(result.rows) == 1


def test_coordinator_budgets_never_exceed_global():
    """The re-division shaves float overshoot: sums are exactly bounded."""
    result = run_cluster(
        [("bots-health", "maestro"), ("bots-sort", "gcc")],
        global_budget_w=280.0,
        time_limit_s=60.0,
    )
    for sample in result.samples:
        assert sum(sample.budgets_w.values()) <= 280.0
        for budget in sample.budgets_w.values():
            assert budget >= 60.0  # NODE_FLOOR_W


def test_cluster_node_rejects_a_second_job_while_busy():
    from repro.sched.workload import Job

    node = ClusterNode("n", Engine(), budget_w=160.0)
    job = Job(index=0, submit_s=0.0, app="bots-sort", threads=16, scale=1.0)
    node.start_job(job)
    assert node.busy
    with pytest.raises(SimulationError, match="busy with j0"):
        node.start_job(Job(index=1, submit_s=0.0, app="bots-sort",
                           threads=16, scale=1.0))
    node.shutdown()


def test_long_idle_cluster_node_holds_a_bounded_history():
    engine = Engine()
    node = ClusterNode("n", engine, budget_w=160.0)
    ticks = 2 * DECISION_HISTORY
    engine.run(until=ticks * node.clamp.period_s + 0.05)
    node.shutdown()
    decisions = node.clamp.decisions
    assert len(decisions) == DECISION_HISTORY
    # The newest decisions are the ones kept.
    assert decisions[-1].time_s == pytest.approx(ticks * node.clamp.period_s)
    assert decisions[0].time_s == pytest.approx(
        (ticks - DECISION_HISTORY + 1) * node.clamp.period_s)


@pytest.mark.parametrize("period_s", [0.0, -1.0, float("nan")])
def test_coordinator_rejects_non_positive_period(period_s):
    """Regression: a zero period rescheduled the coordinator tick at the
    same instant forever, so run_cluster never reached its time limit."""
    with pytest.raises(SimulationError, match="coordination period"):
        run_cluster([("bots-health", "maestro")], 160.0,
                    period_s=period_s, time_limit_s=5.0)


def test_coordinator_requires_nodes():
    with pytest.raises(SimulationError):
        PowerCoordinator(Engine(), [], 500.0)
