"""Generalization: the stack on other machine topologies, and the
policy-sensitivity study."""

import pytest

from repro.config import (
    BIG_MACHINE,
    MachineConfig,
    RuntimeConfig,
    SMALL_MACHINE,
    ThrottleConfig,
)
from repro.experiments.sensitivity import run_sensitivity
from repro.openmp import OmpEnv, parallel_for
from repro.qthreads import Runtime, Work
from repro.rcr import Blackboard, RCRDaemon, RegionClient
from repro.throttle import ThrottleController


def _divisible_program(env, total_work=2.0, mu=0.5, chunks=128):
    per = total_work / chunks

    def body(lo, hi):
        yield Work(per * (hi - lo), mem_fraction=mu, power_scale=1.5)
        return hi - lo

    def program():
        done = yield from parallel_for(env, 0, chunks, body, chunk=1)
        return sum(done)

    return program()


@pytest.mark.parametrize("machine,threads", [
    (SMALL_MACHINE, 4),
    (BIG_MACHINE, 32),
    (MachineConfig(sockets=2, cores_per_socket=4), 8),
])
def test_full_stack_runs_on_other_topologies(machine, threads):
    """Runtime + daemon + measurement work for any sockets x cores."""
    rt = Runtime(machine, RuntimeConfig(num_threads=threads))
    bb = Blackboard()
    daemon = RCRDaemon(rt.engine, rt.node, bb)
    daemon.start()
    client = RegionClient(rt.engine, bb, machine.sockets, daemon=daemon)
    env = OmpEnv(num_threads=threads)
    client.start("x")
    res = rt.run(_divisible_program(env))
    report = client.end("x")
    assert res.result == 128
    assert report.energy_j == pytest.approx(res.energy_j, rel=1e-3)
    assert len(report.temps_degc) == machine.sockets


def test_throttling_generalizes_to_big_machine():
    """On 4 sockets the same policy throttles a hot contended load."""
    machine = BIG_MACHINE
    rt = Runtime(machine, RuntimeConfig(num_threads=32))
    bb = Blackboard()
    daemon = RCRDaemon(rt.engine, rt.node, bb)
    daemon.start()
    controller = ThrottleController(
        rt.engine, rt.scheduler, bb,
        ThrottleConfig(enabled=True, throttled_threads=24),
    )
    controller.start()
    env = OmpEnv(num_threads=32)
    res = rt.run(_divisible_program(env, total_work=8.0, mu=0.6, chunks=512))
    assert res.throttle_activations >= 1
    assert res.spin_entries >= 8


def test_small_machine_thread_limit_enforced():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        Runtime(SMALL_MACHINE, RuntimeConfig(num_threads=8))


def test_big_machine_speedup_exceeds_paper_machine():
    """Compute-bound work on 32 cores beats 16 cores."""
    times = {}
    for machine, threads in ((BIG_MACHINE, 32), (None, 16)):
        cfg = machine if machine is not None else MachineConfig()
        rt = Runtime(cfg, RuntimeConfig(num_threads=threads))
        env = OmpEnv(num_threads=threads)
        res = rt.run(_divisible_program(env, total_work=4.0, mu=0.0, chunks=256))
        times[threads] = res.elapsed_s
    assert times[32] < times[16]


# -------------------------------------------------------------- sensitivity
@pytest.fixture(scope="module")
def lulesh_sensitivity():
    return run_sensitivity(
        "lulesh", power_high_values=(70.0, 75.0, 95.0)
    )


def test_sensitivity_paper_threshold_engages(lulesh_sensitivity):
    point75 = next(p for p in lulesh_sensitivity.points if p.power_high_w == 75.0)
    assert point75.activations >= 1
    assert lulesh_sensitivity.energy_savings(point75) > 0.01


def test_sensitivity_too_high_never_engages(lulesh_sensitivity):
    """LULESH peaks ~78 W/socket: a 95 W threshold never fires and the
    outcome degenerates to fixed-16."""
    point95 = next(p for p in lulesh_sensitivity.points if p.power_high_w == 95.0)
    assert point95.activations == 0
    assert point95.time_s == pytest.approx(
        lulesh_sensitivity.baseline_time_s, rel=0.01
    )


def test_sensitivity_dijkstra_saves_wherever_it_engages():
    """Throttling dijkstra saves energy at every threshold that engages
    (its contention exponent is above 1)."""
    result = run_sensitivity("dijkstra", power_high_values=(60.0, 75.0, 90.0))
    engaged = [p for p in result.points if p.activations > 0]
    assert engaged, "no threshold engaged for dijkstra"
    assert all(result.energy_savings(p) > 0.0 for p in engaged)


def test_sensitivity_formatting(lulesh_sensitivity):
    text = lulesh_sensitivity.format()
    assert "min energy" in text
    assert "P_high" in text
