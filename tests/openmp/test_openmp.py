"""OpenMP layer: the env, worksharing loops, reductions and parallel regions."""

import operator

import pytest

from repro.errors import ConfigError
from repro.openmp import (
    OmpEnv,
    parallel_for,
    parallel_reduce,
    parallel_region,
    static_chunks,
)
from repro.openmp.loops import loop_chunk_count
from repro.qthreads import Work
from tests.conftest import make_runtime


# ------------------------------------------------------------------ env
def test_env_validates():
    with pytest.raises(ConfigError):
        OmpEnv(num_threads=0)
    with pytest.raises(ConfigError):
        OmpEnv(schedule="guided")


def test_env_default_chunks():
    env = OmpEnv(num_threads=4, schedule="static")
    assert env.default_chunk(100) == 25
    dyn = OmpEnv(num_threads=4, schedule="dynamic", dynamic_chunks_per_thread=5)
    assert dyn.default_chunk(100) == 5
    assert env.default_chunk(0) == 1


def test_static_chunks_cover_range_exactly():
    chunks = list(static_chunks(3, 17, 4))
    assert chunks == [(3, 7), (7, 11), (11, 15), (15, 17)]
    with pytest.raises(ConfigError):
        list(static_chunks(0, 10, 0))


def test_loop_chunk_count():
    env = OmpEnv(num_threads=8)
    assert loop_chunk_count(env, 64) == 8
    assert loop_chunk_count(env, 64, chunk=1) == 64
    assert loop_chunk_count(env, 0) == 0


# ------------------------------------------------------------ parallel_for
def _sum_body(lo, hi):
    yield Work(1e-4 * (hi - lo))
    return sum(range(lo, hi))


def test_parallel_for_computes_all_chunks():
    rt = make_runtime(8)
    env = OmpEnv(num_threads=8)

    def program():
        parts = yield from parallel_for(env, 0, 100, _sum_body, chunk=7)
        return sum(parts)

    assert rt.run(program()).result == sum(range(100))


def test_parallel_for_empty_range():
    rt = make_runtime(2)
    env = OmpEnv(num_threads=2)

    def program():
        parts = yield from parallel_for(env, 5, 5, _sum_body)
        return parts

    assert rt.run(program()).result == []


def test_parallel_for_results_in_iteration_order():
    rt = make_runtime(8)
    env = OmpEnv(num_threads=8)

    def body(lo, hi):
        yield Work(1e-4 * ((hi * 7) % 5 + 1))  # uneven durations
        return lo

    def program():
        parts = yield from parallel_for(env, 0, 40, body, chunk=5)
        return parts

    assert rt.run(program()).result == [0, 5, 10, 15, 20, 25, 30, 35]


def test_parallel_for_rejects_bad_chunk():
    rt = make_runtime(2)
    env = OmpEnv(num_threads=2)

    def program():
        yield from parallel_for(env, 0, 10, _sum_body, chunk=0)

    with pytest.raises(ConfigError):
        rt.run(program())


# -------------------------------------------------------------- reduction
def test_parallel_reduce_matches_serial():
    rt = make_runtime(8)
    env = OmpEnv(num_threads=8)

    def program():
        total = yield from parallel_reduce(
            env, 0, 1000, _sum_body, operator.add, 0, chunk=37
        )
        return total

    assert rt.run(program()).result == sum(range(1000))


def test_parallel_reduce_init_value():
    rt = make_runtime(4)
    env = OmpEnv(num_threads=4)

    def program():
        total = yield from parallel_reduce(
            env, 0, 10, _sum_body, operator.add, 1000, chunk=5
        )
        return total

    assert rt.run(program()).result == 1000 + sum(range(10))


def test_reduce_combine_tail_costs_time():
    """The serial combine is charged as work: many chunks cost more."""
    env = OmpEnv(num_threads=4)

    def run(chunks, cost):
        rt = make_runtime(4)

        def program():
            total = yield from parallel_reduce(
                env, 0, 512, _sum_body, operator.add, 0,
                chunk=512 // chunks, combine_cost_s=cost,
            )
            return total

        return rt.run(program()).elapsed_s

    assert run(256, 1e-3) > run(4, 1e-3)


# ----------------------------------------------------------------- region
def test_parallel_region_runs_team():
    rt = make_runtime(8)
    env = OmpEnv(num_threads=8)

    def member(tid):
        yield Work(1e-3)
        return tid * 10

    def program():
        results = yield from parallel_region(env, member)
        return results

    assert rt.run(program()).result == [i * 10 for i in range(8)]


def test_parallel_region_num_threads_clause():
    rt = make_runtime(8)
    env = OmpEnv(num_threads=8)

    def member(tid):
        yield Work(1e-4)
        return tid

    def program():
        results = yield from parallel_region(env, member, num_threads=3)
        return results

    assert rt.run(program()).result == [0, 1, 2]


def test_parallel_region_rejects_empty_team():
    rt = make_runtime(2)
    env = OmpEnv(num_threads=2)

    def member(tid):
        yield Work(1e-4)
        return tid

    def program():
        yield from parallel_region(env, member, num_threads=0)

    with pytest.raises(ConfigError):
        rt.run(program())
