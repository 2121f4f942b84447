"""Subprocess runner tests: deadline kills, crash detection, outcomes."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.errors import WorkerCrashed, WorkerTimeout
from repro.harness.executor import run_spec_subprocess
from repro.harness.spec import RunSpec
from repro.service.workers import WorkerRunner

from tests.service.conftest import (
    entry_crash, entry_fail, entry_hang, entry_ok, entry_pid, entry_slow,
)

pytestmark = pytest.mark.service

SPEC = RunSpec("nqueens", seed=1)


class TestRunSpecSubprocess:
    def test_returns_entry_result(self):
        record = run_spec_subprocess(SPEC, entry=entry_ok)
        assert record.time_s == 1.0

    def test_reports_pid_before_result(self):
        pids: list[int] = []
        run_spec_subprocess(SPEC, entry=entry_ok, on_start=pids.append)
        assert len(pids) == 1 and pids[0] > 0

    def test_reraises_spec_errors(self):
        with pytest.raises(ValueError, match="synthetic"):
            run_spec_subprocess(SPEC, entry=entry_fail)

    def test_timeout_kills_the_worker(self):
        pids: list[int] = []
        t0 = time.monotonic()
        with pytest.raises(WorkerTimeout, match="deadline"):
            run_spec_subprocess(SPEC, timeout_s=0.2, entry=entry_hang,
                                on_start=pids.append)
        assert time.monotonic() - t0 < 10.0
        # The runaway child must actually be gone, not leaked.
        with pytest.raises(OSError):
            os.kill(pids[0], 0)

    def test_crash_is_detected(self):
        with pytest.raises(WorkerCrashed, match="died without a result"):
            run_spec_subprocess(SPEC, entry=entry_crash)

    def test_real_entry_round_trips_a_record(self):
        record, report = run_spec_subprocess(RunSpec("nqueens", scale=0.05))
        assert report is None
        assert record.energy_j > 0.0


class TestWorkerRunner:
    def test_classifies_ok(self):
        outcome = WorkerRunner(entry=entry_ok).run("j-1", SPEC)
        assert outcome.kind == "ok"
        assert outcome.record.watts == 16.0

    def test_classifies_error(self):
        outcome = WorkerRunner(entry=entry_fail).run("j-1", SPEC)
        assert outcome.kind == "error"
        assert "synthetic" in outcome.error

    def test_classifies_timeout(self):
        outcome = WorkerRunner(timeout_s=0.2, entry=entry_hang).run(
            "j-1", SPEC)
        assert outcome.kind == "timeout"

    def test_classifies_crash(self):
        outcome = WorkerRunner(entry=entry_crash).run("j-1", SPEC)
        assert outcome.kind == "crash"

    def test_pid_registry_tracks_in_flight_only(self):
        runner = WorkerRunner(entry=entry_ok)
        seen: list[dict[str, int]] = []
        runner.run("j-42", SPEC,
                   on_start=lambda pid: seen.append(runner.active_pids()))
        assert seen[0] == {"j-42": seen[0]["j-42"]}
        assert runner.active_pids() == {}  # emptied even after crashes
        WorkerRunner(entry=entry_crash).run("j-9", SPEC)


def _scripted(spec):
    """Per-seed behaviour, so one runner sees every outcome in turn."""
    if spec.seed == 2:
        return entry_fail(spec)
    if spec.seed == 3:
        return entry_crash(spec)
    if spec.seed == 4:
        return entry_hang(spec)
    return entry_pid(spec)


def _entry_deaf_hang(spec):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return entry_hang(spec)


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return True
    return False


def _vm_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmRSS for pid {pid}")


class TestWarmWorkers:
    def test_ok_jobs_reuse_one_worker(self):
        runner = WorkerRunner(entry=entry_pid)
        try:
            outcomes = [runner.run(f"j-{i}", SPEC) for i in range(3)]
        finally:
            runner.close()
        assert [o.kind for o in outcomes] == ["ok"] * 3
        # The entry ran in the worker it reports, and it was the same one.
        assert {o.record for o in outcomes} == {outcomes[0].pid}
        assert _gone(outcomes[0].pid)  # close() reaped the idle worker

    @pytest.mark.parametrize("seed, kind", [(2, "error"), (3, "crash"),
                                            (4, "timeout")])
    def test_worker_is_retired_after_any_failure(self, seed, kind):
        runner = WorkerRunner(timeout_s=0.5, entry=_scripted)
        try:
            warm = runner.run("j-1", RunSpec("nqueens", seed=1))
            failed = runner.run("j-2", RunSpec("nqueens", seed=seed))
            after = runner.run("j-3", RunSpec("nqueens", seed=1))
        finally:
            runner.close()
        assert failed.kind == kind
        assert failed.pid == warm.pid  # the failure hit the warm worker
        assert after.kind == "ok" and after.record != warm.pid
        assert _gone(warm.pid)  # retired means reaped, not parked

    def test_deadline_kill_escalates_past_an_ignored_sigterm(self):
        # terminate, wait grace_s, then SIGKILL: the wait must stay
        # bounded in a warm worker, whose inherited fds were detached.
        runner = WorkerRunner(timeout_s=0.3, entry=_entry_deaf_hang)
        box: dict[str, object] = {}
        thread = threading.Thread(
            target=lambda: box.update(outcome=runner.run("j-1", SPEC)))
        thread.start()
        thread.join(10.0)
        hung = thread.is_alive()
        runner.close()  # frees a hung run, so the test cannot hang
        thread.join(10.0)
        assert not hung
        assert box["outcome"].kind == "timeout"

    def test_active_pids_lists_in_flight_jobs_only(self):
        runner = WorkerRunner(entry=entry_slow)
        try:
            runner.run("j-1", SPEC)  # leaves one idle warm worker
            assert runner.active_pids() == {}
            started = threading.Event()
            thread = threading.Thread(target=runner.run, args=("j-2", SPEC),
                                      kwargs={"on_start": lambda pid:
                                              started.set()})
            thread.start()
            assert started.wait(10.0)
            assert list(runner.active_pids()) == ["j-2"]
            thread.join(10.0)
            assert not thread.is_alive()
            assert runner.active_pids() == {}
        finally:
            runner.close()

    def test_kill_hits_only_the_named_in_flight_job(self):
        runner = WorkerRunner(entry=entry_slow)
        outcomes: dict[str, object] = {}
        started = threading.Barrier(3)

        def _run(job_id: str) -> None:
            outcomes[job_id] = runner.run(
                job_id, SPEC, on_start=lambda pid: started.wait(10.0))

        threads = [threading.Thread(target=_run, args=(job_id,))
                   for job_id in ("j-1", "j-2")]
        try:
            for thread in threads:
                thread.start()
            started.wait(10.0)
            assert runner.kill("j-unknown") is False
            assert runner.kill("j-1") is True
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            assert outcomes["j-1"].kind == "crash"
            assert outcomes["j-2"].kind == "ok"
            # Finished jobs are out of the registry: a late kill is a no-op
            # and cannot reach the worker now parked for the next job.
            assert runner.kill("j-2") is False
            assert runner.run("j-3", SPEC).pid == outcomes["j-2"].pid
        finally:
            runner.close()

    def test_close_kills_busy_workers(self):
        runner = WorkerRunner(entry=entry_hang)
        done = threading.Event()
        pids: list[int] = []
        thread = threading.Thread(
            target=lambda: (runner.run("j-1", SPEC, on_start=pids.append),
                            done.set()))
        thread.start()
        deadline = time.monotonic() + 10.0
        while not pids and time.monotonic() < deadline:
            time.sleep(0.01)
        runner.close()
        assert done.wait(10.0)
        thread.join(10.0)
        assert not thread.is_alive()
        assert _gone(pids[0])

    def test_warm_worker_memory_stays_flat(self):
        """~200 real quick specs through one worker: RSS does not creep.

        A warm worker holds ~60 MB; between job 20 (caches filled, the
        inherited pages it touches already faulted in) and job 200 it may
        grow by at most 8 MB, i.e. under 45 KB per job — a per-job leak
        of one record plus its telemetry would exceed that.
        """
        runner = WorkerRunner()
        rss: dict[int, int] = {}
        pids: set[int] = set()
        try:
            for i in range(1, 201):
                outcome = runner.run(
                    f"j-{i}", RunSpec("nqueens", scale=0.05, seed=i))
                assert outcome.kind == "ok", outcome.error
                pids.add(outcome.pid)
                if i in (20, 200):
                    rss[i] = _vm_rss_kb(outcome.pid)
        finally:
            runner.close()
        assert len(pids) == 1
        assert rss[200] - rss[20] <= 8 * 1024, rss
