"""Crash-recovery acceptance: SIGKILL the service, restart, no reruns.

This is the PR's headline robustness claim, so it runs against a *real*
service subprocess (own process group — the kill takes the in-flight
worker down with it, like a machine reset would):

1. start the service with a journal and cache dir;
2. submit fast jobs (they finish), a slow job (in-flight at the kill)
   and queued jobs behind it, plus a duplicate-digest submission;
3. SIGKILL the whole process group mid-flight;
4. restart against the same journal/cache dir;
5. every accepted job reaches a terminal state under its original id,
   and the cache ledger shows exactly one execution per digest.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.harness.cache import ResultCache
from repro.harness.spec import RunSpec
from repro.service.client import ServiceClient

pytestmark = pytest.mark.service

FAST = [RunSpec("nqueens", scale=0.05, seed=s) for s in (1, 2)]
#: ~3 s of wall time in-process on a 2-core host, so it is still running
#: while the duplicate is submitted and the kill lands.
SLOW = RunSpec("mergesort", scale=300.0, seed=3, throttle=True)
QUEUED = [RunSpec("reduction", scale=0.05, seed=s) for s in (4, 5)]


def _start_service(tmp_path, workers: int = 1):
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0", "--workers", str(workers), "--quiet",
        "--journal", str(tmp_path / "journal.jsonl"),
        "--cache-dir", str(tmp_path / "cache"),
        "--timeout", "120",
    ]
    # Make `repro` importable in the child regardless of how pytest was
    # launched (tier-1 runs use PYTHONPATH=src; keep that working too).
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True, env=env,
    )
    deadline = time.monotonic() + 60.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            break
        if proc.poll() is not None:
            raise AssertionError(f"service exited early: {proc.returncode}")
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    assert match, f"no listening line, got {line!r}"
    return proc, int(match.group(1))


def _killpg(proc) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()
    proc.wait(timeout=30)


def test_crash_recovery_finishes_every_job_exactly_once(tmp_path):
    proc, port = _start_service(tmp_path)
    jobs: dict[str, str] = {}  # job id -> phase label
    try:
        with ServiceClient(port=port, name="primary", timeout=120.0) as c:
            for spec in FAST:
                done = c.submit_and_wait(spec, timeout_s=120.0)
                assert done["state"] == "done"
                jobs[done["job"]] = "finished-before-kill"
            slow = c.submit(SLOW)
            assert slow["ok"]
            jobs[slow["job"]] = "in-flight-at-kill"
            for spec in QUEUED:
                queued = c.submit(spec)
                assert queued["ok"]
                jobs[queued["job"]] = "queued-at-kill"
            with ServiceClient(port=port, name="duplicate") as d:
                dup = d.submit(SLOW)
                assert dup["ok"] and dup["job"] == slow["job"]
            # Wait until the slow job is genuinely executing (with one
            # worker it is next in line), then pull the plug.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if any(a["job"] == slow["job"]
                       for a in c.stats()["active"]):
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("slow job never started")
    finally:
        _killpg(proc)

    # Restart against the same journal and cache directory.
    proc, port = _start_service(tmp_path)
    try:
        with ServiceClient(port=port, name="after", timeout=240.0) as c:
            # Every accepted job reaches a terminal state under its
            # original id — including the ones that finished before the
            # kill (their journal entries are terminal; the restarted
            # service must still answer for the unfinished ones).
            for job_id, phase in jobs.items():
                if phase == "finished-before-kill":
                    continue  # terminal in the journal, not resurrected
                snap = c.result(job_id, timeout_s=240.0)
                assert snap["state"] == "done", (job_id, phase, snap)
            stats = c.stats()
            assert stats["counters"]["recovered"] == 3  # slow + 2 queued
            # Resubmitting the pre-kill jobs is answered from the cache,
            # proving their results survived and nothing re-executes.
            for spec in FAST + [SLOW] + QUEUED:
                again = c.submit(spec)
                assert again["ok"] and again["state"] == "done"
            assert c.stats()["counters"]["executed"] <= 3
            c.shutdown(drain=True)
    finally:
        _killpg(proc)

    # The exactly-once ledger check: one `put` per digest, ever.
    counts = ResultCache(root=str(tmp_path / "cache")).execution_counts()
    expected = {spec.digest for spec in FAST + [SLOW] + QUEUED}
    assert set(counts) == expected
    assert all(n == 1 for n in counts.values()), counts


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("Z", "X")


def test_idle_workers_exit_when_only_the_service_is_killed(tmp_path):
    """SIGKILL the service pid alone: its idle warm workers follow it.

    No process group kill here, so nothing but the workers' own pipes
    tells them their parent is gone; a worker that lingered would hold
    the journal and refuse the next incarnation.
    """
    proc, port = _start_service(tmp_path, workers=2)
    pids: set[int] = set()
    try:
        with ServiceClient(port=port, name="primary", timeout=120.0) as c:
            # Two jobs in flight at once: both slots fork a worker.
            jobs = [c.submit(spec)["job"] for spec in FAST]
            for job in jobs:
                assert c.result(job, timeout_s=120.0)["state"] == "done"
            assert c.stats()["active"] == []  # both workers now idle
        with open(tmp_path / "journal.jsonl") as fh:
            for line in fh:
                entry = json.loads(line)
                if entry["ev"] == "started":
                    pids.add(entry["pid"])
        assert len(pids) == 2
        assert not any(_exited(pid) for pid in pids)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(map(_exited, pids)):
            time.sleep(0.02)
        assert all(map(_exited, pids)), pids
    finally:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)  # leftovers, if it failed
        proc.wait(timeout=30)

    proc, port = _start_service(tmp_path)  # the same journal opens again
    try:
        with ServiceClient(port=port, name="after", timeout=60.0) as c:
            assert c.ping()["ok"]
            again = c.submit(FAST[0])
            assert again["ok"] and again["state"] == "done"  # from the store
    finally:
        _killpg(proc)
