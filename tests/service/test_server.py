"""End-to-end service tests against a real TCP endpoint (in-thread)."""

from __future__ import annotations

import json
import os
import socket
import time

import pytest

from repro.harness.cache import ResultCache
from repro.harness.spec import RunSpec
from repro.harness.telemetry import JobRetried, JobStarted, ListSink
from repro.service.protocol import MAX_FRAME_BYTES, encode_frame, spec_to_wire

from tests.service.conftest import (
    entry_crash,
    entry_fail,
    entry_hang,
    entry_ok,
    entry_slow,
)

pytestmark = pytest.mark.service


def _spec(seed: int, **kw) -> RunSpec:
    return RunSpec("nqueens", seed=seed, **kw)


class TestHappyPath:
    def test_submit_status_result(self, make_service, make_client):
        svc = make_service(entry_ok)
        client = make_client(svc)
        accepted = client.submit(_spec(1))
        assert accepted["ok"] and accepted["state"] in ("queued", "running")
        done = client.result(accepted["job"], timeout_s=30.0)
        assert done["state"] == "done"
        assert done["source"] == "executed"
        assert done["result"]["watts"] == 16.0
        status = client.status(accepted["job"])
        assert status["state"] == "done"
        assert client.ping()["ok"]

    def test_result_lookup_by_digest(self, make_service, make_client):
        svc = make_service(entry_ok)
        client = make_client(svc)
        spec = _spec(2)
        client.submit(spec)
        done = client.result(spec.digest, timeout_s=30.0)
        assert done["digest"] == spec.digest

    def test_stats_shape(self, make_service, make_client):
        svc = make_service(entry_ok)
        client = make_client(svc)
        client.submit_and_wait(_spec(3), timeout_s=30.0)
        stats = client.stats()
        assert stats["counters"]["accepted"] == 1
        assert stats["counters"]["executed"] == 1
        assert stats["workers"] == 2
        assert stats["jobs"] == {"done": 1}


class TestDedupAndBackpressure:
    def test_duplicate_digest_attaches(self, make_service, make_client):
        svc = make_service(entry_slow)
        alice, bob = make_client(svc, "alice"), make_client(svc, "bob")
        first = alice.submit(_spec(1))
        second = bob.submit(_spec(1))
        assert second["ok"] and second["attached"] is True
        assert second["job"] == first["job"]
        for client in (alice, bob):
            assert client.result(first["job"], 30.0)["state"] == "done"
        assert svc.service.counters["attached"] == 1
        assert svc.service.counters["executed"] == 1
        assert alice.status(first["job"])["subscribers"] == 2

    def test_full_queue_sheds_with_retry_after(self, make_service,
                                               make_client):
        svc = make_service(entry_slow, workers=1, queue_depth=1,
                           retry_after_s=0.75)
        client = make_client(svc)
        first = client.submit(_spec(1))    # occupies the worker
        second = client.submit(_spec(2))   # occupies the queue
        shed = client.submit(_spec(3))     # must bounce, not buffer
        assert shed["ok"] is False
        assert shed["reason"] == "queue-full"
        assert shed["retry_after_s"] == 0.75
        assert svc.service.counters["shed_queue"] == 1
        for response in (first, second):
            assert client.result(response["job"], 30.0)["state"] == "done"

    def test_quota_sheds_per_client(self, make_service, make_client):
        svc = make_service(entry_ok, quota_rate=0.01, quota_burst=1.0)
        greedy = make_client(svc, "greedy")
        polite = make_client(svc, "polite")
        assert greedy.submit(_spec(1))["ok"]
        shed = greedy.submit(_spec(2))
        assert shed["ok"] is False and shed["reason"] == "quota"
        assert shed["retry_after_s"] > 0
        assert polite.submit(_spec(3))["ok"]  # other clients unaffected


class TestFailureModes:
    def test_spec_error_retries_then_fails(self, make_service, make_client):
        svc = make_service(entry_fail, retries=1)
        client = make_client(svc)
        done = client.submit_and_wait(_spec(1), timeout_s=30.0)
        assert done["state"] == "failed"
        assert done["attempts"] == 2          # initial + 1 retry
        assert "synthetic" in done["error"]
        assert svc.service.counters["retries"] == 1
        assert svc.service.counters["failed"] == 1

    def test_timeout_dead_letters(self, make_service, make_client):
        svc = make_service(entry_hang, timeout_s=0.2, retries=1)
        client = make_client(svc)
        done = client.submit_and_wait(_spec(1), timeout_s=60.0)
        assert done["state"] == "dead"
        assert "deadline" in done["error"]
        assert svc.service.counters["timeouts"] == 2  # initial + retry
        assert svc.service.counters["dead"] == 1

    def test_crash_requeues_then_quarantines_poison(self, make_service,
                                                    make_client):
        svc = make_service(entry_crash, max_redeliveries=1)
        client = make_client(svc)
        done = client.submit_and_wait(_spec(1), timeout_s=60.0)
        assert done["state"] == "dead"
        assert done["redeliveries"] == 2      # 1 redelivery + the final straw
        assert svc.service.counters["crashes"] == 2
        assert svc.service.counters["requeues"] == 1
        assert svc.service.counters["dead"] == 1

    def test_failed_digest_gets_a_fresh_attempt(self, make_service,
                                                make_client):
        svc = make_service(entry_fail, retries=0)
        client = make_client(svc)
        first = client.submit_and_wait(_spec(1), timeout_s=30.0)
        assert first["state"] == "failed"
        retry = client.submit(_spec(1))
        assert retry["ok"] and retry["attached"] is False
        assert retry["job"] != first["job"]

    def test_cancel_queued_job(self, make_service, make_client):
        svc = make_service(entry_slow, workers=1)
        client = make_client(svc)
        running = client.submit(_spec(1))
        queued = client.submit(_spec(2))
        cancelled = client.cancel(queued["job"])
        assert cancelled["cancelled"] is True
        assert client.result(queued["job"], 30.0)["state"] == "cancelled"
        assert client.result(running["job"], 30.0)["state"] == "done"


    def test_cancel_during_retry_backoff(self, make_service, make_client):
        svc = make_service(entry_fail, retries=1, backoff_base_s=1.5,
                           backoff_max_s=1.5)
        sink = svc.service.bus.subscribe(ListSink())
        client = make_client(svc)
        job = client.submit(_spec(1))["job"]
        deadline = time.monotonic() + 10.0
        while not sink.of_type(JobRetried):  # first attempt failed
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert client.cancel(job)["cancelled"] is True
        done = client.result(job, 30.0)
        assert done["state"] == "cancelled"
        assert done["attempts"] == 1
        assert done["error"] == "cancelled while backing off"
        assert [e.attempt for e in sink.of_type(JobStarted)] == [1]

    def test_cancel_wakes_retry_backoff(self, make_service, make_client):
        svc = make_service(entry_fail, retries=1, backoff_base_s=30.0,
                           backoff_max_s=30.0)
        sink = svc.service.bus.subscribe(ListSink())
        client = make_client(svc)
        job = client.submit(_spec(1))["job"]
        deadline = time.monotonic() + 10.0
        while not sink.of_type(JobRetried):  # now in a 30 s backoff
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert client.cancel(job)["cancelled"] is True
        done = client.result(job, 5.0)
        assert done["state"] == "cancelled"
        assert done["attempts"] == 1
        assert done["error"] == "cancelled while backing off"

    def test_cancel_running_job(self, make_service, make_client):
        svc = make_service(entry_slow, workers=2)
        client = make_client(svc)
        doomed = client.submit(_spec(1))
        kept = client.submit(_spec(2))
        doomed_pid = _running_pid(client, doomed["job"])
        kept_pid = _running_pid(client, kept["job"])
        cancelled = client.cancel(doomed["job"])
        assert cancelled["cancelled"] is True and cancelled["pending"]
        assert client.result(doomed["job"], 30.0)["state"] == "cancelled"
        assert client.result(kept["job"], 30.0)["state"] == "done"
        assert svc.service.counters["cancelled"] == 1
        # Both slots busy again: one takes the kept job's warm worker, the
        # other a freshly forked one; the killed worker is never reused.
        nxt = [client.submit(_spec(seed)) for seed in (3, 4)]
        pids = {_running_pid(client, job["job"]) for job in nxt}
        assert doomed_pid not in pids
        assert len(pids - {kept_pid}) == 1
        for job in nxt:
            assert client.result(job["job"], 30.0)["state"] == "done"


def _running_pid(client, job_id: str, timeout: float = 10.0) -> int:
    """The worker pid a job reports while it runs."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snap = client.status(job_id)
        if snap["state"] == "running" and "pid" in snap:
            return snap["pid"]
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reported a running pid")


class TestRealExecutionAndCache:
    def test_cache_hit_after_restart(self, make_service, make_client,
                                     tmp_path):
        cache_root = str(tmp_path / "cache")
        journal = str(tmp_path / "journal.jsonl")
        spec = RunSpec("nqueens", scale=0.05, seed=5)

        first = make_service(None, cache_root=cache_root,
                             journal_path=journal)
        done = make_client(first).submit_and_wait(spec, timeout_s=120.0)
        assert done["state"] == "done" and done["source"] == "executed"
        first.stop()

        second = make_service(None, cache_root=cache_root,
                              journal_path=journal)
        hit = make_client(second).submit(spec)
        assert hit["ok"] and hit["state"] == "done"
        assert hit["source"] == "cache"
        assert second.service.counters["cache_hits"] == 1
        counts = ResultCache(root=cache_root).execution_counts()
        assert counts == {spec.digest: 1}


class TestWireRobustness:
    def _raw(self, svc) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", svc.port), timeout=10)
        sock.settimeout(10)
        return sock

    def _read_line(self, sock) -> bytes:
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
        return data

    def _read_until_closed(self, sock) -> bytes:
        # A server shedding an oversized frame closes with unread input
        # still buffered, so the kernel may answer with RST rather than
        # FIN; both count as "the server hung up".
        try:
            return self._read_line(sock)
        except ConnectionResetError:
            return b""

    def test_malformed_frame_keeps_connection_alive(self, make_service):
        svc = make_service(entry_ok)
        with self._raw(svc) as sock:
            sock.sendall(b"this is not json\n")
            error = self._read_line(sock)
            assert b'"ok":false' in error and b"protocol" in error
            sock.sendall(b'{"op": "ping"}\n')
            assert b'"ok":true' in self._read_line(sock)

    def test_unknown_op_is_rejected(self, make_service):
        svc = make_service(entry_ok)
        with self._raw(svc) as sock:
            sock.sendall(b'{"op": "explode"}\n')
            assert b"unknown op" in self._read_line(sock)

    def test_oversized_frame_sheds_and_closes(self, make_service):
        svc = make_service(entry_ok)
        with self._raw(svc) as sock:
            sock.sendall(b'{"op": "ping", "pad": "'
                         + b"x" * (2 * MAX_FRAME_BYTES) + b'"}\n')
            error = self._read_line(sock)
            assert b"oversized" in error
            assert self._read_until_closed(sock) == b""  # server closed

    def test_hang_up_reaches_a_client_connected_across_a_fork(
            self, make_service):
        # This connection is open while a warm worker forks; the worker
        # must not keep the service's end of it alive after a hang-up.
        svc = make_service(entry_ok)
        with self._raw(svc) as sock:
            sock.sendall(encode_frame(
                {"op": "submit", "spec": spec_to_wire(_spec(1))}))
            job = json.loads(self._read_line(sock))["job"]
            sock.sendall(encode_frame(
                {"op": "result", "job": job, "timeout_s": 30.0}))
            assert json.loads(self._read_line(sock))["state"] == "done"
            sock.sendall(b'{"op": "ping", "pad": "'
                         + b"x" * (2 * MAX_FRAME_BYTES) + b'"}\n')
            assert b"oversized" in self._read_line(sock)
            assert self._read_until_closed(sock) == b""  # server closed

    def test_half_closed_connection(self, make_service):
        svc = make_service(entry_ok)
        with self._raw(svc) as sock:
            # Frame sent without its newline, then write side closed: the
            # server must treat EOF as end-of-frame, answer, and hang up
            # without wedging a worker or the accept loop.
            sock.sendall(b'{"op": "ping"}')
            sock.shutdown(socket.SHUT_WR)
            assert b'"ok":true' in self._read_line(sock)
            assert self._read_line(sock) == b""
        # The service survived and still accepts connections.
        with self._raw(svc) as sock:
            sock.sendall(b'{"op": "ping"}\n')
            assert b'"ok":true' in self._read_line(sock)

    def test_invalid_spec_is_a_protocol_error(self, make_service,
                                              make_client):
        svc = make_service(entry_ok)
        response = make_client(svc).request(
            {"op": "submit", "client": "t",
             "spec": {"kind": "run", "fields": {"app": "nope"}}})
        assert response["ok"] is False and response["reason"] == "protocol"

    def test_unknown_job_is_an_error(self, make_service, make_client):
        svc = make_service(entry_ok)
        response = make_client(svc).request(
            {"op": "status", "job": "j-999999"})
        assert response["ok"] is False
        assert response["reason"] == "unknown-job"


class TestStreaming:
    def test_stream_delivers_job_events(self, make_service, make_client):
        svc = make_service(entry_ok)
        watcher = make_client(svc, "watcher", timeout=30.0)
        submitter = make_client(svc, "submitter")
        events = watcher.events()
        submitter.submit_and_wait(_spec(1), timeout_s=30.0)
        seen = set()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            frame = next(events)
            seen.add(frame["event"])
            if "JobFinished" in seen:
                break
        assert {"JobAccepted", "JobFinished"} <= seen


class TestWarmWorkers:
    def test_stop_retires_warm_workers(self, make_service, make_client):
        svc = make_service(entry_ok)
        done = make_client(svc).submit_and_wait(_spec(1), timeout_s=30.0)
        pid = svc.service.jobs[done["job"]].pid
        os.kill(pid, 0)  # parked, warm, for the next job
        svc.stop()
        with pytest.raises(OSError):
            os.kill(pid, 0)  # retired and reaped with the service


class TestDrain:
    def test_draining_sheds_new_submissions(self, make_service,
                                            make_client):
        svc = make_service(entry_slow)
        client = make_client(svc)
        running = client.submit(_spec(1))
        svc.service._draining = True  # what SIGTERM flips
        shed = client.submit(_spec(2))
        assert shed["ok"] is False and shed["reason"] == "draining"
        svc.service._draining = False
        assert client.result(running["job"], 30.0)["state"] == "done"
