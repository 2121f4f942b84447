"""Unit tests for the bounded admission queue and token-bucket quotas."""

from __future__ import annotations

import pytest

from repro.errors import AdmissionError
from repro.harness.spec import RunSpec
from repro.service.jobs import Job
from repro.service.queue import AdmissionQueue
from repro.service.quotas import ClientQuotas, TokenBucket

pytestmark = pytest.mark.service


def _job(seed: int) -> Job:
    return Job(id=f"j-{seed:06d}", spec=RunSpec("nqueens", seed=seed),
               client="t")


class TestAdmissionQueue:
    def test_fifo_order(self):
        q = AdmissionQueue(4)
        jobs = [_job(i) for i in range(3)]
        for job in jobs:
            q.push(job)
        assert [q.pop() for _ in range(3)] == jobs
        assert q.pop() is None

    def test_full_queue_sheds_with_retry_after(self):
        q = AdmissionQueue(2, retry_after_s=1.5)
        q.push(_job(1))
        q.push(_job(2))
        with pytest.raises(AdmissionError) as excinfo:
            q.push(_job(3))
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.retry_after_s == 1.5

    def test_invalid_depth_rejected(self):
        with pytest.raises(AdmissionError):
            AdmissionQueue(0)

    def test_digest_stays_active_until_finished(self):
        q = AdmissionQueue(4)
        job = _job(7)
        q.push(job)
        assert q.active_for(job.digest) is job
        assert q.pop() is job
        # Popped (now running) jobs still count as active for dedup.
        assert q.active_for(job.digest) is job
        assert q.in_flight == 1
        q.finish(job)
        assert q.active_for(job.digest) is None

    def test_requeue_bypasses_depth_and_goes_first(self):
        q = AdmissionQueue(1)
        first, crashed = _job(1), _job(2)
        q.push(first)
        q.requeue(crashed)  # depth is 1 but redelivery must not shed
        assert q.pop() is crashed
        assert q.pop() is first

    def test_remove_only_while_queued(self):
        q = AdmissionQueue(4)
        job = _job(3)
        q.push(job)
        assert q.remove(job) is True
        assert q.active_for(job.digest) is None
        assert q.remove(job) is False


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)  # 1 token at 2 tokens/s
        now[0] += 0.5
        assert bucket.try_take() == 0.0

    def test_tokens_cap_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=lambda: now[0])
        now[0] += 100.0
        assert bucket.tokens == 3.0

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)

    def test_client_quotas_are_independent(self):
        now = [0.0]
        quotas = ClientQuotas(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert quotas.admit("alice") == 0.0
        assert quotas.admit("alice") > 0.0   # alice is dry
        assert quotas.admit("bob") == 0.0    # bob is unaffected
        assert len(quotas) == 2
