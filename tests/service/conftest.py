"""Fixtures for the service tests: an in-thread service + clients.

The worker entries injected here replace the real harness execution so
lifecycle tests are fast and deterministic; end-to-end tests that need
real measurements (cache behaviour, crash recovery) pass ``entry=None``
and use quick real specs instead.
"""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import pytest

from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig
from repro.service.testing import ServiceThread


# ---------------------------------------------------------------- entries
# Module-level so fork()ed worker children resolve them; results cross a
# pipe, so they only need to be picklable.
def _record(spec, wall_s: float = 0.01) -> SimpleNamespace:
    return SimpleNamespace(spec=spec, time_s=1.0, energy_j=16.0,
                           watts=16.0, wall_s=wall_s)


def entry_ok(spec):
    time.sleep(0.01)
    return _record(spec)


def entry_slow(spec):
    time.sleep(0.6)
    return _record(spec, wall_s=0.6)


def entry_hang(spec):
    time.sleep(60.0)
    return _record(spec)  # pragma: no cover - always killed first


def entry_fail(spec):
    raise ValueError(f"synthetic spec failure for {spec.describe()}")


def entry_crash(spec):
    os._exit(13)  # simulated OOM kill / hard worker crash


def entry_pid(spec):
    return os.getpid()  # which worker ran the job


# ---------------------------------------------------------------- fixtures
@pytest.fixture
def make_service():
    """Factory for in-thread services with fast, test-friendly defaults."""
    started: list[ServiceThread] = []

    def _make(entry=None, **overrides) -> ServiceThread:
        settings = dict(
            port=0,
            workers=2,
            queue_depth=8,
            timeout_s=30.0,
            retries=1,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
            max_redeliveries=2,
            retry_after_s=0.25,
            drain_grace_s=5.0,
        )
        settings.update(overrides)
        svc = ServiceThread(ServiceConfig(**settings),
                            worker_entry=entry).start()
        started.append(svc)
        return svc

    yield _make
    for svc in started:
        svc.stop(drain=False)


@pytest.fixture
def make_client():
    clients: list[ServiceClient] = []

    def _make(svc: ServiceThread, name: str = "test",
              timeout: float = 60.0) -> ServiceClient:
        client = ServiceClient(port=svc.port, name=name, timeout=timeout)
        clients.append(client)
        return client

    yield _make
    for client in clients:
        try:
            client.close()
        except OSError:
            pass
