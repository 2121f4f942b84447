"""Fixtures for observability-over-the-service tests: the service
tests' in-thread service, clients and injected worker entries."""

from tests.service.conftest import (  # noqa: F401 - fixtures by name
    entry_crash,
    entry_ok,
    make_client,
    make_service,
)
