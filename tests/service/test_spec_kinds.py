"""Conformance of every spec kind to the one spec protocol.

Each kind in :data:`repro.service.protocol.SPEC_KINDS` must survive the
JSON wire round trip with its digest, run the same record through
:func:`execute_spec` and :func:`validate_spec`, and carry the ``KIND`` it
is registered under.
"""

from __future__ import annotations

import json

import pytest

from repro.cosched.spec import CoschedSpec
from repro.harness.executor import execute_spec
from repro.harness.spec import RunSpec
from repro.sched.spec import SchedSpec
from repro.service.protocol import SPEC_KINDS, spec_from_wire, spec_to_wire
from repro.validate.runner import validate_spec

pytestmark = pytest.mark.service

SMALL_SPECS = {
    "run": RunSpec("nqueens", scale=0.05),
    "sched": SchedSpec(execution="analytic", policy="predicted", jobs=6,
                       nodes=2, budget_w=200.0, seed=1),
    "cosched": CoschedSpec(app="mergesort", injector="inject-membw",
                           scale=0.05, inj_scale=2.0),
}


def test_every_kind_has_a_small_spec() -> None:
    assert set(SMALL_SPECS) == set(SPEC_KINDS)


@pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
def test_kind_conforms(kind: str) -> None:
    spec = SMALL_SPECS[kind]
    assert SPEC_KINDS[kind].KIND == kind
    assert type(spec) is SPEC_KINDS[kind]

    wire = json.loads(json.dumps(spec_to_wire(spec)))
    assert wire["kind"] == kind
    clone = spec_from_wire(wire)
    assert clone == spec
    assert clone.digest == spec.digest

    record, report = validate_spec(spec)
    assert record == execute_spec(spec)
    assert report.spec == spec
    if kind == "sched":
        # A scheduled run's validation report is the budget auditors'.
        assert report.violations == tuple(record.budget_violations)
    else:
        assert sum(report.checks.values()) > 0
    assert report.ok
