"""Fuzz the wire decoders: any input yields a value or ``ProtocolError``.

The server turns a ``ProtocolError`` into an error frame; any other
exception escaping ``decode_frame``, ``validate_request`` or
``spec_from_wire`` would instead tear down the connection handler.  The
``@example`` rows are the escapes this fuzzing found, kept as
regressions.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ProtocolError
from repro.service.protocol import (
    OPS,
    SPEC_KINDS,
    decode_frame,
    spec_from_wire,
    validate_request,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

pytestmark = pytest.mark.service

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=12))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=16,
)
# Plausible field values, so decoding gets past the shape checks.
field_values = json_values | st.sampled_from(
    ["nqueens", "mergesort", "gcc", "O2", "default", "none", "fcfs",
     "diurnal", "full", "analytic"])


def _wire_for(kind: str):
    names = sorted(f.name for f in dataclasses.fields(SPEC_KINDS[kind]))
    return st.fixed_dictionaries({
        "kind": st.just(kind),
        "fields": st.dictionaries(st.sampled_from(names), field_values,
                                  max_size=6),
    })


wires = st.sampled_from(sorted(SPEC_KINDS)).flatmap(_wire_for) | json_values
requests = json_values | st.fixed_dictionaries(
    {"op": st.sampled_from(sorted(OPS))},
    optional={key: json_values
              for key in ("job", "timeout_s", "drain", "spec", "client")},
)
frames = (st.binary(max_size=200)
          | json_values.map(lambda value: json.dumps(value).encode())
          | st.integers(1, 100_000).map(lambda n: b"[" * n))

_BIG = 10 ** 400  # an exact JSON int that no float can hold


@FUZZ
@given(frames)
@example(b"[" * 100_000)  # RecursionError from the json parser
def test_decode_frame_raises_only_protocol_errors(line):
    try:
        assert isinstance(decode_frame(line), dict)
    except ProtocolError:
        pass


@FUZZ
@given(requests)
@example([])  # a non-object frame: AttributeError on .get
def test_validate_request_raises_only_protocol_errors(frame):
    try:
        assert validate_request(frame) is frame
    except ProtocolError:
        pass


@FUZZ
@given(wires)
# SchedSpec took the budget, then describe() overflowed formatting it.
@example({"kind": "sched", "fields": {"budget_w": _BIG}})
# int(Infinity) in the predictor payload: OverflowError.
@example({"kind": "sched", "fields": {"predictor": {
    "entries": [], "base_threads": float("inf"), "schema": ""}}})
# A non-string label: describe() returned it as is.
@example({"kind": "cosched", "fields": {"label": 1}})
def test_spec_from_wire_raises_only_protocol_errors(wire):
    try:
        spec = spec_from_wire(wire)
    except ProtocolError:
        return
    # What decodes is a spec the server can digest and describe.
    assert isinstance(spec.digest, str) and isinstance(spec.describe(), str)


_SCHED_REALS = ("budget_w", "scale", "rate_jobs_per_s", "period_s",
                "coordinator_period_s", "time_limit_s")


@FUZZ
@given(st.sampled_from(_SCHED_REALS),
       st.integers(min_value=2 ** 1024, max_value=10 ** 500))
# Each took an int past the float range and overflowed in the worker.
@example("scale", _BIG)
@example("rate_jobs_per_s", _BIG)
@example("period_s", _BIG)
@example("coordinator_period_s", _BIG)
@example("time_limit_s", _BIG)
def test_sched_reals_past_the_float_range_are_refused(name, value):
    with pytest.raises(ProtocolError):
        spec_from_wire({"kind": "sched", "fields": {name: value}})
