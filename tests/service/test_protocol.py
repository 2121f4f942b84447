"""Protocol-layer unit tests: framing, spec wire codec, validation."""

from __future__ import annotations

import json

import pytest

from repro.config import FaultConfig, MeterConfig, ThrottleConfig
from repro.errors import ProtocolError
from repro.harness.spec import RunSpec
from repro.sched.spec import SchedSpec
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_response,
    spec_from_wire,
    spec_to_wire,
    validate_request,
)

pytestmark = pytest.mark.service

try:
    from hypothesis import given
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is available in CI
    HAVE_HYPOTHESIS = False


# ---------------------------------------------------------------- framing
class TestFraming:
    def test_round_trip(self):
        frame = {"op": "submit", "client": "c", "n": 3, "f": 1.5,
                 "nested": {"a": [1, 2]}}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encode_rejects_non_dict(self):
        with pytest.raises(ProtocolError):
            encode_frame(["not", "a", "dict"])  # type: ignore[arg-type]

    def test_encode_rejects_unserialisable(self):
        with pytest.raises(ProtocolError):
            encode_frame({"spec": object()})

    def test_encode_rejects_oversized(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})

    def test_decode_rejects_oversized(self):
        line = (b'{"pad": "' + b"y" * MAX_FRAME_BYTES + b'"}\n')
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(line)

    @pytest.mark.parametrize("line", [
        b"not json at all\n",
        b'{"truncated": \n',
        b"[1, 2, 3]\n",        # valid JSON, wrong shape
        b'"just a string"\n',
        b"\xff\xfe{}\n",       # invalid UTF-8
        b"\n",                  # json.loads('') fails
    ])
    def test_decode_rejects_malformed(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)


# ---------------------------------------------------------------- specs
class TestSpecWire:
    def test_run_spec_round_trip(self):
        spec = RunSpec(
            "mergesort", compiler="icc", optlevel="O3", threads=8,
            throttle=True,
            throttle_config=ThrottleConfig(),
            faults=FaultConfig(),
            scale=0.5, seed=42,
        )
        clone = spec_from_wire(spec_to_wire(spec))
        assert clone == spec
        assert clone.digest == spec.digest

    def test_metered_run_spec_round_trip(self):
        spec = RunSpec(
            "lulesh", threads=12, scale=0.5,
            meter=MeterConfig(backend="counter-model", period_s=0.025,
                              read_cost_s=0.002, overhead_core=15),
        )
        clone = spec_from_wire(json.loads(json.dumps(spec_to_wire(spec))))
        assert clone == spec
        assert clone.digest == spec.digest
        assert clone.meter == spec.meter

    def test_bad_meter_backend_rejected(self):
        with pytest.raises(ProtocolError, match="backend"):
            spec_from_wire(
                {"kind": "run",
                 "fields": {"app": "nqueens",
                            "meter": {"backend": "nvml"}}})

    def test_unknown_meter_field_rejected(self):
        with pytest.raises(ProtocolError, match="meter"):
            spec_from_wire(
                {"kind": "run",
                 "fields": {"app": "nqueens",
                            "meter": {"cadence_s": 0.1}}})

    def test_sched_spec_round_trip(self):
        spec = SchedSpec(jobs=12, nodes=3, seed=9,
                         apps=("mergesort", "nqueens"))
        clone = spec_from_wire(spec_to_wire(spec))
        assert clone == spec
        assert clone.digest == spec.digest

    def test_wire_is_json_safe(self):
        wire = spec_to_wire(RunSpec("nqueens", faults=FaultConfig()))
        assert json.loads(json.dumps(wire)) == wire

    def test_faults_as_cli_string(self):
        spec = spec_from_wire(
            {"kind": "run",
             "fields": {"app": "nqueens", "faults": "default"}})
        assert spec.faults is not None

    def test_bad_fault_string_rejected(self):
        with pytest.raises(ProtocolError, match="fault"):
            spec_from_wire(
                {"kind": "run",
                 "fields": {"app": "nqueens",
                            "faults": "no-such-profile-xyz"}})

    @pytest.mark.parametrize("wire, match", [
        ("not a dict", "object"),
        ({"kind": "run"}, "fields"),
        ({"kind": "run", "fields": {"app": "nqueens", "bogus": 1}},
         "unknown run-spec field"),
        ({"kind": "run", "fields": {}}, "requires an 'app'"),
        ({"kind": "run", "fields": {"app": "no-such-app"}}, "invalid run"),
        ({"kind": "run",
          "fields": {"app": "nqueens",
                     "throttle_config": {"zzz": 1}}}, "unknown"),
        ({"kind": "sched", "fields": {"bogus": 1}},
         "unknown sched-spec field"),
        ({"kind": "sched", "fields": {"apps": [1, 2]}}, "list of strings"),
        ({"kind": "elves", "fields": {}}, "unknown spec kind"),
    ])
    def test_invalid_wire_rejected(self, wire, match):
        with pytest.raises(ProtocolError, match=match):
            spec_from_wire(wire)

    @pytest.mark.parametrize("wire, match", [
        ({"kind": ["run"], "fields": {"app": "nqueens"}}, "must be a string"),
        ({"kind": {"run": 1}, "fields": {"app": "nqueens"}},
         "must be a string"),
        ({"kind": "run", "fields": {"app": ["nqueens"]}},
         "unknown application"),
    ])
    def test_unhashable_value_is_a_protocol_error(self, wire, match):
        # The decoder looks kinds and apps up in dicts; an unhashable
        # value must still surface as ProtocolError (the server's
        # ok:false path), never as TypeError.
        with pytest.raises(ProtocolError, match=match):
            spec_from_wire(wire)


# ---------------------------------------------------------------- requests
class TestValidateRequest:
    def test_accepts_known_ops(self):
        for frame in ({"op": "ping"}, {"op": "stats"},
                      {"op": "submit", "spec": {}},
                      {"op": "status", "job": "j-000001"},
                      {"op": "result", "job": "j-000001", "timeout_s": 5},
                      {"op": "shutdown", "drain": False}):
            assert validate_request(frame) is frame

    @pytest.mark.parametrize("frame", [
        {},
        {"op": 7},
        {"op": "launch-missiles"},
        {"op": "submit"},                      # no spec
        {"op": "submit", "spec": {}, "client": 3},
        {"op": "status"},                      # no job
        {"op": "result", "job": ""},
        {"op": "result", "job": "j-1", "timeout_s": "soon"},
        {"op": "shutdown", "drain": "yes"},
    ])
    def test_rejects_bad_shapes(self, frame):
        with pytest.raises(ProtocolError):
            validate_request(frame)

    def test_error_response_shape(self):
        resp = error_response("submit", "full", reason="queue-full",
                              retry_after_s=0.5)
        assert resp == {"ok": False, "op": "submit", "error": "full",
                        "reason": "queue-full", "retry_after_s": 0.5}
        assert "op" not in error_response(None, "bad frame")


# ---------------------------------------------------------------- property
if HAVE_HYPOTHESIS:
    run_specs = st.builds(
        RunSpec,
        st.sampled_from(["mergesort", "nqueens", "reduction", "fibonacci"]),
        compiler=st.sampled_from(["gcc", "icc", "maestro"]),
        optlevel=st.sampled_from(["O0", "O1", "O2", "O3"]),
        threads=st.integers(min_value=1, max_value=32),
        throttle=st.booleans(),
        payload=st.booleans(),
        scale=st.floats(min_value=0.05, max_value=4.0,
                        allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        warm=st.booleans(),
    )

    @given(run_specs)
    def test_wire_round_trip_property(spec):
        """decode ∘ encode is the identity on specs (and their digests)."""
        wire = json.loads(json.dumps(spec_to_wire(spec)))
        clone = spec_from_wire(wire)
        assert clone == spec
        assert clone.digest == spec.digest
