"""NDJSON wire protocol for the experiment service.

One frame = one JSON object on one ``\\n``-terminated line, UTF-8, at
most :data:`MAX_FRAME_BYTES` long.  Requests carry an ``op``; responses
always carry ``ok`` (and ``error`` / ``retry_after_s`` when ``ok`` is
false).  Streamed telemetry events are pushed as frames with an
``event`` key.

Spec payloads travel as ``{"kind": "run"|"sched"|"cosched",
"fields": {...}}``: ``kind`` is the spec class's ``KIND``, looked up in
:data:`SPEC_KINDS` on decode, and ``fields`` are the spec dataclass's
constructor arguments (nested ``ThrottleConfig`` / ``FaultConfig`` as
dicts; ``faults`` alternatively as the CLI's fault-spec string; a sched
spec's ``predictor`` as the :class:`~repro.cosched.predictor.
PredictorModel` payload).  :func:`spec_from_wire` ∘
:func:`spec_to_wire` is the identity on specs — a Hypothesis property
pins that.

Everything here raises :class:`~repro.errors.ProtocolError` on bad
input; the server converts that into an ``ok: false`` response rather
than dropping the connection, so one malformed frame cannot take a
well-behaved client down with it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.config import FaultConfig, MeterConfig, ThrottleConfig
from repro.cosched.predictor import PredictorModel
from repro.cosched.spec import CoschedSpec
from repro.errors import ConfigError, ProtocolError
from repro.harness.spec import RunSpec, Spec
from repro.sched.spec import SchedSpec

#: Hard bound on one frame (request line or response line), newline
#: included.  Oversized frames are shed at the framing layer, before any
#: JSON parsing buys the sender amplification.
MAX_FRAME_BYTES = 128 * 1024

#: Requests the server understands.
OPS = frozenset(
    {"submit", "status", "result", "cancel", "stream", "stats",
     "metrics", "shutdown", "ping"}
)

#: Every spec kind the wire carries, by its ``KIND`` tag.
SPEC_KINDS: dict[str, type[Spec]] = {
    cls.KIND: cls for cls in (RunSpec, SchedSpec, CoschedSpec)
}

_SPEC_FIELDS = {
    kind: frozenset(f.name for f in dataclasses.fields(cls))
    for kind, cls in SPEC_KINDS.items()
}
_THROTTLE_FIELDS = {f.name for f in dataclasses.fields(ThrottleConfig)}
_FAULT_FIELDS = {f.name for f in dataclasses.fields(FaultConfig)}
_METER_FIELDS = {f.name for f in dataclasses.fields(MeterConfig)}


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(obj: dict[str, Any]) -> bytes:
    """Render one frame as a newline-terminated UTF-8 JSON line."""
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    try:
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"frame is not JSON-serialisable: {exc}") from exc
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return data


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one received line into a frame dict (strict)."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        obj = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    except ValueError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # ~1000 nested brackets fit well inside one frame.
        raise ProtocolError("frame nests too deeply") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# spec wire encoding
# ----------------------------------------------------------------------
def spec_to_wire(spec: Spec) -> dict[str, Any]:
    """Encode a spec as its wire payload (constructor args, JSON-safe)."""
    fields = dataclasses.asdict(spec)
    if spec.KIND == "sched":
        fields["apps"] = list(fields["apps"])
        # asdict recursed into the PredictorModel dataclass; replace it
        # with the canonical payload so the wire shape matches
        # PredictorModel.from_payload (sorted entries, schema-tagged).
        if spec.predictor is not None:
            fields["predictor"] = spec.predictor.to_payload()
    return {"kind": spec.KIND, "fields": fields}


def _nested(name: str, value: Any, cls, allowed: set[str]):
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ProtocolError(
            f"spec field {name!r} must be an object or null, "
            f"got {type(value).__name__}"
        )
    unknown = set(value) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown {name} field(s): {', '.join(sorted(unknown))}"
        )
    try:
        return cls(**value)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid {name}: {exc}") from exc


def _coerce_run(fields: dict[str, Any]) -> None:
    """Decode a run spec's nested configs in place."""
    if "app" not in fields:
        raise ProtocolError("run spec requires an 'app' field")
    # RunSpec itself validates the app lazily at execution time; the
    # protocol rejects it eagerly so a typo is a shed, not a worker
    # retry loop.
    from repro.apps import APP_REGISTRY

    if not isinstance(fields["app"], str) or fields["app"] not in APP_REGISTRY:
        raise ProtocolError(
            f"invalid run spec: unknown application {fields['app']!r}"
        )
    fields["throttle_config"] = _nested(
        "throttle_config", fields.get("throttle_config"),
        ThrottleConfig, _THROTTLE_FIELDS,
    )
    faults = fields.get("faults")
    if isinstance(faults, str):
        from repro.faults import parse_fault_spec

        try:
            fields["faults"] = parse_fault_spec(faults)
        except ConfigError as exc:
            raise ProtocolError(f"invalid fault spec: {exc}") from exc
    else:
        fields["faults"] = _nested("faults", faults, FaultConfig, _FAULT_FIELDS)
    fields["meter"] = _nested(
        "meter", fields.get("meter"), MeterConfig, _METER_FIELDS)


def _coerce_sched(fields: dict[str, Any]) -> None:
    """Decode a sched spec's app list and predictor model in place."""
    apps = fields.get("apps")
    if apps is not None:
        if not isinstance(apps, (list, tuple)) or not all(
            isinstance(a, str) for a in apps
        ):
            raise ProtocolError("sched 'apps' must be a list of strings")
        fields["apps"] = tuple(apps)
    predictor = fields.get("predictor")
    if predictor is not None:
        if not isinstance(predictor, dict):
            raise ProtocolError(
                "sched 'predictor' must be a predictor-model payload "
                "object or null"
            )
        try:
            fields["predictor"] = PredictorModel.from_payload(predictor)
        except (ConfigError, KeyError, TypeError, ValueError,
                OverflowError) as exc:  # int(Infinity) overflows
            raise ProtocolError(f"invalid sched predictor: {exc}") from exc


#: Per-kind decoding of fields the constructor cannot take as JSON.
_COERCE = {"run": _coerce_run, "sched": _coerce_sched}


def spec_from_wire(wire: dict[str, Any]) -> Spec:
    """Decode and validate a wire payload back into a spec.

    Unknown top-level or nested field names are rejected (a typo'd field
    silently ignored would change the digest the client *thinks* it
    submitted), and every constructor-level validation error surfaces as
    :class:`ProtocolError`.
    """
    if not isinstance(wire, dict):
        raise ProtocolError(
            f"spec payload must be an object, got {type(wire).__name__}"
        )
    kind = wire.get("kind", "run")
    fields = wire.get("fields")
    if not isinstance(fields, dict):
        raise ProtocolError("spec payload must carry a 'fields' object")
    # Checked before the table lookup: an unhashable kind (a list, an
    # object) would raise TypeError there instead of ProtocolError.
    if not isinstance(kind, str):
        raise ProtocolError(
            f"spec 'kind' must be a string, got {type(kind).__name__}"
        )
    cls = SPEC_KINDS.get(kind)
    if cls is None:
        raise ProtocolError(
            f"unknown spec kind {kind!r} "
            f"(one of: {', '.join(sorted(SPEC_KINDS))})"
        )
    unknown = set(fields) - _SPEC_FIELDS[kind]
    if unknown:
        raise ProtocolError(
            f"unknown {kind}-spec field(s): {', '.join(sorted(unknown))}"
        )
    fields = dict(fields)
    coerce = _COERCE.get(kind)
    if coerce is not None:
        coerce(fields)
    try:
        return cls(**fields)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid {kind} spec: {exc}") from exc


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
def _require_str(frame: dict[str, Any], key: str) -> str:
    value = frame.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{frame.get('op')!r} requires a string {key!r}")
    return value


def validate_request(frame: dict[str, Any]) -> dict[str, Any]:
    """Shape-check one request frame; returns it unchanged if valid."""
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"request frame must be an object, got {type(frame).__name__}")
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request frame requires a string 'op'")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (one of: {', '.join(sorted(OPS))})"
        )
    if op == "submit":
        if "spec" not in frame:
            raise ProtocolError("'submit' requires a 'spec' payload")
        client = frame.get("client", "")
        if not isinstance(client, str):
            raise ProtocolError("'client' must be a string")
    elif op in ("status", "result", "cancel"):
        _require_str(frame, "job")
        timeout = frame.get("timeout_s")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise ProtocolError("'timeout_s' must be a number")
    elif op == "shutdown":
        drain = frame.get("drain", True)
        if not isinstance(drain, bool):
            raise ProtocolError("'drain' must be a boolean")
    return frame


def error_response(op: Any, error: str, *, reason: str = "",
                   retry_after_s: float = 0.0) -> dict[str, Any]:
    """The uniform ``ok: false`` response frame."""
    resp: dict[str, Any] = {"ok": False, "error": error}
    if isinstance(op, str):
        resp["op"] = op
    if reason:
        resp["reason"] = reason
    if retry_after_s > 0:
        resp["retry_after_s"] = retry_after_s
    return resp
