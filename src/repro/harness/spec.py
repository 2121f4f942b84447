"""Declarative run specifications.

A :class:`RunSpec` is the hashable, picklable description of one
measured execution — everything :func:`repro.experiments.runner.run_measurement`
needs, and nothing it produces.  Because the simulation is deterministic,
a spec fully determines its result, which is what makes the content
digest a valid cache key and process-parallel execution safe.

The digest is computed over a canonical JSON rendering of the fields
(nested ``ThrottleConfig`` / ``FaultConfig`` included), so it is stable
across processes, Python versions and field declaration order.  The
display ``label`` is explicitly excluded from digest, equality and hash:
two sweeps that run the same configuration under different headings
share one cache entry.

:class:`Spec` is the protocol every spec kind (:class:`RunSpec`,
:class:`~repro.sched.spec.SchedSpec`, :class:`~repro.cosched.spec.CoschedSpec`)
implements: a ``KIND`` tag for the wire and journal, the shared digest
and label machinery, and the two ways to run — :meth:`Spec.execute` and,
under the invariant checker, :meth:`Spec.validate_execute`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Optional

from repro.config import FaultConfig, MeterConfig, ThrottleConfig
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.record import MeasurementRecord
    from repro.validate.violations import ValidationReport

#: Bump when the spec schema (or run_measurement semantics it maps onto)
#: changes incompatibly; it is folded into every digest.
SPEC_SCHEMA = 1


class Spec:
    """Base of every spec kind: identity, display label and execution.

    Subclasses are frozen dataclasses with a display-only ``label`` field;
    they set :attr:`KIND` and implement :meth:`payload_dict`,
    :meth:`execute` and :meth:`validate_execute`.
    """

    #: Wire and journal tag of the kind (``run``, ``sched``, ``cosched``).
    KIND: ClassVar[str]

    def payload_dict(self) -> dict[str, Any]:
        """The digestable content: every field that affects the result."""
        raise NotImplementedError

    def canonical(self) -> str:
        """Canonical JSON rendering (sorted keys, no whitespace)."""
        return json.dumps(self.payload_dict(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def digest(self) -> str:
        """Stable SHA-256 content digest (hex)."""
        memo = self.__dict__.get("_digest")
        if memo is None:
            memo = hashlib.sha256(self.canonical().encode()).hexdigest()
            object.__setattr__(self, "_digest", memo)
        return memo

    def with_label(self, label: str):
        return dataclasses.replace(self, label=label)

    def execute(self) -> Any:
        """Run in-process; returns a picklable record with ``time_s`` /
        ``energy_j`` / ``watts`` / ``wall_s``."""
        raise NotImplementedError

    def validate_execute(
        self, *, interval_s: float = 0.1
    ) -> "tuple[Any, ValidationReport]":
        """Run and audit: ``(record, report)``, with the record
        bit-identical to :meth:`execute`'s."""
        raise NotImplementedError


@dataclass(frozen=True)
class RunSpec(Spec):
    """One fully-specified measured execution."""

    KIND: ClassVar[str] = "run"

    app: str
    compiler: str = "gcc"
    optlevel: str = "O2"
    threads: int = 16
    throttle: bool = False
    throttle_config: Optional[ThrottleConfig] = None
    payload: bool = False
    scale: float = 1.0
    seed: int = 0
    faults: Optional[FaultConfig] = None
    warm: bool = True
    #: Metering backend / cadence / observer-overhead selection.  ``None``
    #: (the default daemon) is digested as an *absent key*, so every spec
    #: that predates the metering layer keeps its original digest and
    #: cache entry.
    meter: Optional[MeterConfig] = None
    #: Display-only heading ("16 Threads - Dynamic"); never part of the
    #: digest, equality or hash.
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads!r}")
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale!r}")
        if self.meter is not None:
            self.meter.validate()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def payload_dict(self) -> dict[str, Any]:
        """The digestable content: every field that affects the result.

        ``meter`` is included only when set: omitting the key for ``None``
        keeps every pre-metering digest (and the caches keyed on them)
        byte-stable.
        """
        payload: dict[str, Any] = {
            "schema": SPEC_SCHEMA,
            "app": self.app,
            "compiler": self.compiler,
            "optlevel": self.optlevel,
            "threads": self.threads,
            "throttle": self.throttle,
            "throttle_config": (
                dataclasses.asdict(self.throttle_config)
                if self.throttle_config is not None else None
            ),
            "payload": self.payload,
            "scale": self.scale,
            "seed": self.seed,
            "faults": (
                dataclasses.asdict(self.faults)
                if self.faults is not None else None
            ),
            "warm": self.warm,
        }
        if self.meter is not None:
            payload["meter"] = dataclasses.asdict(self.meter)
        return payload

    # ------------------------------------------------------------------
    # execution / display
    # ------------------------------------------------------------------
    def to_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`run_measurement`."""
        return {
            "app": self.app,
            "compiler": self.compiler,
            "optlevel": self.optlevel,
            "threads": self.threads,
            "throttle": self.throttle,
            "throttle_config": self.throttle_config,
            "payload": self.payload,
            "scale": self.scale,
            "seed": self.seed,
            "faults": self.faults,
            "warm": self.warm,
            "meter": self.meter,
        }

    def execute(self) -> "MeasurementRecord":
        """Run through :func:`run_measurement` and project onto a record."""
        from repro.experiments.runner import run_measurement
        from repro.harness.record import MeasurementRecord

        t0 = time.perf_counter()
        result = run_measurement(**self.to_kwargs())
        return MeasurementRecord.from_result(
            self, result, wall_s=time.perf_counter() - t0
        )

    def validate_execute(
        self, *, interval_s: float = 0.1
    ) -> "tuple[MeasurementRecord, ValidationReport]":
        """Run under the invariant checker and audit the record's books.

        Violations are classified against the spec's fault and meter
        configs, so only the ones those knobs cannot explain count as
        unexpected.
        """
        from repro.experiments.runner import run_measurement
        from repro.faults.expectations import classify_violations
        from repro.harness.record import MeasurementRecord
        from repro.validate.checker import InvariantChecker
        from repro.validate.records import check_record

        checker = InvariantChecker(interval_s=interval_s)
        t0 = time.perf_counter()
        result = run_measurement(**self.to_kwargs(), observer=checker)
        record = MeasurementRecord.from_result(
            self, result, wall_s=time.perf_counter() - t0
        )
        violations = [*checker.violations, *check_record(record)]
        return record, checker.report(
            self,
            classify_violations(violations, self.faults, meter=self.meter),
        )

    def describe(self) -> str:
        """``label`` if set, else a compact auto-description."""
        if self.label:
            return self.label
        text = f"{self.app} {self.compiler}/{self.optlevel} t{self.threads}"
        if self.throttle:
            text += " +throttle"
        if self.faults is not None and not self.faults.inert:
            text += " +faults"
        if self.meter is not None and not self.meter.inert:
            text += f" +meter={self.meter.backend}@{self.meter.period_s:g}s"
        if self.seed:
            text += f" seed={self.seed}"
        return text
