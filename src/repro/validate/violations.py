"""Structured invariant-violation records.

Everything here is picklable scalars: violations are produced inside
worker processes by :func:`repro.validate.runner.validate_spec` and must
cross the process boundary and the telemetry bus unchanged.

Categories
----------
Violations carry a ``category`` that drives the expected-violation
taxonomy (see :mod:`repro.faults.expectations`):

* ``model`` — the simulator's own physics books don't balance (energy
  conservation, thermal step, power coherence, rate coherence, counter
  monotonicity).  Fault injection perturbs only the *measurement path*,
  never ground truth, so a model violation is never expected.
* ``engine`` — event-queue accounting (time monotonicity, pending >= 0).
  Never expected.
* ``ledger`` — harness bookkeeping that must reconstruct exactly
  (RunSummary average power, region wattage, decision-trace ordering).
  Never expected.
* ``cluster-budget`` — the power coordinator's budget division and
  enforcement (sum ≤ global exactly, per-node floor, measured power
  within clamp tolerance; see :mod:`repro.validate.cluster`).  Never
  expected.
* ``measurement-energy`` — the measured (RAPL-path) energy disagrees
  with ground truth beyond quantisation.  Expected under fault profiles
  that corrupt or delay energy reads.
* ``measurement-temp`` — reported temperature disagrees with the model.
  Expected under thermal-noise faults.
* ``measurement-quality`` — non-OK sample qualities on a run whose fault
  config cannot explain them.
* ``measurement-counters`` — APERF/MPERF readouts disagree with the
  model's counters.  Expected under counter-noise faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.spec import Spec

#: Violation categories that fault injection can legitimately explain.
MEASUREMENT_CATEGORIES = frozenset(
    {
        "measurement-energy",
        "measurement-temp",
        "measurement-quality",
        "measurement-counters",
    }
)

#: Categories that must hold on every run, faults or not.  The
#: ``cluster-budget`` category covers the coordinator's budget division
#: and enforcement (see :mod:`repro.validate.cluster`): fault injection
#: perturbs measurements, never the coordinator's arithmetic, so a
#: broken budget split is always a real failure.
STRICT_CATEGORIES = frozenset({"model", "engine", "ledger", "cluster-budget"})


@dataclass(frozen=True)
class Violation:
    """One invariant failure, reduced to picklable scalars."""

    #: Machine-readable invariant name, e.g. ``energy-conservation``.
    invariant: str
    #: One of the module-level categories (see module docstring).
    category: str
    #: Human-readable account with expected/actual values.
    message: str
    #: Simulation time at detection (-1.0 for post-run record checks).
    time_s: float = -1.0
    #: Socket index the violation is scoped to, if any.
    socket: Optional[int] = None
    #: Core index the violation is scoped to, if any.
    core: Optional[int] = None
    #: Set by classification: True when the run's fault config explains
    #: the violation, making it expected rather than a failure.
    expected: bool = False

    def classify(self, expected: bool) -> "Violation":
        return replace(self, expected=expected)

    def __str__(self) -> str:
        scope = ""
        if self.socket is not None:
            scope += f" socket={self.socket}"
        if self.core is not None:
            scope += f" core={self.core}"
        when = f" t={self.time_s:.6f}s" if self.time_s >= 0 else ""
        flag = " [expected]" if self.expected else ""
        return f"{self.invariant} ({self.category}){scope}{when}: {self.message}{flag}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one run: violations plus checker telemetry."""

    spec: "Spec"
    violations: tuple[Violation, ...] = ()
    #: Per-invariant count of *checks evaluated* (not failures) — proves
    #: the battery actually ran, so an empty violation list is evidence
    #: rather than silence.
    checks: dict[str, int] = field(default_factory=dict)
    #: Number of invariant-battery passes executed during the run.
    batteries: int = 0
    #: Number of node sync intervals the shadow ledgers integrated.
    syncs: int = 0
    #: Number of engine events observed.
    events: int = 0

    @property
    def unexpected(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if not v.expected)

    @property
    def expected_violations(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.expected)

    @property
    def ok(self) -> bool:
        """True when no violation is unexpected."""
        return not self.unexpected

    def summary_line(self) -> str:
        # Reports wrap any spec kind (run, sched, cosched); fall back
        # from label to the app field to the spec's own description.
        label = (
            self.spec.label
            or getattr(self.spec, "app", None)
            or self.spec.describe()
        )
        state = "ok" if self.ok else "FAIL"
        return (
            f"{label}: {state} — {self.batteries} batteries, "
            f"{sum(self.checks.values())} checks, "
            f"{len(self.unexpected)} unexpected / "
            f"{len(self.expected_violations)} expected violations"
        )
