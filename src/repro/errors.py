"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures without masking programming errors
(``TypeError`` etc. are never wrapped).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised when the discrete-event engine reaches an inconsistent state."""


class SchedulerError(ReproError):
    """Raised for invalid scheduling operations (e.g. double-completing a task)."""


class DeadlockError(SimulationError):
    """Raised when the simulation can make no further progress.

    Typical cause: every worker is blocked on a full/empty bit that no
    runnable task will ever write.
    """


class MSRPermissionError(ReproError):
    """Raised when an MSR is accessed without supervisor permission.

    The paper (footnote 3) notes that both DVFS and duty-cycle modification
    require kernel permission level; our MSR file models the same gate.
    """


class MSRAddressError(ReproError):
    """Raised when reading or writing an unmapped MSR address."""


class MSRReadError(ReproError):
    """Raised when an MSR read transiently fails.

    The analog of ``read()`` on ``/dev/cpu/*/msr`` returning ``EIO``: the
    register exists and the caller is privileged, but this particular
    access did not complete.  Transient by definition — clients are
    expected to retry, and the hardened measurement path does (see
    :class:`repro.measure.energy.EnergyReader`).  Only the fault-injection
    layer raises this; a fault-free simulation never does.
    """


class ConfigError(ReproError):
    """Raised for invalid machine or experiment configuration."""


class FaultConfigError(ConfigError):
    """Raised for an invalid fault-injection configuration or spec string."""


class CalibrationError(ReproError):
    """Raised when a workload profile cannot be fitted to its targets."""


class MeasurementError(ReproError):
    """Raised for invalid measurement-region usage (e.g. end before start)."""


class UnknownApplicationError(ReproError):
    """Raised when an application name is not present in the registry."""


class UnknownCompilerError(ReproError):
    """Raised when a compiler/optimization profile is not available."""


class HarnessError(ReproError):
    """Raised when the experiment harness cannot complete a sweep.

    Carries the first underlying failure as ``__cause__``; individual
    worker failures below the retry budget are reported as telemetry
    events instead of exceptions.
    """


class SweepCancelled(HarnessError):
    """Raised when a sweep is abandoned through its cancellation hook.

    Runs that completed before the cancel signal are kept by the caller's
    telemetry; the exception reports how many specs were never run.
    """


class WorkerTimeout(HarnessError):
    """Raised when a subprocess-executed spec exceeds its deadline.

    The worker process is killed, so the partial run cannot corrupt the
    result cache; the caller decides whether to retry or dead-letter.
    """


class WorkerCrashed(HarnessError):
    """Raised when a worker process dies without returning a result.

    The analog of an OOM-killed or SIGKILLed worker child: the spec is not
    at fault until it has crashed its worker repeatedly (poison jobs are
    quarantined by redelivery counting, not by this exception).
    """


class ObsError(ReproError):
    """Raised for observability misuse.

    Covers instrument registration conflicts (same name, different kind
    or label set), malformed metric/label names, and merges of
    incompatible snapshots.  Recording into a valid instrument never
    raises — observability must not be able to fail the observed code.
    """


class ServiceError(ReproError):
    """Raised for experiment-service failures (server side or client side)."""


class ProtocolError(ServiceError):
    """Raised for malformed, oversized or semantically invalid frames."""


class AdmissionError(ServiceError):
    """Raised when a submission is shed by admission control.

    ``retry_after_s`` tells the client when the rejection is expected to
    clear (queue drain or quota refill) — explicit backpressure instead
    of unbounded buffering.
    """

    def __init__(self, message: str, *, reason: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s
