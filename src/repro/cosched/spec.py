"""Declarative co-run specifications.

A :class:`CoschedSpec` is the co-scheduling analogue of
:class:`~repro.harness.spec.RunSpec`: the hashable, picklable
description of one co-run — a probed application sharing a simulated
node with a contention injector at a given pressure level — with a
canonical-JSON SHA-256 content digest so results cache and fan out
through the same :class:`~repro.harness.executor.BatchExecutor`
machinery.  The co-run simulation is deterministic, so a spec fully
determines its :class:`~repro.cosched.corun.CoschedRecord`.

``injector=None`` is the solo baseline; because injectors are ordinary
registry apps, an injector can also sit in the *app* slot (with
``app_level`` setting its pressure) — that is how the profiling sweep
measures each injector's solo runtime for the intensity calculation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Optional

from repro.apps.injectors import MAX_LEVEL
from repro.errors import ConfigError
from repro.harness.spec import Spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cosched.corun import CoschedRecord
    from repro.validate.violations import ValidationReport

#: Bump when the co-run spec schema (or corun semantics it maps onto)
#: changes incompatibly; folded into every digest.  Namespaced distinctly
#: from the run/sched schemas so the digest spaces can never collide.
COSCHED_SPEC_SCHEMA = "cosched-1"


@dataclass(frozen=True)
class CoschedSpec(Spec):
    """One fully-specified co-run on a shared simulated node."""

    KIND: ClassVar[str] = "cosched"

    app: str = "mergesort"
    #: Contention injector co-runner (None = solo baseline run).
    injector: Optional[str] = None
    #: Injector pressure level in (0, MAX_LEVEL].
    level: float = 1.0
    #: Pressure level when the *app slot itself* holds an injector
    #: (ignored for calibrated benchmarks).
    app_level: float = 1.0
    #: OMP_NUM_THREADS the probed app believes it has (chunking ICV).
    threads: int = 8
    #: OMP_NUM_THREADS for the injector program.
    inj_threads: int = 8
    #: Worker count of the shared node both programs contend on.
    node_threads: int = 16
    #: Work scale of the probed app.
    scale: float = 0.15
    #: Work scale of the injector — oversized by default so contention
    #: covers the app's whole run.
    inj_scale: float = 12.0
    seed: int = 0
    compiler: str = "gcc"
    optlevel: str = "O2"
    #: Display-only heading; never part of digest, equality or hash.
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        from repro.apps import APP_REGISTRY

        info = APP_REGISTRY.get(self.app)
        if info is None:
            raise ConfigError(
                f"unknown application {self.app!r}; "
                f"known: {', '.join(sorted(APP_REGISTRY))}"
            )
        if self.injector is not None:
            inj = APP_REGISTRY.get(self.injector)
            if inj is None or inj.group != "injector":
                injectors = sorted(
                    name for name, i in APP_REGISTRY.items()
                    if i.group == "injector"
                )
                raise ConfigError(
                    f"unknown injector {self.injector!r}; "
                    f"one of {', '.join(injectors)}"
                )
        for name, level in (("level", self.level),
                            ("app_level", self.app_level)):
            if not (0.0 < level <= MAX_LEVEL):
                raise ConfigError(
                    f"{name} must be in (0, {MAX_LEVEL}], got {level!r}"
                )
        for name, count in (("threads", self.threads),
                            ("inj_threads", self.inj_threads),
                            ("node_threads", self.node_threads)):
            if count < 1:
                raise ConfigError(f"{name} must be >= 1, got {count!r}")
        for name, scale in (("scale", self.scale),
                            ("inj_scale", self.inj_scale)):
            if scale <= 0:
                raise ConfigError(
                    f"{name} must be positive, got {scale!r}"
                )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def payload_dict(self) -> dict[str, Any]:
        """The digestable content: every field that affects the result."""
        return {
            "schema": COSCHED_SPEC_SCHEMA,
            "app": self.app,
            "injector": self.injector,
            "level": self.level,
            "app_level": self.app_level,
            "threads": self.threads,
            "inj_threads": self.inj_threads,
            "node_threads": self.node_threads,
            "scale": self.scale,
            "inj_scale": self.inj_scale,
            "seed": self.seed,
            "compiler": self.compiler,
            "optlevel": self.optlevel,
        }

    # ------------------------------------------------------------------
    # execution / display
    # ------------------------------------------------------------------
    @property
    def solo(self) -> bool:
        return self.injector is None

    def execute(self) -> "CoschedRecord":
        """Run this spec in-process through :func:`run_corun`."""
        from repro.cosched.corun import run_corun

        return run_corun(self)

    def validate_execute(
        self, *, interval_s: float = 0.1
    ) -> tuple["CoschedRecord", "ValidationReport"]:
        """Run under the invariant checker.

        The checker observes through read-only probes, so the returned
        record is bit-identical to an unchecked :meth:`execute`.
        """
        from repro.cosched.corun import run_corun
        from repro.validate.checker import InvariantChecker

        checker = InvariantChecker(interval_s=interval_s)
        record = run_corun(self, observer=checker)
        return record, checker.report(self, checker.violations)

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.injector is None:
            text = f"cosched {self.app} solo t{self.threads}"
        else:
            text = (
                f"cosched {self.app} vs {self.injector}@{self.level:g} "
                f"t{self.threads}"
            )
        if self.seed:
            text += f" seed={self.seed}"
        return text
