"""Deterministic contention predictor fitted over co-run profiles.

The SMTcheck recipe (PAPERS.md): regress each application's measured
co-run slowdown against the scalar contention *pressure* its antagonist
exerted, then use the fitted response at placement time.  Here the fit
is a least-squares line through the origin of (pressure, slowdown - 1)
points — one slope per application — computed in canonical sort order
with no randomness, wall clocks or iteration-order dependence, so the
same :class:`~repro.cosched.profile.ProfileStore` always yields the
bit-identical model (a property the hypothesis suite pins).

The slope is clamped at zero, which makes the predicted slowdown
monotone non-decreasing in pressure *by construction* — the second
property the test suite pins.

Profiles are measured at one thread count; per-thread entries for the
scheduler's thread choices are extrapolated through the calibrated
roofline closed form (:func:`repro.sched.roofline.roofline_point`), so
the predictor prices any (app, threads, scale, pressure) combination
with a handful of float ops.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any, Optional

from repro.apps.injectors import injector_pressure
from repro.cosched.profile import ProfileStore
from repro.errors import ConfigError

#: Bump when the fitted-model layout changes incompatibly.
PREDICTOR_SCHEMA = "cosched-predictor-1"

#: Sensitivity slope assumed for applications absent from the store
#: (mild: a pressure-1.0 co-runner costs 5%).
DEFAULT_SENS_SLOPE = 0.05

#: Intensity assumed for unprofiled applications.
DEFAULT_INTENSITY = 0.25


@dataclass(frozen=True)
class PredictorEntry:
    """Fitted coefficients for one (app, threads) configuration."""

    app: str
    threads: int
    #: Solo service time at work scale 1.0.
    unit_time_s: float
    #: Solo average power draw.
    watts: float
    #: d(slowdown)/d(pressure), >= 0 by construction.
    sens_slope: float
    #: Mean excess slowdown this app inflicts on co-runners.
    intensity: float

    def to_payload(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "threads": self.threads,
            "unit_time_s": self.unit_time_s,
            "watts": self.watts,
            "sens_slope": self.sens_slope,
            "intensity": self.intensity,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "PredictorEntry":
        return cls(
            app=payload["app"],
            threads=int(payload["threads"]),
            unit_time_s=float(payload["unit_time_s"]),
            watts=float(payload["watts"]),
            sens_slope=float(payload["sens_slope"]),
            intensity=float(payload["intensity"]),
        )


@dataclass(frozen=True)
class PredictorModel:
    """Slowdown/power/EDP predictor over fitted per-app entries."""

    entries: tuple[PredictorEntry, ...] = ()
    #: Thread count the profiles were measured at.
    base_threads: int = 8
    schema: str = PREDICTOR_SCHEMA

    def __post_init__(self) -> None:
        if self.schema != PREDICTOR_SCHEMA:
            raise ConfigError(
                f"unsupported predictor schema {self.schema!r} "
                f"(expected {PREDICTOR_SCHEMA!r})"
            )
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(
            self,
            "_by_key",
            {(e.app, e.threads): e for e in self.entries},
        )

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, store: ProfileStore) -> "PredictorModel":
        """Deterministic least-squares fit over a profile store.

        Iteration is over canonically sorted profiles and cells, every
        reduction is an ordered sum, and the slope clamp guarantees
        monotone predictions — so the fit is invariant to the order the
        sweep produced the profiles in, and bit-stable across runs.
        """
        from repro.sched.roofline import roofline_point
        from repro.sched.workload import THREAD_CHOICES

        entries: list[PredictorEntry] = []
        base_threads = 8
        for profile in store.sorted_profiles():
            base_threads = profile.threads
            sxx = 0.0
            sxy = 0.0
            for cell in profile.sorted_cells():
                x = injector_pressure(cell.injector, cell.level)
                y = cell.slowdown - 1.0
                sxx += x * x
                sxy += x * y
            sens_slope = max(0.0, sxy / sxx) if sxx > 0 else 0.0
            unit_time = profile.solo_time_s / profile.scale
            base = roofline_point(profile.app, profile.threads)
            thread_choices = sorted(set(THREAD_CHOICES) | {profile.threads})
            for threads in thread_choices:
                point = roofline_point(profile.app, threads)
                time_ratio = (
                    point.time_s / base.time_s if base.time_s > 0 else 1.0
                )
                watts_ratio = (
                    point.avg_watts / base.avg_watts
                    if base.avg_watts > 0 else 1.0
                )
                entries.append(PredictorEntry(
                    app=profile.app,
                    threads=threads,
                    unit_time_s=unit_time * time_ratio,
                    watts=profile.solo_watts * watts_ratio,
                    sens_slope=sens_slope,
                    intensity=profile.intensity,
                ))
        return cls(entries=tuple(entries), base_threads=base_threads)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def entry(self, app: str, threads: int) -> Optional[PredictorEntry]:
        return self._by_key.get((app, threads))

    def resolve(self, app: str, threads: int) -> PredictorEntry:
        """Entry for (app, threads), falling back to the roofline model.

        Unprofiled apps get closed-form solo costs and the default
        (mild) contention coefficients, so the predictor degrades
        gracefully instead of refusing to place.
        """
        found = self._by_key.get((app, threads))
        if found is not None:
            return found
        from repro.sched.roofline import roofline_point

        point = roofline_point(app, threads)
        return PredictorEntry(
            app=app,
            threads=threads,
            unit_time_s=point.time_s,
            watts=point.avg_watts,
            sens_slope=DEFAULT_SENS_SLOPE,
            intensity=DEFAULT_INTENSITY,
        )

    def predict_slowdown(self, app: str, threads: int,
                         pressure: float = 0.0) -> float:
        """Predicted slowdown under ``pressure`` (1.0 = solo)."""
        entry = self.resolve(app, threads)
        return 1.0 + entry.sens_slope * max(0.0, pressure)

    def predict_time_s(self, app: str, threads: int, scale: float,
                       pressure: float = 0.0) -> float:
        entry = self.resolve(app, threads)
        return (entry.unit_time_s * scale
                * self.predict_slowdown(app, threads, pressure))

    def predict_watts(self, app: str, threads: int) -> float:
        return self.resolve(app, threads).watts

    def predict_edp(self, app: str, threads: int, scale: float,
                    pressure: float = 0.0) -> float:
        """Energy-delay product of one job under ``pressure``.

        Bit for bit ``predict_watts(...) * t * t`` with
        ``t = predict_time_s(...)``, from one entry lookup.
        """
        entry = self.resolve(app, threads)
        t = (entry.unit_time_s * scale
             * (1.0 + entry.sens_slope * max(0.0, pressure)))
        return entry.watts * t * t

    def sensitivity_of(self, app: str, threads: int) -> float:
        return self.resolve(app, threads).sens_slope

    # ------------------------------------------------------------------
    # identity / persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "base_threads": self.base_threads,
            "entries": [
                e.to_payload()
                for e in sorted(self.entries, key=lambda e: (e.app, e.threads))
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "PredictorModel":
        return cls(
            entries=tuple(
                PredictorEntry.from_payload(e) for e in payload["entries"]
            ),
            base_threads=int(payload["base_threads"]),
            schema=payload["schema"],
        )

    def canonical(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@lru_cache(maxsize=1)
def default_store() -> ProfileStore:
    """The bundled profile store (committed sweep artifact)."""
    data = resources.files("repro.cosched").joinpath(
        "data/default_profiles.json"
    ).read_text()
    return ProfileStore.from_payload(json.loads(data))


@lru_cache(maxsize=1)
def default_model() -> PredictorModel:
    """The predictor fitted from the bundled profiles (deterministic)."""
    return PredictorModel.fit(default_store())
