"""Interference-aware co-scheduling: injectors, profiles, prediction.

The paper throttles concurrency *within* a node because co-running
threads contend for shared power and memory resources.  This package
closes the same loop at cluster scale, following the SMTcheck shape
(see PAPERS.md): measure each workload's contention *sensitivity*
(slowdown suffered under a controlled antagonist) and *intensity*
(slowdown inflicted on the antagonist), fit a deterministic predictor
over those profiles, and let the scheduler consult it at placement
time (the ``predicted`` policy in :mod:`repro.sched.policy`).

Three layers:

* :class:`~repro.cosched.spec.CoschedSpec` /
  :func:`~repro.cosched.corun.run_corun` — one digest-keyed co-run of a
  registry app against a contention injector
  (:mod:`repro.apps.injectors`) on a shared simulated node, cacheable
  and parallel through the standard harness;
* :class:`~repro.cosched.profile.ProfileStore` — the persisted per-app
  sensitivity/intensity vectors a profiling sweep
  (:mod:`repro.experiments.coschedsweep`) produces;
* :class:`~repro.cosched.predictor.PredictorModel` — the deterministic
  least-squares fit over a store, predicting co-location slowdown, power
  and EDP for any (app, threads, scale, pressure) combination.
"""

from repro.cosched.corun import CoschedRecord, run_corun
from repro.cosched.predictor import (
    PredictorEntry,
    PredictorModel,
    default_model,
    default_store,
)
from repro.cosched.profile import AppProfile, CoschedCell, ProfileStore
from repro.cosched.spec import COSCHED_SPEC_SCHEMA, CoschedSpec

__all__ = [
    "AppProfile",
    "COSCHED_SPEC_SCHEMA",
    "CoschedCell",
    "CoschedRecord",
    "CoschedSpec",
    "PredictorEntry",
    "PredictorModel",
    "ProfileStore",
    "default_model",
    "default_store",
    "run_corun",
]
