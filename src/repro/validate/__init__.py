"""Physics-invariant sanitizer and differential validation.

The measurement substrate this reproduction rests on — RAPL deltas, wrap
handling, per-socket power integration — is exactly the part of the
stack the measurement-reliability literature shows going subtly wrong.
This package checks it continuously:

* :class:`~repro.validate.checker.InvariantChecker` — attachable runtime
  sanitizer mirroring the energy/thermal integrators in bit-identical
  shadow ledgers and re-deriving cached rates, power and registers from
  scratch on a fixed cadence;
* :mod:`~repro.validate.records` — post-run audits of the harness
  ledgers (exact reconstruction of derived quantities, measured-vs-truth
  energy within RAPL quantisation, decision-trace accounting);
* :func:`~repro.validate.runner.validate_spec` /
  :func:`~repro.validate.runner.run_validation_sweep` — the harness
  integration behind ``repro validate``;
* :func:`~repro.validate.runner.differential_sweep` — checked-vs-unchecked
  and serial-vs-parallel replays asserting bit-identical records;
* :mod:`~repro.validate.corpus` — the scenario corpus, including every
  named fault profile (whose measurement-path violations must classify
  as *expected*, see :mod:`repro.faults.expectations`);
* :mod:`~repro.validate.cluster` — cluster-budget invariants over the
  power coordinator's rounds (division exactness, per-node floor,
  clamp-tolerance enforcement) and the scheduled-run corpus behind the
  ``repro validate`` cluster section;
* :mod:`~repro.validate.cosched` — co-scheduling invariants over the
  profiling sweep's artifacts (co-run slowdowns >= 1, solo identity
  exact, predictor costs within the roofline envelope) behind the
  ``repro validate`` cosched section;
* :mod:`~repro.validate.obs` — observability-book invariants over
  :mod:`repro.obs` metrics snapshots (histogram count identities,
  counter signs, self-measurement coherence, merge-with-empty
  identity), run by the obs smoke and tripwire tests;
* :mod:`~repro.validate.scale` — million-job-scale invariants pinning
  every streaming substitution to its exact counterpart: quantile-sketch
  tails within the guaranteed error bound, streamed-vs-retained fold
  equality, checkpoint/resume bit-identity, and the analytic mode's
  roofline-envelope oracle.
"""

from repro.validate.checker import InvariantChecker
from repro.validate.cluster import (
    ClusterValidationResult,
    check_budget_division,
    check_budget_enforcement,
    check_budget_floor,
    check_cluster_budgets,
    cluster_corpus,
    run_cluster_validation,
)
from repro.validate.corpus import METER_SPECS, corpus, differential_specs
from repro.validate.cosched import (
    CoschedValidationResult,
    check_cosched,
    check_cosched_model,
    check_cosched_store,
    run_cosched_validation,
)
from repro.validate.metering import check_overhead_monotone
from repro.validate.obs import check_snapshot as check_obs_snapshot
from repro.validate.records import check_record
from repro.validate.scale import (
    ScaleValidationResult,
    check_resume_identity,
    check_sketch_consistency,
    check_stream_equivalence,
    run_scale_validation,
    scale_corpus,
)
from repro.validate.runner import (
    DifferentialResult,
    ValidationSweepResult,
    differential_sweep,
    run_validation_sweep,
    validate_spec,
)
from repro.validate.violations import ValidationReport, Violation

__all__ = [
    "ClusterValidationResult",
    "CoschedValidationResult",
    "DifferentialResult",
    "InvariantChecker",
    "ScaleValidationResult",
    "ValidationReport",
    "ValidationSweepResult",
    "Violation",
    "check_budget_division",
    "check_budget_enforcement",
    "check_budget_floor",
    "check_cluster_budgets",
    "check_cosched",
    "check_cosched_model",
    "check_cosched_store",
    "check_obs_snapshot",
    "check_overhead_monotone",
    "check_record",
    "check_resume_identity",
    "check_sketch_consistency",
    "check_stream_equivalence",
    "METER_SPECS",
    "cluster_corpus",
    "corpus",
    "differential_specs",
    "differential_sweep",
    "run_cluster_validation",
    "run_cosched_validation",
    "run_scale_validation",
    "run_validation_sweep",
    "scale_corpus",
    "validate_spec",
]
