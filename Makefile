# Convenience targets for the reproduction repository.

PYTHON ?= python

COV_FAIL_UNDER ?= 80

.PHONY: install test test-cosched test-faults test-golden test-harness test-metering test-obs test-validate test-sched test-service test-store validate-smoke sched-smoke serve-smoke metersweep-smoke cosched-smoke obs-smoke coverage sweep-smoke smoke-faults bench profile ab reproduce recalibrate examples clean

install:
	pip install -e . --no-build-isolation

# Everything CI's tier-1 job runs: the suite, the benchmark's own helper
# tests, and every end-to-end smoke.
test: sweep-smoke validate-smoke sched-smoke metersweep-smoke smoke-faults serve-smoke cosched-smoke obs-smoke
	$(PYTHON) -m pytest tests/
	$(PYTHON) -m pytest perfbench -q

# Co-scheduling suite: contention injectors, co-run profiling sweep,
# the interference predictor and the profile-driven placement policy.
test-cosched:
	$(PYTHON) -m pytest tests/ -m cosched

# Robustness suite: fault injection + degraded-mode behaviour only.
test-faults:
	$(PYTHON) -m pytest tests/ -m faults

# Bit-identity guards in one command: the golden traces (canonical runs
# vs tests/sim/golden_digests.json), the cluster, fitted-profile and
# analytic-sched pins, and the node's fused recompute against its
# memo-free references.  To intentionally re-pin the golden traces after
# a behavior change: python -m repro.perf.golden --update
test-golden:
	$(PYTHON) -m pytest tests/ -m golden

# Harness suite: run specs, executor, result cache, telemetry.
test-harness:
	$(PYTHON) -m pytest tests/ -m harness

# Metering suite: meter backends, counter-model estimator properties,
# observer-overhead accounting tripwires and the metersweep experiment.
test-metering:
	$(PYTHON) -m pytest tests/ -m metering

# Observability suite: metrics registry, Prometheus exposition
# conformance, trace spans, service metrics frame, physics inertness.
test-obs:
	$(PYTHON) -m pytest tests/ -m obs

# Validation suite: invariant-checker tripwires, ledger audits,
# expected-violation taxonomy, differential replay.
test-validate:
	$(PYTHON) -m pytest tests/ -m validate

# Scheduler suite: workload traces, admission control, placement
# policies, cluster determinism, cluster-budget SLOs.
test-sched:
	$(PYTHON) -m pytest tests/ -m sched

# Experiment-service suite: wire protocol, admission queue and quotas,
# journal recovery, worker crash/timeout handling, end-to-end TCP tests
# and the SIGKILL crash-recovery acceptance test.
test-service:
	$(PYTHON) -m pytest tests/ -m service

# Sharded-store suite: content-addressed layout, sqlite ledger index,
# compaction, multi-process contention.
test-store:
	$(PYTHON) -m pytest tests/ -m store

# End-to-end sanitizer smoke: the quick validation corpus plus the
# differential replay, via the CLI exactly as a user would run it.
validate-smoke:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.cli validate --quick --differential --quiet

# End-to-end scheduler smoke: a trimmed policy x profile x budget grid
# through the harness, via the CLI exactly as a user would run it.
sched-smoke:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.cli schedsweep --quick --quiet

# End-to-end metering smoke: the quick metersweep grid (both backends,
# two cadences, fault-free) through the harness with the post-sweep
# invariant audit, via the CLI exactly as a user would run it.
metersweep-smoke:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.cli metersweep --quick --quiet

# End-to-end service smoke: boot a real service on an ephemeral port,
# submit duplicate jobs, SIGKILL the in-flight worker and prove the
# redelivered job still completes with exactly one execution per digest.
serve-smoke:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.service.smoke

# End-to-end co-scheduling smoke: a trimmed app x injector x level
# grid through the harness (solo baselines + co-run cells), reduced to
# sensitivity profiles, via the CLI exactly as a user would run it.
cosched-smoke:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.cli coschedsweep --quick --quiet

# End-to-end observability smoke: a real service answering the metrics
# frame (queue depth, frame p99, cache hit), the rendered obs report, a
# traced sched campaign exporting loadable Chrome-trace JSON, and the
# snapshot-invariant audit.
obs-smoke:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.obs.smoke

# Line-coverage over the full suite with a ratcheted floor.  Requires
# pytest-cov (pip install -e .[cov]); fails fast with a hint otherwise.
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov not installed; run: pip install -e .[cov]"; exit 1; }
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing \
		--cov-fail-under=$(COV_FAIL_UNDER)

# End-to-end harness smoke: a tiny 4-spec parallel sweep into a throwaway
# cache, run twice — the first pass must execute everything, the second
# must be served entirely from the cache with bit-identical records —
# then a 400-put burst into a throwaway sharded store, which must count
# every digest exactly once, leave no ledger byte unfolded after a warm
# query, and keep every count through compaction.
sweep-smoke:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.harness.smoke

# End-to-end degraded-mode smoke: the fault-sweep experiment with a fixed
# seed (one app, three profiles), exercising retry, interpolation, the
# daemon watchdog and the controller fail-safe on every run.
smoke-faults:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.cli faultsweep --quick --seed 0

# The benchmark declared in BENCHMARK.json: every workload end to end,
# untraced (perfbench/run.py defaults to --trace 0; see perfbench/README.md).
bench:
	$(PYTHON) perfbench/run.py

# One traced run of one workload (paper-tables unless WORKLOAD is set,
# e.g. make profile WORKLOAD=sched-campaign): the same-work counts and
# the per-layer cProfile self time (self_s.*) that hot-path changes are
# compared on.
WORKLOAD ?= paper-tables

profile:
	$(PYTHON) perfbench/run.py --workload $(WORKLOAD) --seed 1 --trace 1

# Alternating untraced runs of a base revision and this checkout, one pair
# per seed from SEED on: per-pair end-to-end metrics, then their medians,
# the base's quartiles and the change's wins (see tools/ab.py), e.g.
# make ab WORKLOAD=sched-campaign BASE=main PAIRS=10 SEED=8001
BASE ?= HEAD
PAIRS ?= 10
SEED ?= 1

ab:
	$(PYTHON) tools/ab.py --workload $(WORKLOAD) --base $(BASE) --pairs $(PAIRS) --seed $(SEED)

# Regenerate EXPERIMENTS.md (runs the full evaluation, ~5-10 minutes).
reproduce:
	$(PYTHON) -m repro.cli reproduce --no-cache -o EXPERIMENTS.md

# Refresh the empirical residual corrections after model changes.
recalibrate:
	$(PYTHON) -m repro.cli recalibrate

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
