"""The profiling sweep: spec fan-out, reduction, and fitted outputs."""

from __future__ import annotations

import pytest

from repro.cosched import PredictorModel
from repro.experiments.coschedsweep import reduce_records, sweep_specs

from tests.cosched.conftest import QUICK_APPS, QUICK_INJECTORS, QUICK_LEVELS

pytestmark = pytest.mark.cosched


def test_sweep_specs_cover_solos_and_cells():
    specs = sweep_specs(QUICK_APPS, QUICK_INJECTORS, QUICK_LEVELS)
    # 2 app solos + 1 injector solo + 2 co-run cells.
    assert len(specs) == 5
    solos = [s for s in specs if s.solo]
    coruns = [s for s in specs if not s.solo]
    assert {s.app for s in solos} == set(QUICK_APPS) | set(QUICK_INJECTORS)
    assert {(s.app, s.injector) for s in coruns} == {
        (app, inj) for app in QUICK_APPS for inj in QUICK_INJECTORS
    }
    # Each spec is a distinct cacheable cell.
    assert len({s.digest for s in specs}) == len(specs)


def test_reduction_produces_one_profile_per_probed_app(quick_sweep):
    store = quick_sweep.store
    assert store.apps == tuple(sorted(QUICK_APPS + QUICK_INJECTORS))
    for app in QUICK_APPS:
        profile = store.get(app)
        assert profile.solo_slowdown == 1.0  # baseline / itself, exactly
        assert len(profile.cells) == len(QUICK_INJECTORS) * len(QUICK_LEVELS)
    # The injector's own profile is baseline-only (no cells).
    assert quick_sweep.store.get("inject-membw").cells == ()


def test_membw_sensitivity_is_real_and_ranked(quick_sweep):
    store = quick_sweep.store
    merge = store.get("mergesort").cells[0]
    nq = store.get("nqueens").cells[0]
    # The memory-bound victim suffers more than the compute-heavy one,
    # and both genuinely slow down.
    assert merge.slowdown > nq.slowdown > 1.2
    # Both exert *some* pressure back on the injector.
    assert merge.inj_slowdown > 1.0


def test_fit_is_reproducible_from_the_store(quick_sweep):
    assert quick_sweep.model.entries
    refit = PredictorModel.fit(quick_sweep.store)
    assert refit == quick_sweep.model
    assert refit.digest == quick_sweep.model.digest


def test_reduce_records_matches_record_ratios(quick_sweep):
    # reduce_records is pure: re-reducing the kept records reproduces
    # the store bit-for-bit.
    specs = sweep_specs(QUICK_APPS, QUICK_INJECTORS, QUICK_LEVELS)
    store = reduce_records(specs, quick_sweep.records)
    assert store == quick_sweep.store
    assert store.digest == quick_sweep.store.digest


def test_format_mentions_every_app(quick_sweep):
    text = quick_sweep.format()
    for app in QUICK_APPS + QUICK_INJECTORS:
        assert app in text
    assert quick_sweep.store.digest[:16] in text
