"""The predictor's EDP is its own watts × time², bit for bit.

``predict_edp`` reads its entry once instead of going through
``predict_time_s`` and ``predict_watts``; the ``predicted`` placement
policy orders the queue by it, so any float-order drift would reorder
jobs.  These tests pin exact equality with the composed form for every
entry of the bundled model and for a roofline-fallback app.
"""

from __future__ import annotations

import pytest

from repro.cosched.predictor import default_model

pytestmark = pytest.mark.cosched

PRESSURES = (0.0, 0.5, 1.0)
SCALES = (0.375, 0.5, 0.6180339887498949)

#: A registry app the bundled profiles do not cover.
UNPROFILED_APP = "lulesh"


def composed_edp(model, app, threads, scale, pressure):
    t = model.predict_time_s(app, threads, scale, pressure)
    return model.predict_watts(app, threads) * t * t


@pytest.mark.parametrize("pressure", PRESSURES)
def test_edp_equals_watts_times_time_squared_for_every_entry(pressure):
    model = default_model()
    assert model.entries
    for entry in model.entries:
        for scale in SCALES:
            assert model.predict_edp(
                entry.app, entry.threads, scale, pressure
            ) == composed_edp(model, entry.app, entry.threads, scale,
                              pressure), (entry.app, entry.threads, scale)


@pytest.mark.parametrize("pressure", PRESSURES)
def test_edp_of_an_unprofiled_app_uses_the_roofline_fallback(pressure):
    model = default_model()
    assert model.entry(UNPROFILED_APP, 8) is None
    edp = model.predict_edp(UNPROFILED_APP, 8, 0.5, pressure)
    assert edp > 0.0
    assert edp == composed_edp(model, UNPROFILED_APP, 8, 0.5, pressure)


def test_negative_pressure_counts_as_none():
    model = default_model()
    entry = model.entries[0]
    assert model.predict_edp(entry.app, entry.threads, 0.5, -1.0) == (
        model.predict_edp(entry.app, entry.threads, 0.5, 0.0)
    )
