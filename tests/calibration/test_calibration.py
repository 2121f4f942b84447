"""Calibration: paper data integrity, analytic model, profile fitting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.calibration import (
    APP_NAMES,
    TABLE1_GCC,
    TABLE1_ICC,
    TABLE2_GCC,
    TABLE3_ICC,
    THROTTLE_TABLES,
    get_profile,
    get_structure,
)
from repro.calibration.fit import (
    ShapeParams,
    aggregate_rate,
    fit_mu_scale_for_speedup,
    fit_mu_scale_for_time_ratio,
    fit_power_scale,
    fit_serial_frac_for_speedup,
    fit_total_work,
    predicted_speedup,
    predicted_time,
    socket_loads,
)
from repro.calibration.paper_data import SPEEDUP16
from repro.errors import CalibrationError, UnknownApplicationError
from repro.hw.core import Segment


# -------------------------------------------------------------- paper data
def test_tables_have_consistent_apps():
    assert set(TABLE1_GCC) == set(TABLE2_GCC)
    assert set(TABLE1_ICC) == set(TABLE2_GCC)
    # Table III adds sparselu-for.
    assert set(TABLE3_ICC) - set(TABLE2_GCC) == {"bots-sparselu-for"}


def test_paper_rows_are_self_consistent():
    """Joules ~= Watts x Time in every transcribed cell (sanity on the
    transcription; the paper's own rounding gives a few % slack)."""
    for table in (TABLE2_GCC, TABLE3_ICC):
        for app, rows in table.items():
            for level, row in rows.items():
                implied = row.watts * row.time_s
                assert implied == pytest.approx(row.joules, rel=0.06), (app, level)


def test_throttle_tables_complete():
    assert set(THROTTLE_TABLES) == {"lulesh", "dijkstra", "bots-health", "bots-strassen"}
    for rows in THROTTLE_TABLES.values():
        assert set(rows) == {"dynamic16", "fixed16", "fixed12"}


def test_speedup_targets_for_every_app():
    assert set(SPEEDUP16) == set(TABLE3_ICC)


# ---------------------------------------------------------- analytic model
def test_socket_loads_scatter_pinning():
    assert socket_loads(16) == [8, 8]
    assert socket_loads(12) == [6, 6]
    assert socket_loads(4) == [2, 2]
    assert socket_loads(5) == [3, 2]
    assert socket_loads(1) == [1, 0]
    with pytest.raises(CalibrationError):
        socket_loads(17)


def test_aggregate_rate_ideal_when_uncontended():
    assert aggregate_rate(0.0, 1.5, 16) == pytest.approx(16.0)


def test_aggregate_rate_saturates_with_memory():
    rate = aggregate_rate(0.95, 1.0, 16)
    assert rate < 6.0  # heavy contention collapses throughput


def _shape(mu=0.5, f=0.01, alpha=1.5, max_par=None):
    return ShapeParams(
        serial_frac=f, mu_serial=0.3, phases=((1.0, mu),), alpha=alpha,
        max_parallelism=max_par,
    )


def test_predicted_time_monotone_in_work():
    shape = _shape()
    assert predicted_time(shape, 16, work_s=2.0) == pytest.approx(
        2 * predicted_time(shape, 16, work_s=1.0)
    )


def test_speedup_decreasing_in_memory_intensity():
    light = predicted_speedup(_shape(mu=0.1), 16)
    heavy = predicted_speedup(_shape(mu=0.9), 16)
    assert light > heavy


def test_max_parallelism_caps_speedup():
    shape = _shape(mu=0.1, f=0.0, max_par=2)
    assert predicted_speedup(shape, 16) <= 2.0 + 1e-9


def test_shape_validation():
    with pytest.raises(CalibrationError):
        ShapeParams(1.0, 0.3, ((1.0, 0.5),), 1.5)  # serial_frac = 1
    with pytest.raises(CalibrationError):
        ShapeParams(0.1, 0.3, ((0.5, 0.5),), 1.5)  # weights don't sum to 1
    with pytest.raises(CalibrationError):
        ShapeParams(0.1, 0.3, (), 1.5)  # no phases


# --------------------------------------------------------------- fitting
def test_fit_mu_hits_speedup_target():
    shape = fit_mu_scale_for_speedup(_shape(mu=0.9), 6.0)
    assert predicted_speedup(shape, 16) == pytest.approx(6.0, rel=1e-3)


def test_fit_mu_unreachable_targets_raise():
    with pytest.raises(CalibrationError):
        fit_mu_scale_for_speedup(_shape(mu=0.9), 17.0)  # above ideal
    with pytest.raises(CalibrationError):
        fit_mu_scale_for_speedup(_shape(mu=0.9, alpha=1.0), 0.5)  # below floor


def test_fit_serial_hits_speedup_target():
    shape = fit_serial_frac_for_speedup(_shape(mu=0.05, f=0.0), 12.0)
    assert predicted_speedup(shape, 16) == pytest.approx(12.0, rel=1e-3)


def test_fit_ratio_hits_t12_t16_target():
    shape = fit_mu_scale_for_time_ratio(_shape(mu=0.9, alpha=2.0), 0.97)
    t12 = predicted_time(shape, 12)
    t16 = predicted_time(shape, 16)
    assert t12 / t16 == pytest.approx(0.97, rel=1e-3)


def test_fit_total_work():
    shape = _shape()
    work = fit_total_work(shape, 10.0)
    assert predicted_time(shape, 16, work_s=work) == pytest.approx(10.0)


def test_fit_power_scale_recovers_target():
    shape = _shape()
    work = fit_total_work(shape, 10.0)
    x = fit_power_scale(shape, work, 140.0)
    assert 0.25 <= x <= 3.0


@given(st.floats(min_value=1.2, max_value=13.0))
@settings(max_examples=15, deadline=None)
def test_fit_mu_roundtrip_property(target):
    # Upper bound 13.0: the test shape's 1% serial fraction caps the
    # ideal 16-thread speedup at ~13.9 even with zero memory intensity.
    shape = fit_mu_scale_for_speedup(_shape(mu=0.9, alpha=2.0), target)
    assert predicted_speedup(shape, 16) == pytest.approx(target, rel=1e-2)


# --------------------------------------------------------------- profiles
def test_all_reported_profiles_fit():
    for app in TABLE2_GCC:
        get_profile(app, "gcc", "O2")
    for app in TABLE3_ICC:
        get_profile(app, "icc", "O2")
    for app in THROTTLE_TABLES:
        get_profile(app, "maestro", "O3")


def test_profile_work_positive_and_power_in_range():
    for app in APP_NAMES:
        compiler = "icc" if app == "bots-sparselu-for" else "gcc"
        profile = get_profile(app, compiler, "O2")
        assert profile.total_work_s > 0
        assert 0.25 <= profile.power_scale <= 3.0
        assert profile.serial_work_s + profile.parallel_work_s == pytest.approx(
            profile.total_work_s
        )
        total_phase = sum(
            profile.phase_work_s(i) for i in range(profile.num_phases)
        )
        assert total_phase == pytest.approx(profile.parallel_work_s)


def test_profile_segments_carry_character():
    profile = get_profile("bots-strassen", "gcc", "O2")
    seg = profile.work(0.5, phase=1, tag="t")
    assert seg.mem_fraction == profile.phase_mu(1)
    assert seg.power_scale == profile.power_scale
    assert seg.contention_exponent == profile.alpha
    serial = profile.serial_work(0.1)
    assert serial.mem_fraction == profile.shape.mu_serial


def test_profile_segments_equal_validated_construction():
    """``work``/``serial_work`` skip re-validating the per-phase constants;
    their segments must equal the ones the validating constructor builds."""
    profile = get_profile("bots-strassen", "maestro", "O3")
    for phase in range(profile.num_phases):
        assert profile.work(0.25, phase, tag="x") == Segment(
            0.25, profile.phase_mu(phase), profile.phase_power_scale(phase),
            profile.alpha, profile.shape.coherence, "x",
        )
        assert profile.work(0.25, phase).tag == f"bots-strassen:p{phase}"
    assert profile.serial_work(0.5) == Segment(
        0.5, profile.shape.mu_serial, profile.power_scale, profile.alpha,
        0.0, "bots-strassen:serial",
    )


@pytest.mark.parametrize("solo", [-1.0, math.nan, math.inf])
def test_profile_segments_check_each_duration(solo):
    profile = get_profile("reduction", "gcc", "O2")
    with pytest.raises(ValueError, match="^solo_seconds must be (>= 0|finite)"):
        profile.work(solo)
    with pytest.raises(ValueError, match="^solo_seconds must be (>= 0|finite)"):
        profile.serial_work(solo)


def test_profile_unknown_combinations():
    with pytest.raises(UnknownApplicationError):
        get_structure("nope")
    with pytest.raises(CalibrationError):
        get_profile("bots-sparselu-for", "gcc", "O2")  # not in Table II
    with pytest.raises(CalibrationError):
        get_profile("nqueens", "maestro", "O3")  # not a throttling app
    from repro.errors import UnknownCompilerError

    with pytest.raises(UnknownCompilerError):
        get_profile("nqueens", "clang", "O2")


def test_profile_refuses_unreported_combinations():
    """No profile exists for an (app, compiler) pair the paper never reported."""
    with pytest.raises(CalibrationError):
        get_profile("bots-sparselu-for", "gcc", "O2")  # not in Table II
    with pytest.raises(CalibrationError):
        get_profile("mergesort", "maestro", "O3")  # not a throttling app


def test_profiles_differ_between_compilers():
    """The compiler axis is real: same source, different binary behaviour
    (ICC's lulesh is 3.3x faster than GCC's at -O2, per Table I)."""
    gcc = get_profile("lulesh", "gcc", "O2")
    icc = get_profile("lulesh", "icc", "O2")
    assert (gcc.compiler, icc.compiler) == ("gcc", "icc")
    assert gcc.total_work_s > 2.5 * icc.total_work_s


def test_profiles_cached():
    a = get_profile("lulesh", "gcc", "O2")
    b = get_profile("lulesh", "gcc", "O2")
    assert a is b


def test_maestro_overrides_applied():
    maestro = get_profile("dijkstra", "maestro", "O3")
    figure = get_profile("dijkstra", "gcc", "O3")
    assert maestro.shape.serial_frac != figure.shape.serial_frac
