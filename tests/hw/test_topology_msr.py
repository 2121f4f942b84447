"""Topology addressing and the MSR register file."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, MSRAddressError, MSRPermissionError
from repro.hw.msr import (
    IA32_CLOCK_MODULATION,
    MSRFile,
    decode_clock_modulation,
    encode_clock_modulation,
)
from repro.hw.topology import CoreId, Topology


# ------------------------------------------------------------- topology
def test_paper_topology_dimensions():
    topo = Topology(2, 8)
    assert topo.total_cores == 16
    assert topo.socket_of(0) == 0
    assert topo.socket_of(7) == 0
    assert topo.socket_of(8) == 1
    assert topo.socket_of(15) == 1


def test_core_id_roundtrip():
    topo = Topology(2, 8)
    for flat in topo.all_cores():
        cid = topo.core_id(flat)
        assert cid.flat(8) == flat


def test_cores_in_socket():
    topo = Topology(2, 8)
    assert list(topo.cores_in_socket(0)) == list(range(8))
    assert list(topo.cores_in_socket(1)) == list(range(8, 16))
    with pytest.raises(ConfigError):
        topo.cores_in_socket(2)


def test_topology_bounds_checked():
    topo = Topology(2, 8)
    with pytest.raises(ConfigError):
        topo.core_id(16)
    with pytest.raises(ConfigError):
        Topology(0, 8)


# ------------------------------------------------------ clock modulation
def test_clock_modulation_disable_encoding():
    assert encode_clock_modulation(1.0) == 0
    assert decode_clock_modulation(0) == 1.0


def test_clock_modulation_min_duty():
    raw = encode_clock_modulation(1.0 / 32.0)
    assert decode_clock_modulation(raw) == pytest.approx(1.0 / 32.0)


def test_clock_modulation_reserved_level_is_min_step():
    # Level 0 with the enable bit set is architecturally reserved;
    # hardware treats it as the minimum step.
    assert decode_clock_modulation(1 << 5) == pytest.approx(1.0 / 32.0)


def test_clock_modulation_rejects_nonpositive():
    with pytest.raises(ValueError):
        encode_clock_modulation(0.0)
    with pytest.raises(ValueError):
        decode_clock_modulation(-1)


def test_clock_modulation_rejects_nan():
    """NaN gets the documented error, not ``round``'s conversion error."""
    with pytest.raises(ValueError, match="duty must be positive, got nan"):
        encode_clock_modulation(math.nan)


@given(st.floats(min_value=1.0 / 32.0, max_value=1.0))
def test_clock_modulation_roundtrip_within_one_step(duty):
    decoded = decode_clock_modulation(encode_clock_modulation(duty))
    assert abs(decoded - duty) <= 1.0 / 32.0 + 1e-12


# ------------------------------------------------------------------ MSRs
def test_msr_requires_privilege():
    msr = MSRFile()
    msr.map_core(0, IA32_CLOCK_MODULATION, reader=lambda: 7)
    with pytest.raises(MSRPermissionError):
        msr.read_core(0, IA32_CLOCK_MODULATION)
    assert msr.read_core(0, IA32_CLOCK_MODULATION, privileged=True) == 7


@pytest.mark.parametrize(
    "access, what",
    [
        (lambda msr: msr.read_core(3, IA32_CLOCK_MODULATION), "rdmsr core=3 addr=0x19a"),
        (lambda msr: msr.write_core(3, IA32_CLOCK_MODULATION, 1), "wrmsr core=3 addr=0x19a"),
        (lambda msr: msr.read_package(1, 0x611), "rdmsr pkg=1 addr=0x611"),
        (lambda msr: msr.write_package(1, 0x610, 1), "wrmsr pkg=1 addr=0x610"),
    ],
)
def test_msr_refusal_names_the_access(access, what):
    """Every unprivileged access is refused before any hook runs."""
    msr = MSRFile()
    ran = []
    msr.map_core(3, IA32_CLOCK_MODULATION, reader=lambda: ran.append("r") or 0,
                 writer=lambda v: ran.append("w"))
    msr.map_package(1, 0x611, reader=lambda: ran.append("r") or 0)
    msr.map_package(1, 0x610, writer=lambda v: ran.append("w"))
    with pytest.raises(MSRPermissionError, match=f"^{what} requires supervisor"):
        access(msr)
    assert ran == []


def test_msr_unmapped_address_raises():
    msr = MSRFile()
    with pytest.raises(MSRAddressError):
        msr.read_core(0, 0xDEAD, privileged=True)
    with pytest.raises(MSRAddressError):
        msr.read_package(0, 0xDEAD, privileged=True)


def test_msr_read_only_register_rejects_write():
    msr = MSRFile()
    msr.map_package(0, 0x611, reader=lambda: 1)
    with pytest.raises(MSRAddressError):
        msr.write_package(0, 0x611, 5, privileged=True)


def test_msr_write_hook_invoked():
    msr = MSRFile()
    seen = []
    msr.map_core(3, IA32_CLOCK_MODULATION, writer=seen.append)
    msr.write_core(3, IA32_CLOCK_MODULATION, 0x2A, privileged=True)
    assert seen == [0x2A]


def test_msr_per_unit_isolation():
    msr = MSRFile()
    msr.map_package(0, 0x611, reader=lambda: 100)
    msr.map_package(1, 0x611, reader=lambda: 200)
    assert msr.read_package(0, 0x611, privileged=True) == 100
    assert msr.read_package(1, 0x611, privileged=True) == 200
