"""``Segment`` as an immutable value: validation, immutability, pickling."""

import math
import pickle

import pytest

from repro.hw.core import Segment


def test_segment_fields_and_defaults():
    seg = Segment(1.5)
    assert seg == Segment(solo_seconds=1.5, mem_fraction=0.0, power_scale=1.0,
                          contention_exponent=None, coherence_penalty=0.0, tag="")
    assert (seg.solo_seconds, seg.mem_fraction, seg.power_scale) == (1.5, 0.0, 1.0)
    assert seg.contention_exponent is None
    assert Segment(1.0, 0.2, 1.1, 2.0, 0.3, "t") == Segment(
        1.0, mem_fraction=0.2, power_scale=1.1, contention_exponent=2.0,
        coherence_penalty=0.3, tag="t")


@pytest.mark.parametrize("field", [
    "solo_seconds", "mem_fraction", "power_scale", "contention_exponent",
    "coherence_penalty", "tag",
])
def test_segment_attributes_cannot_be_assigned(field):
    seg = Segment(1.0, 0.5, tag="x")
    with pytest.raises(AttributeError):
        setattr(seg, field, 0.25)
    with pytest.raises(AttributeError):
        seg.extra = 1  # no per-instance dict either
    assert seg == Segment(1.0, 0.5, tag="x")


@pytest.mark.parametrize("kwargs, message", [
    ({"solo_seconds": -1.0}, "solo_seconds must be >= 0, got -1.0"),
    ({"mem_fraction": 1.5}, r"mem_fraction must be in \[0,1\], got 1.5"),
    ({"mem_fraction": -0.1}, r"mem_fraction must be in \[0,1\], got -0.1"),
    ({"power_scale": 0.0}, "power_scale must be positive, got 0.0"),
    ({"contention_exponent": 0.5}, "contention_exponent must be >= 1, got 0.5"),
    ({"coherence_penalty": -0.1}, "coherence_penalty must be >= 0, got -0.1"),
])
def test_segment_rejects_each_invalid_field(kwargs, message):
    args = {"solo_seconds": 1.0, **kwargs}
    with pytest.raises(ValueError, match=message):
        Segment(**args)


@pytest.mark.parametrize("field, value", [
    ("solo_seconds", math.nan),
    ("solo_seconds", math.inf),
    ("mem_fraction", math.nan),
    ("power_scale", math.nan),
    ("power_scale", math.inf),
    ("contention_exponent", math.nan),
    ("contention_exponent", math.inf),
    ("coherence_penalty", math.nan),
    ("coherence_penalty", math.inf),
])
def test_segment_rejects_nan_and_inf(field, value):
    """A NaN passes every ``<`` guard; the range checks must still refuse it.

    A NaN duration beside another busy core would be clamped to 0 at the
    next sync and "complete" with NaN work; alone it schedules no
    completion at all.  A NaN power scale surfaces only later, as a
    non-finite RAPL increment.
    """
    args = {"solo_seconds": 1.0, field: value}
    bound = "finite" if value == math.inf else "(>=|positive|in)"
    with pytest.raises(ValueError, match=f"^{field} must be {bound}"):
        Segment(**args)


def test_segment_pickle_round_trip():
    """Segments cross the worker-pool pipe: a round trip keeps the value."""
    seg = Segment(0.75, 0.3, power_scale=1.4, contention_exponent=1.8,
                  coherence_penalty=0.05, tag="bots:p1")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(seg, protocol=protocol))
        assert back == seg
        assert type(back) is Segment
        assert back.tag == "bots:p1"
