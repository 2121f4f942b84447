"""Bit-identity pin over every fitted workload profile.

Each registry application is fitted under gcc and icc at O2 and O3 and
under maestro at O3.  The ``repr`` of every outcome — the profile, or
the ``CalibrationError`` when the paper has no row to fit — is hashed
into one sha256.  Any change to the analytic model, the paper data, the
structure catalog or the root solver that moves a single fitted bit
changes the digest.
"""

import hashlib

import pytest

from repro.apps import APP_REGISTRY, app_profile
from repro.errors import CalibrationError

pytestmark = pytest.mark.golden

CONFIGS = (("gcc", "O2"), ("gcc", "O3"), ("icc", "O2"), ("icc", "O3"),
           ("maestro", "O3"))

PINNED = "a64e9f7266f0921435bcf4fb9225893669992f750f87fc8d20174772483ec154"


def _outcomes() -> list[str]:
    out = []
    for app in APP_REGISTRY:
        for compiler, optlevel in CONFIGS:
            try:
                out.append(repr(app_profile(app, compiler, optlevel)))
            except CalibrationError as exc:
                out.append(f"{type(exc).__name__}({exc})")
    return out


def test_fitted_profiles_are_pinned():
    outcomes = _outcomes()
    assert len(outcomes) == len(APP_REGISTRY) * len(CONFIGS) == 95
    assert sum(o.startswith("CalibrationError(") for o in outcomes) == 13
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == PINNED
