"""The in-tree Brent solver against ``scipy.optimize.brentq``.

SciPy is the oracle here and only here (it is in the ``test`` extra, not
a run-time dependency).  Equality is exact: the same root bits, or the
same exception type.  A last test checks that the package itself never
loads SciPy.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from repro.apps import APP_REGISTRY
from repro.calibration import fit, get_profile
from repro.calibration.fit import (
    ShapeParams,
    brentq,
    fit_coherence_for_speedup,
    fit_mu_scale_for_speedup,
    fit_mu_scale_for_time_ratio,
    fit_serial_frac_for_speedup,
)
from repro.errors import CalibrationError

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
xtols = st.sampled_from([2e-12, 1e-9, 1e-6, 1e-3])


def _outcome(solver, f, a, b, **kw):
    """Root bits, or the exception type the solver raised."""
    try:
        root = solver(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    assert type(root) is float
    return root.hex()


def _same(f, a, b, **kw):
    ours = _outcome(brentq, f, a, b, **kw)
    assert ours == _outcome(scipy_brentq, f, a, b, **kw)
    return ours


def _cubic(c3, c2q, c1, root, sign):
    """A monotone cubic: c2 stays within the no-turning-point bound."""
    c2 = c2q * math.sqrt(3.0 * c1 * c3)

    def f(x):
        t = x - root
        return sign * (((c3 * t + c2) * t + c1) * t)
    return f


@settings(max_examples=300)
@given(st.floats(1e-3, 1e3), st.floats(-1.0, 1.0), st.floats(1e-3, 1e3),
       finite, st.floats(1e-6, 1e3), st.floats(-0.5, 1.5),
       st.sampled_from([1.0, -1.0]), st.booleans(), xtols)
@example(1.0, 0.0, 1.0, 0.0, 4.0, 0.5, 1.0, False, 2e-12)
def test_monotone_cubics(c3, c2q, c1, lo, width, u, sign, flip, xtol):
    # u outside [0, 1] puts the root outside the bracket: a sign error.
    f = _cubic(c3, c2q, c1, lo + u * width, sign)
    a, b = (lo + width, lo) if flip else (lo, lo + width)
    _same(f, a, b, xtol=xtol)


@given(finite, finite, st.floats(0.1, 10.0), st.booleans())
def test_exact_zero_at_an_end(a, b, k, at_b):
    end = b if at_b else a
    f = lambda x: k * (x - end)  # noqa: E731
    assert _same(f, a, b) == end.hex()


@given(finite, st.floats(1e-3, 1e3), st.floats(0.0, 10.0))
def test_same_sign_bracket(a, width, shift):
    f = lambda x: (x - a - width / 2) ** 2 + shift + 1e-3  # noqa: E731
    assert _same(f, a, a + width) is ValueError


def test_nan_at_an_end():
    assert _same(lambda x: math.nan if x > 0.5 else x, 0.0, 1.0) is ValueError
    assert _same(lambda x: math.nan if x < 0.5 else x, 0.0, 1.0) is ValueError


@given(finite, st.floats(1e-3, 1e3), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 0.5))
def test_nan_value(a, width, r, start, span):
    # NaN on a sub-interval: raised once an iterate lands in it.
    root = a + r * width
    lo = a + start * width
    hi = lo + span * width
    f = lambda x: math.nan if lo <= x <= hi else x - root  # noqa: E731
    _same(f, a, a + width)


@given(st.integers(0, 4), finite, st.floats(1.0, 1e3), st.floats(0.01, 0.99))
def test_maxiter_too_small(maxiter, a, width, r):
    f = _cubic(1.0, 0.5, 1e-3, a + r * width, 1.0)
    outcome = _same(f, a, a + width, maxiter=maxiter, xtol=1e-15)
    assert outcome is RuntimeError or maxiter > 0


# ------------------------------------------------ the four fit objectives
phase_lists = st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.01, 0.9)),
                       min_size=1, max_size=3)


@st.composite
def shapes(draw):
    raw = draw(phase_lists)
    total = sum(w for w, _ in raw)
    return ShapeParams(
        serial_frac=draw(st.floats(0.0, 0.3)),
        mu_serial=draw(st.floats(0.0, 0.5)),
        phases=tuple((w / total, mu) for w, mu in raw),
        alpha=draw(st.floats(1.0, 3.0)),
        max_parallelism=draw(st.sampled_from([None, 2, 8])),
        coherence=draw(st.sampled_from([0.0, 0.005])),
    )


FITS = st.sampled_from([
    (fit_coherence_for_speedup, st.floats(0.1, 16.0)),
    (fit_mu_scale_for_speedup, st.floats(0.5, 16.0)),
    (fit_mu_scale_for_time_ratio, st.floats(0.7, 1.4)),
    (fit_serial_frac_for_speedup, st.floats(0.5, 16.0)),
])


def _fit_outcome(fitted):
    try:
        return repr(fitted())
    except CalibrationError as exc:
        return f"CalibrationError({exc})"


@settings(max_examples=120)
@given(shapes(), FITS, st.data())
def test_fit_objectives(shape, fitter_and_targets, data):
    fitter, targets = fitter_and_targets
    target = data.draw(targets)
    fitted = lambda: fitter(shape, target)  # noqa: E731
    ours = _fit_outcome(fitted)
    with mock.patch.object(fit, "brentq", scipy_brentq):
        assert _fit_outcome(fitted) == ours


def test_every_paper_profile_matches_scipy():
    uncached = get_profile.__wrapped__  # bypass the profile cache

    def profiles():
        return [
            _fit_outcome(lambda: uncached(app, compiler, optlevel))
            for app, info in APP_REGISTRY.items() if info.profile_factory is None
            for compiler, optlevel in (("gcc", "O2"), ("gcc", "O3"),
                                       ("icc", "O2"), ("icc", "O3"),
                                       ("maestro", "O3"))
        ]
    ours = profiles()
    with mock.patch.object(fit, "brentq", scipy_brentq):
        assert profiles() == ours


# --------------------------------------------------------- import guard
_NO_SCIPY = """
import sys
import repro.cli, repro.service.server, repro.sched
from repro.calibration import TABLE1_GCC, TABLE1_ICC, THROTTLE_TABLES, get_profile
for app in TABLE1_GCC:
    get_profile(app, "gcc", "O2")
for app in TABLE1_ICC:
    get_profile(app, "icc", "O2")
for app in THROTTLE_TABLES:
    get_profile(app, "maestro", "O3")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cold_start_and_fitting_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(Path(__file__).resolve().parents[2] / "src"),
                    env.get("PYTHONPATH")] if p
    )
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
