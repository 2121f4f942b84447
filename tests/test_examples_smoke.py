"""Smoke tests: the example scripts run end-to-end.

Examples are user-facing documentation; a broken one is a broken
deliverable.  Every example runs here (each takes a few seconds) and
must print its characteristic output.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    _run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "region 'lulesh'" in out
    assert "Sedov blast wave" in out


def test_throttling_demo_runs(capsys):
    _run_example("throttling_demo.py", ["bots-health"])
    out = capsys.readouterr().out
    assert "TABLE VI" in out
    assert "Decision trace" in out


def test_energy_attribution_runs(capsys):
    _run_example("energy_attribution.py", ["bots-sort"])
    out = capsys.readouterr().out
    assert "Joules" in out
    assert "static draw" in out


def test_timeline_trace_runs(capsys):
    _run_example("timeline_trace.py", ["bots-health"])
    out = capsys.readouterr().out
    assert "Node power over the run" in out
    assert "time_s,node_power_w" in out


#: Example -> a line fragment only its successful run prints.
MARKERS = {
    "cluster_power_budget.py": "peak coordinated cluster power",
    "custom_app.py": "Monte-Carlo pi",
    "energy_sweep.py": "minimum energy at",
    "power_measurement.py": "rapl_wraps",
}


@pytest.mark.parametrize("name", sorted(MARKERS))
def test_example_runs(capsys, name):
    _run_example(name)
    assert MARKERS[name] in capsys.readouterr().out


def test_example_files_all_present():
    expected = {
        "quickstart.py", "energy_sweep.py", "throttling_demo.py",
        "custom_app.py", "power_measurement.py", "timeline_trace.py",
        "energy_attribution.py", "cluster_power_budget.py",
    }
    assert {p.name for p in EXAMPLES.glob("*.py")} == expected
