"""CLI surface and full-stack integration."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import run_measurement


# -------------------------------------------------------------------- CLI
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "lulesh" in out
    assert "bots-strassen" in out


def test_cli_run(capsys):
    assert main(["run", "bots-sort", "--threads", "8"]) == 0
    out = capsys.readouterr().out
    assert "region" in out
    assert "tasks:" in out


def test_cli_run_with_throttle(capsys):
    assert main(["run", "lulesh", "--compiler", "maestro", "--optlevel", "O3",
                 "--throttle"]) == 0
    out = capsys.readouterr().out
    assert "throttle on/off" in out


def test_cli_coldstart(capsys):
    assert main(["coldstart"]) == 0
    assert "Cold-start" in capsys.readouterr().out


def test_cli_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["run", "not-an-app"])


@pytest.mark.parametrize("argv", [
    ["faultsweep", "--apps", "nosuch", "--quick", "--no-cache", "--quiet"],
    ["sensitivity", "nosuch", "--no-cache", "--quiet"],
    ["metersweep", "--periods", "0.1,abc", "--quiet"],
    ["coschedsweep", "--levels", "x", "--quiet"],
    ["throttle", "nqueens", "--quiet"],
    ["sched", "--checkpoint-dir", "ckpt", "--quiet"],
], ids=["faultsweep-app", "sensitivity-app", "metersweep-periods",
        "coschedsweep-levels", "throttle-app", "sched-checkpoint-unsegmented"])
def test_cli_bad_input_exits_2_without_traceback(argv, capsys):
    """Bad input is a usage or ``ReproError`` exit 2, never a traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"repro-paper {argv[0]}: error:" in err


@pytest.mark.parametrize("argv", [
    ["sched", "--budget", "nan", "--quiet"],
    ["schedsweep", "--budgets", "nan", "--quick", "--no-cache", "--quiet"],
], ids=["sched-budget", "schedsweep-budgets"])
def test_cli_nan_budget_exits_2_with_one_line(argv, capsys):
    """A NaN budget is rejected by the spec, before any run or retry."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"repro-paper {argv[0]}: error: budget must be")


@pytest.mark.parametrize("argv", [
    # A one-deep queue under fast arrivals: the run both places and sheds.
    ["sched", "--execution", "analytic", "--jobs", "8", "--queue-depth",
     "1", "--rate", "5", "--quiet"],
    ["schedsweep", "--quick", "--no-cache", "--quiet"],
], ids=["sched", "schedsweep"])
def test_cli_observability_flags(argv, tmp_path, capsys):
    """``--events/--metrics/--trace`` write a JSONL event log, a metrics
    snapshot and a loadable Chrome trace; an analytic ``sched`` run's
    snapshot counts what its result reports."""
    import json

    from repro.obs import MetricsSnapshot

    events, metrics, trace = (tmp_path / name for name in
                              ("events.jsonl", "metrics.json", "trace.json"))
    assert main(argv + ["--events", str(events), "--metrics", str(metrics),
                        "--trace", str(trace)]) == 0
    lines = events.read_text().splitlines()
    assert lines
    for line in lines:
        assert "event" in json.loads(line)
    snapshot = json.loads(metrics.read_text())
    assert MetricsSnapshot.from_json_obj(snapshot).to_json_obj() == snapshot
    chrome = json.loads(trace.read_text())
    assert isinstance(chrome["traceEvents"], list)
    for ev in chrome["traceEvents"]:
        assert {"ph", "name", "pid"} <= set(ev)
    err = capsys.readouterr().err
    assert f"metrics snapshot written to {metrics}" in err
    assert f"written to {trace}" in err
    if argv[0] == "sched":
        finished, = (json.loads(line) for line in lines
                     if json.loads(line)["event"] == "SchedFinished")
        assert finished["completed"] > 0 and finished["rejected"] > 0
        series = {inst["name"]: inst["series"]
                  for inst in snapshot["instruments"]}
        assert series["sched_jobs_dispatched_total"] == [
            {"labels": ["fcfs"], "value": float(finished["completed"])}]
        assert series["sched_jobs_shed_total"] == [
            {"labels": [], "value": float(finished["rejected"])}]
        assert [ev for ev in chrome["traceEvents"] if ev["ph"] == "X"]


def test_cli_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("list", "run", "table1", "table2", "table3", "figure",
                "throttle", "coldstart", "reproduce", "recalibrate"):
        assert cmd in text


# ------------------------------------------------------------- integration
def test_full_stack_energy_consistency():
    """RCR-measured energy == RAPL ground truth == power integral."""
    result = run_measurement("bots-health", "gcc", "O2", threads=16)
    node_truth = result.run.energy_j
    rcr_measured = result.energy_j
    assert rcr_measured == pytest.approx(node_truth, rel=1e-3)


def test_full_stack_determinism():
    a = run_measurement("bots-sort", "gcc", "O2", threads=16, seed=1)
    b = run_measurement("bots-sort", "gcc", "O2", threads=16, seed=1)
    assert a.time_s == b.time_s
    assert a.energy_j == b.energy_j
    assert a.run.steals == b.run.steals


def test_rapl_wrap_handled_in_long_run():
    """A long, hot run crosses the 32-bit RAPL boundary (~65.7 kJ per
    socket); the measurement stack must still report correct totals."""
    result = run_measurement("fibonacci", "gcc", "O2", threads=16)
    # 141.6 s at ~97.5 W total: ~6.9 kJ/socket — no wrap.  Use a scaled
    # reduction run long enough to wrap: 75.6 s x 135 W x scale 14 would
    # be slow to simulate, so instead check the daemon's wrap counters on
    # a synthetic basis via the measured/ground-truth agreement above and
    # assert the counter width maths here.
    from repro.units import RAPL_COUNTER_MODULUS, RAPL_ENERGY_UNIT_J

    wrap_joules = RAPL_COUNTER_MODULUS * RAPL_ENERGY_UNIT_J
    assert result.run.energy_j < 2 * wrap_joules
    assert result.energy_j == pytest.approx(result.run.energy_j, rel=1e-3)


def test_scaled_long_run_crosses_rapl_wrap():
    """Scale a workload so per-socket energy exceeds one RAPL wrap and
    verify the wrap-aware reader still matches ground truth."""
    result = run_measurement(
        "mergesort", "gcc", "O2", threads=16, scale=120.0,
    )
    per_socket = [result.run.energy_j_sockets[s] for s in range(2)]
    from repro.units import RAPL_COUNTER_MODULUS, RAPL_ENERGY_UNIT_J

    wrap_joules = RAPL_COUNTER_MODULUS * RAPL_ENERGY_UNIT_J
    assert max(per_socket) > wrap_joules  # at least one wrap occurred
    assert result.energy_j == pytest.approx(result.run.energy_j, rel=1e-3)
