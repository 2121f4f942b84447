"""Call census: the ``src/repro`` functions that no entry point calls.

    python3 tools/census.py            (or: make census)

Runs every ``repro-paper`` subcommand (with ``--quick`` and ``--workers 1``
where it has them, plus a few flag variants), the three smoke modules and
the eight examples, each in a fresh interpreter under a call recorder.  It
then lists every function defined under ``src/repro`` that none of those
runs entered, and exits 1 if one of them is missing from
``tools/census_allow.txt``, if an entry there is malformed or stale, or if
a run failed.

The runs work on a throwaway copy of ``src/`` (``recalibrate`` rewrites a
module in place) in one temporary directory.  A census that passes removes
it; one that fails keeps it, with the calls recorded so far and the log of
the last run.  A generated ``sitecustomize.py`` leads the runs'
``PYTHONPATH``, so every interpreter they start installs the recorder
before ``repro`` is imported.  The recorder is a ``sys.setprofile`` hook,
set for every later thread through ``threading.setprofile``, that keeps the
code object of each call.  A process writes the code it entered when its
interpreter exits.  A forked child (a harness ``SpecWorker``, any
fork-started ``multiprocessing`` process) writes from an ``os._exit``
wrapper, since that is how such a child ends.  A process killed by a signal
writes nothing.  Nothing under ``src/repro`` knows of the census.

``tools/census_allow.txt`` holds one entry per line, ``name: reason``.  The
name is a module, a class or a function in dotted form (a nested function
as ``outer.inner``), and the entry covers everything defined under it.  An
entry is refused when it gives no reason, names nothing under ``src/repro``,
or covers only functions the census saw called.
"""

from __future__ import annotations

import ast
import atexit
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from typing import Mapping

ROOT = Path(__file__).resolve().parents[1]
ALLOW = ROOT / "tools" / "census_allow.txt"

#: Where a recorded interpreter writes its ``*.calls`` file.
OUT_ENV = "CENSUS_OUT"

#: Longest any one run may take (``reproduce --quick`` is the slowest).
RUN_TIMEOUT_S = 1800.0

SITECUSTOMIZE = f"""\
import importlib.util, os
_spec = importlib.util.spec_from_file_location("_census", {str(Path(__file__).resolve())!r})
_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_census)
_census.install(os.environ[{OUT_ENV!r}])
"""

CLI = [
    ["list"],
    ["run", "dijkstra"],
    ["run", "dijkstra", "--compiler", "maestro", "--optlevel", "O3",
     "--throttle", "--faults", "default,stall_at_s=none"],
    *(["run", app, "--payload"] for app in (
        "bots-alignment-for", "bots-fib", "bots-health", "bots-nqueens",
        "bots-sort", "bots-sparselu-single", "bots-strassen", "dijkstra",
        "fibonacci", "lulesh", "mergesort", "nqueens", "reduction")),
    ["faultsweep", "--quick", "--workers", "1"],
    ["metersweep", "--quick", "--workers", "1"],
    ["sched"],
    ["sched", "--execution", "analytic", "--policy", "waterfill", "--jobs",
     "400", "--segment-jobs", "100", "--checkpoint-dir", "checkpoints",
     "--no-retain", "--metrics", "sched-metrics.json", "--trace",
     "sched-trace.json", "--events", "sched-events.jsonl", "--quiet"],
    ["schedsweep", "--quick", "--workers", "1"],
    ["schedsweep", "--policies", "fcfs,edp", "--profiles", "poisson",
     "--budgets", "300", "--jobs", "6", "--workers", "1"],
    ["coschedsweep", "--quick", "--workers", "1", "-o", "cosched.json"],
    ["table1", "--workers", "1", "--metrics", "metrics.json", "--trace",
     "trace.json", "--events", "events.jsonl"],
    ["table2", "--workers", "1"],
    ["table3", "--workers", "1"],
    *(["figure", fig, "--workers", "1"] for fig in ("fig1", "fig2", "fig3", "fig4")),
    ["throttle", "--workers", "1"],
    ["sensitivity", "--workers", "1"],
    ["coldstart"],
    ["reproduce", "--quick", "--workers", "1", "-o", "report.md"],
    *(["export", what, "--workers", "1", "-o", f"export-{what}"]
      for what in ("table1", "table2", "table4", "fig1")),
    ["validate", "--quick", "--differential", "--workers", "1"],
    ["recalibrate"],
]

SMOKES = ["repro.harness.smoke", "repro.obs.smoke", "repro.service.smoke"]

#: Runs against a live ``serve`` process, its port appended.  The second
#: submission runs on the warm worker the first one left idle.
SERVICE = [
    ["submit", "nqueens", "--threads", "2", "--scale", "0.05"],
    ["submit", "nqueens", "--threads", "2", "--scale", "0.05", "--seed", "1"],
    ["submit", "nqueens", "--threads", "2", "--scale", "0.05", "--no-wait"],
    ["obs", "report"],
    ["obs", "report", "--prometheus"],
    ["obs", "report", "--json"],
]

#: Last, on the cache every run above filled.
CACHE = [["cache", action] for action in ("info", "compact", "reindex", "clear")]


# ------------------------------------------------------------- recording
_entered: set = set()


def _record(frame, event: str, _arg) -> None:
    if event == "call":
        _entered.add(frame.f_code)


def install(out_dir: str) -> None:
    """Record every function this process, its threads and its forks enter."""
    real_exit = os._exit

    def flush() -> None:
        lines = {f"{code.co_filename}\t{code.co_firstlineno}\n"
                 for code in list(_entered)}
        fd, _ = tempfile.mkstemp(suffix=".calls", dir=out_dir)
        with os.fdopen(fd, "w") as handle:
            handle.write(f"# pid {os.getpid()}: {' '.join(sys.argv)}\n")
            handle.writelines(sorted(lines))

    def exit_after_flush(status: int) -> None:
        try:
            flush()
        finally:
            real_exit(status)

    os._exit = exit_after_flush
    atexit.register(flush)
    threading.setprofile(_record)
    sys.setprofile(_record)


def prepare(work: Path, src: Path = ROOT / "src") -> dict[str, str]:
    """Copy ``src`` into ``work`` and return the environment of a recorded run."""
    shutil.copytree(src, work / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (work / "hook").mkdir()
    (work / "hook" / "sitecustomize.py").write_text(SITECUSTOMIZE)
    (work / "calls").mkdir()
    (work / "run").mkdir()
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(work / "hook"), str(work / "src")]),
        OUT_ENV: str(work / "calls"),
        "REPRO_CACHE_DIR": str(work / "cache"),
    })
    return env


def called(work: Path) -> set[tuple[str, int]]:
    """``(path relative to the copied src, first line)`` of every code entered."""
    src = str(work / "src") + os.sep
    seen = set()
    for path in (work / "calls").glob("*.calls"):
        for line in path.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            if filename.startswith(src):
                seen.add((Path(filename[len(src):]).as_posix(), int(lineno)))
    return seen


def run(argv: list[str], work: Path, env: Mapping[str, str]) -> None:
    """Run ``python argv`` recorded, in ``work/run``; raise if it fails."""
    log = work / "run.log"
    start = time.monotonic()
    with open(log, "w") as out:
        code = subprocess.run([sys.executable, *argv], cwd=work / "run", env=env,
                              stdout=out, stderr=subprocess.STDOUT,
                              timeout=RUN_TIMEOUT_S).returncode
    print(f"{time.monotonic() - start:7.1f} s  {' '.join(argv)}", flush=True)
    if code != 0:
        tail = log.read_text().splitlines()[-20:]
        raise RuntimeError(f"exit {code}: {' '.join(argv)}\n" + "\n".join(tail))


def run_service(work: Path, env: Mapping[str, str]) -> None:
    """``serve`` in the background, the :data:`SERVICE` runs against it."""
    log = work / "serve.log"
    cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
           "--workers", "1", "--metrics-port", "0",
           "--journal", str(work / "journal.jsonl")]
    with open(log, "w") as out:
        proc = subprocess.Popen(cmd, cwd=work / "run", env=env, stdout=out,
                                stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 60.0
        while "metrics exposition" not in log.read_text():
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"serve did not start:\n{log.read_text()}")
            time.sleep(0.1)
        text = log.read_text()
        port = text.split("service listening on ", 1)[1].split()[0].rsplit(":", 1)[1]
        url = text.split("metrics exposition on ", 1)[1].split()[0]
        with urllib.request.urlopen(url, timeout=30) as response:
            response.read()
        for argv in SERVICE:
            run(["-m", "repro.cli", *argv, "--port", port], work, env)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"serve exited {proc.returncode}:\n{log.read_text()}")


def run_all(work: Path, env: Mapping[str, str]) -> None:
    for argv in CLI:
        run(["-m", "repro.cli", *argv], work, env)
    for module in SMOKES:
        run(["-m", module], work, env)
    for example in sorted((ROOT / "examples").glob("*.py")):
        run([str(example)], work, env)
    run_service(work, env)
    for argv in CACHE:
        run(["-m", "repro.cli", *argv], work, env)


# ------------------------------------------------------------ the verdict
def defined_functions(src: Path, package: str = "repro") -> dict[tuple[str, int], str]:
    """Every function under ``src/package``: ``(path, first line) -> dotted name``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(rel, first)] = name
                walk(child, rel, name)
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, f"{prefix}.{child.name}")
            else:
                walk(child, rel, prefix)

    for path in sorted((src / package).rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        rel = path.relative_to(src).as_posix()
        walk(ast.parse(path.read_text(), str(path)), rel, ".".join(parts))
    return found


def parse_allow(text: str) -> tuple[dict[str, str], list[str]]:
    """The allow-list's ``name -> reason`` entries, and its malformed lines."""
    entries: dict[str, str] = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = (part.strip() for part in line.partition(":"))
        if not reason:
            errors.append(f"line {lineno}: {name} gives no reason")
        elif name in entries:
            errors.append(f"line {lineno}: {name} is listed twice")
        else:
            entries[name] = reason
    return entries, errors


def _covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def review(functions: Mapping[tuple[str, int], str], seen: set[tuple[str, int]],
           allow_text: str) -> tuple[list[str], list[str], list[str]]:
    """``(uncalled, unallowed, errors)``: names never called, those of them no
    entry covers, and the allow-list's malformed or stale entries."""
    uncalled = sorted(name for key, name in functions.items() if key not in seen)
    entries, errors = parse_allow(allow_text)
    for entry in entries:
        if not any(_covers(entry, name) for name in functions.values()):
            errors.append(f"{entry}: names no function under src/repro")
        elif not any(_covers(entry, name) for name in uncalled):
            errors.append(f"{entry}: the census saw everything under it called")
    unallowed = [name for name in uncalled
                 if not any(_covers(entry, name) for entry in entries)]
    return uncalled, unallowed, errors


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="repro-census-"))
    try:
        run_all(work, prepare(work))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"census run failed: {exc}\nkept {work}", file=sys.stderr)
        return 1

    functions = defined_functions(work / "src")
    uncalled, unallowed, errors = review(functions, called(work), ALLOW.read_text())
    print(f"\n{len(functions)} functions under src/repro, "
          f"{len(functions) - len(uncalled)} called, {len(uncalled)} uncalled, "
          f"{len(uncalled) - len(unallowed)} of them allow-listed")
    for name in unallowed:
        print(f"uncalled, not allow-listed: {name}")
    for error in errors:
        print(f"allow-list: {error}")
    if unallowed or errors:
        print(f"kept the runs and their recorded calls in {work}")
        return 1
    shutil.rmtree(work, ignore_errors=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
