"""Alternating A/B runs of the benchmark: a base revision against this checkout.

    python3 tools/ab.py --workload sched-campaign --base main --pairs 10 --seed 8001
    make ab WORKLOAD=sched-campaign BASE=main PAIRS=10 SEED=8001

Both sides run from fresh copies in one temporary directory (removed at
exit): the base revision exported with ``git archive``, and this
checkout's tracked files as they are on disk (modified and staged files
included, untracked ones not).  Neither side then runs where earlier
builds, tests or benchmark runs left files, and the repository's own
``.git`` is only read.  Pair ``i`` runs ``perfbench/run.py --trace 0``
with seed ``SEED + i`` and its default run length once in each copy: the
base first on even pairs, the checkout first on odd ones, so drift in
host speed falls on both sides.

Every end-to-end metric is printed per pair, then per metric the medians,
the base's quartiles, the change's win count, and for each side how many
operations were ``correct``/``attempted``/``failed``.  A run that fails or
reports ``"correct": false`` makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Mapping, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
from helpers import summarize  # noqa: E402  (perfbench's own quartiles)

SIDES = ("base", "change")


def end_to_end(benchmark: Mapping) -> list[tuple[str, str]]:
    """``(name, better)`` of every end-to-end metric ``BENCHMARK.json`` names."""
    return [(m["name"], m["better"]) for m in benchmark["end_to_end"]]


def summarize_pairs(pairs: Sequence[Mapping[str, Mapping]],
                    metrics: Sequence[tuple[str, str]]) -> dict:
    """Reduce per-pair results to medians, base quartiles and wins.

    Each pair maps ``"base"`` and ``"change"`` to the JSON object a
    ``perfbench/run.py`` run prints last.  A pair counts as a win for the
    change when its value is strictly better in the metric's direction;
    ``beyond_iqr`` says whether the medians differ by more than the base's
    interquartile range.
    """
    if not pairs:
        raise ValueError("no pairs to summarize")
    out: dict = {"pairs": len(pairs), "metrics": {}, "runs": {}}
    for name, better in metrics:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        spread = summarize(base)
        base_median, q1, q3 = spread["median"], spread["q1"], spread["q3"]
        change_median = statistics.median(change)
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        out["metrics"][name] = {
            "better": better,
            "base_median": base_median,
            "change_median": change_median,
            "delta_frac": (change_median - base_median) / base_median
            if base_median else 0.0,
            "base_q1": q1,
            "base_q3": q3,
            "wins": wins,
            "beyond_iqr": abs(change_median - base_median) > q3 - q1,
        }
    for side in SIDES:
        results = [p[side] for p in pairs]
        out["runs"][side] = {
            "correct": sum(1 for r in results if r["correct"]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
    return out


def format_summary(summary: Mapping) -> list[str]:
    """The summary as printable lines."""
    n = summary["pairs"]
    lines = [f"{'metric':<14} {'base':>10} {'change':>10} {'delta':>8} "
             f"{'base q1':>10} {'base q3':>10} {'wins':>6}  beyond IQR"]
    for name, m in summary["metrics"].items():
        lines.append(
            f"{name:<14} {m['base_median']:>10.4g} {m['change_median']:>10.4g} "
            f"{m['delta_frac']:>+8.1%} {m['base_q1']:>10.4g} "
            f"{m['base_q3']:>10.4g} {m['wins']:>3}/{n:<2}  "
            f"{'yes' if m['beyond_iqr'] else 'no'}")
    for side, r in summary["runs"].items():
        lines.append(f"{side:<6} correct {r['correct']}/{n}  "
                     f"attempted {r['attempted']}  failed {r['failed']}")
    return lines


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    try:
        result = last_json(proc.stdout)
    except ValueError:
        raise SystemExit(f"{tree}: run with seed {seed} printed no result "
                         f"(exit {proc.returncode})")
    if proc.returncode != 0:
        result["correct"] = False
    return result


def export_tree(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def copy_checkout(dest: Path) -> None:
    """Copy the checkout's tracked files, as they are on disk, under ``dest``."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT,
                           stdout=subprocess.PIPE, check=True).stdout
    for name in filter(None, names.split(b"\0")):
        source = ROOT / os.fsdecode(name)
        if source.is_file():  # a tracked file deleted on disk stays deleted
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 tools/ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = end_to_end(json.loads((ROOT / "BENCHMARK.json").read_text()))
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees = {side: tmp / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        sha = export_tree(args.base, trees["base"])
        copy_checkout(trees["change"])
        print(f"base {args.base} ({sha[:12]}) against the checkout at {ROOT}; "
              f"workload {args.workload}, {args.pairs} pairs from seed "
              f"{args.seed}", flush=True)
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_bench(trees[side], args.workload, seed)
                    for side in order}
            pairs.append(pair)
            cells = "  ".join(
                f"{name} {pair['base']['metrics'][name]['value']:.4g}/"
                f"{pair['change']['metrics'][name]['value']:.4g}"
                for name, _ in metrics)
            attempted = "/".join(str(pair[s]["attempted"]) for s in SIDES)
            print(f"pair {i} seed {seed} ({order[0]} first)  base/change  "
                  f"{cells}  attempted {attempted}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarize_pairs(pairs, metrics)
    for line in format_summary(summary):
        print(line)
    ok = all(r["correct"] == args.pairs for r in summary["runs"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
