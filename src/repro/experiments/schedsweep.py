"""Scheduler sweep: placement policy × power budget comparison.

The cluster-scheduler headline experiment.  For every placement policy
(:data:`repro.sched.POLICIES`) and every global power budget in the
sweep, replay the *same* deterministic arrival trace through the
multi-node cluster simulation and compare the service-level outcomes:
makespan, rejections, energy per job, wait tails, and peak coordinated
power.  Because every cell shares one trace per (profile, seed), the
differences in the table are pure policy/budget effects — the scheduling
analogue of the paper's fixed-workload compiler/throttling comparisons.

The interesting tension the table surfaces: power-aware water-filling
holds peak cluster power furthest under the budget (it defers placement
while the cluster is power-saturated) at the cost of makespan and wait
tails; FCFS/best-fit run hotter but finish sooner; EDP-greedy reorders
the queue to favour short high-concurrency jobs.

:func:`run_policy_tournament` adds the co-scheduling headline cell: the
full policy lineup — the four heuristics plus the profile-driven
``predicted`` policy — on one tight-budget diurnal trace, ranked by
mean energy-delay product (energy × turnaround per job) with the p95
slowdown tail alongside.  The claim it substantiates: placement driven
by *measured* contention profiles (:mod:`repro.experiments.coschedsweep`)
beats at least one crude-estimate heuristic on mean EDP while cutting
the slowdown tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.harness import BatchExecutor, default_executor
from repro.sched import POLICIES, SchedResult, SchedSpec

#: Policy order for the report (baseline first).
DEFAULT_POLICIES: tuple[str, ...] = ("fcfs", "bestfit", "edp", "waterfill")

#: Global power budgets, W.  With four nodes the floor is 240 W, so the
#: low point is genuinely tight and the high point nearly unconstrained.
DEFAULT_BUDGETS_W: tuple[float, ...] = (300.0, 500.0)

#: Arrival profiles compared (two by default: one smooth, one adversarial).
DEFAULT_PROFILES: tuple[str, ...] = ("poisson", "bursty")

#: The tournament lineup: every registered policy, heuristics first.
TOURNAMENT_POLICIES: tuple[str, ...] = (
    "fcfs", "bestfit", "edp", "waterfill", "predicted",
)

#: Tournament cell: a diurnal trace under a tight-but-livable budget —
#: loose enough that holding is a choice, tight enough that it matters.
TOURNAMENT_PROFILE = "diurnal"
TOURNAMENT_BUDGET_W = 400.0


@dataclass
class SchedSweepResult:
    """The full sweep, keyed by (profile, policy, budget)."""

    cells: dict[tuple[str, str, float], SchedResult] = field(default_factory=dict)
    seed: int = 0

    def cell(self, profile: str, policy: str, budget_w: float) -> SchedResult:
        return self.cells[(profile, policy, budget_w)]

    def format(self) -> str:
        lines = [
            "SCHED SWEEP: placement policy x power budget on one arrival "
            f"trace per profile (seed={self.seed})",
            "",
            f"{'profile':<9}{'policy':<11}{'budget':>7}{'done':>6}{'rej':>5}"
            f"{'makespan':>10}{'J/job':>8}{'p95 wait':>10}{'peak W':>8}"
            f"{'viol':>6}",
        ]
        for (profile, policy, budget_w), r in self.cells.items():
            lines.append(
                f"{profile:<9}{policy:<11}{budget_w:>7.0f}"
                f"{r.completed:>6d}{len(r.rejected):>5d}"
                f"{r.makespan_s:>9.1f}s{r.energy_per_job_j:>8.0f}"
                f"{r.wait_percentile_s(95):>9.2f}s{r.peak_power_w:>8.1f}"
                f"{len(r.budget_violations):>6d}"
            )
        lines.append("")
        total_violations = sum(
            len(r.budget_violations) for r in self.cells.values()
        )
        lines.append(
            f"cluster-budget violations across the sweep: {total_violations}"
        )
        return "\n".join(lines)


@dataclass
class TournamentResult:
    """Policy tournament on one arrival trace, ranked by mean EDP."""

    results: dict[str, SchedResult] = field(default_factory=dict)
    profile: str = TOURNAMENT_PROFILE
    budget_w: float = TOURNAMENT_BUDGET_W
    seed: int = 0

    def ranking(self) -> list[str]:
        """Policies from best (lowest) to worst mean EDP, ties by name."""
        return sorted(
            self.results,
            key=lambda policy: (self.results[policy].mean_edp_js, policy),
        )

    @property
    def winner(self) -> str:
        return self.ranking()[0]

    def format(self) -> str:
        lines = [
            f"POLICY TOURNAMENT: {self.profile} arrivals @ "
            f"{self.budget_w:.0f} W global budget "
            f"(seed={self.seed}, ranked by mean EDP)",
            "",
            f"{'rank':<6}{'policy':<11}{'mean EDP':>12}{'p95 slowdn':>11}"
            f"{'J/job':>8}{'makespan':>10}{'peak W':>8}",
        ]
        for rank, policy in enumerate(self.ranking(), start=1):
            r = self.results[policy]
            lines.append(
                f"{rank:<6}{policy:<11}{r.mean_edp_js:>12.0f}"
                f"{r.slowdown_percentile(95):>10.2f}x"
                f"{r.energy_per_job_j:>8.0f}{r.makespan_s:>9.1f}s"
                f"{r.peak_power_w:>8.1f}"
            )
        predicted = self.results.get("predicted")
        if predicted is not None:
            beaten = sorted(
                policy
                for policy, r in self.results.items()
                if policy != "predicted"
                and predicted.mean_edp_js < r.mean_edp_js
            )
            lines.append("")
            lines.append(
                "predicted beats on mean EDP: "
                + (", ".join(beaten) if beaten else "(none)")
            )
        return "\n".join(lines)


def run_policy_tournament(
    policies: Sequence[str] = TOURNAMENT_POLICIES,
    *,
    profile: str = TOURNAMENT_PROFILE,
    budget_w: float = TOURNAMENT_BUDGET_W,
    nodes: int = 4,
    jobs: int = 12,
    seed: int = 0,
    harness: Optional[BatchExecutor] = None,
) -> TournamentResult:
    """Race every policy on one shared trace; rank by mean EDP.

    One :class:`~repro.sched.spec.SchedSpec` per policy, all sharing the
    (profile, seed) arrival trace, dispatched through the harness so
    cells cache and replay bit-identically like any other sweep.
    """
    sweep = run_sched_sweep(
        profiles=(profile,),
        policies=policies,
        budgets_w=(budget_w,),
        nodes=nodes,
        jobs=jobs,
        seed=seed,
        harness=harness,
    )
    result = TournamentResult(
        profile=profile, budget_w=float(budget_w), seed=seed
    )
    for policy in policies:
        result.results[policy] = sweep.cell(profile, policy, float(budget_w))
    return result


def run_sched_sweep(
    profiles: Sequence[str] = DEFAULT_PROFILES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    budgets_w: Sequence[float] = DEFAULT_BUDGETS_W,
    *,
    nodes: int = 4,
    jobs: int = 12,
    seed: int = 0,
    harness: Optional[BatchExecutor] = None,
) -> SchedSweepResult:
    """Replay one trace per profile under every (policy, budget) pair."""
    from repro.errors import ConfigError

    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        raise ConfigError(
            f"unknown placement policy(ies) {', '.join(sorted(unknown))}; "
            f"one of {', '.join(sorted(POLICIES))}"
        )
    harness = harness if harness is not None else default_executor()
    keys = [
        (profile, policy, float(budget_w))
        for profile in profiles
        for policy in policies
        for budget_w in budgets_w
    ]
    specs = [
        SchedSpec(
            profile=profile,
            policy=policy,
            nodes=nodes,
            budget_w=budget_w,
            jobs=jobs,
            seed=seed,
            label=f"{profile}/{policy} @{budget_w:.0f}W",
        )
        for profile, policy, budget_w in keys
    ]
    records = harness.run(specs, sweep="schedsweep")
    result = SchedSweepResult(seed=seed)
    for key, record in zip(keys, records):
        result.cells[key] = record
    return result
