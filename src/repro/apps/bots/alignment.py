"""BOTS ``alignment``: all-pairs protein sequence alignment.

One independent task per sequence pair.  Two task-generation variants,
exactly as BOTS ships them:

* ``alignment-for`` — a parallel loop over rows; each loop chunk spawns
  the pair tasks for its rows;
* ``alignment-single`` — one generator inside ``omp single`` spawns all
  pairs.

Near-linear speedup either way; the variants differ only in where spawn
overhead lands and how work enters the queues.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.calibration.profiles import WorkloadProfile
from repro.kernels.alignment import align_pair, random_sequences
from repro.openmp import OmpEnv, parallel_for
from repro.qthreads.api import RegionBoundary, Spawn, Taskwait

#: Number of sequences; tasks = n(n-1)/2 pairs.
NUM_SEQUENCES = 46
PAYLOAD_SEQ_LEN = 12


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def build(
    profile: WorkloadProfile,
    env: OmpEnv,
    *,
    payload: bool = False,
    scale: float = 1.0,
    seed: int = 0,
    variant: str = "for",
    num_sequences: int = NUM_SEQUENCES,
) -> Generator[Any, Any, Any]:
    """Program generator; returns total alignment score (payload) or pairs."""
    pairs = _pairs(num_sequences)
    work_per_pair = profile.phase_work_s(0) * scale / len(pairs)
    sequences = (
        random_sequences(num_sequences, PAYLOAD_SEQ_LEN, seed=seed) if payload else None
    )

    def pair_task(i: int, j: int) -> Generator[Any, Any, float]:
        yield profile.work(work_per_pair, 0, tag=f"align({i},{j})")
        if sequences is not None:
            return align_pair(sequences[i], sequences[j])
        return 1.0

    def row_chunk(lo: int, hi: int) -> Generator[Any, Any, float]:
        """-for variant: a loop chunk spawns its rows' pair tasks."""
        handles = []
        for i in range(lo, hi):
            for j in range(i + 1, num_sequences):
                handle = yield Spawn(pair_task(i, j), label=f"pair({i},{j})")
                handles.append(handle)
        yield Taskwait()
        return sum(h.result for h in handles)

    def program() -> Generator[Any, Any, Any]:
        yield profile.serial_work(profile.serial_work_s * scale, tag="align-io")
        if variant == "for":
            partials = yield from parallel_for(
                env, 0, num_sequences, row_chunk, label="align-rows"
            )
            return sum(partials)
        if variant == "single":
            # ``#pragma omp single``: the encountering task generates all.
            total = yield from _spawn_all(pair_task, pairs)
            return total
        raise ValueError(f"unknown alignment variant {variant!r}")

    return program()


def _spawn_all(pair_task, pairs) -> Generator[Any, Any, float]:
    """-single variant: one task spawns every pair, then joins."""
    handles = []
    for i, j in pairs:
        handle = yield Spawn(pair_task(i, j), label=f"pair({i},{j})")
        handles.append(handle)
    yield Taskwait()
    yield RegionBoundary(kind="region")
    return sum(h.result for h in handles)
