"""OpenMP constructs lowered onto the Qthreads runtime.

In the paper's stack, OpenMP programs are compiled by the ROSE
source-to-source compiler whose XOMP interface maps directives onto
Qthreads: explicit tasks and chunks of loop iterations become qthreads
(Section III).  This package is the same layer in Python: applications
use its constructs (``parallel_for``, ``parallel_reduce``,
``parallel_region``) for worksharing, and yield the task operations of
:mod:`repro.qthreads.api` directly for explicit tasks (``Spawn`` is
``#pragma omp task``, ``Taskwait`` is ``#pragma omp taskwait``).

All constructs are generators meant to be driven with ``yield from``
inside a task body::

    def program(env):
        total = yield from parallel_reduce(
            env, 0, n, body=chunk_sum, combine=operator.add, init=0.0)
        return total
"""

from repro.openmp.env import OmpEnv
from repro.openmp.loops import parallel_for, static_chunks
from repro.openmp.reduction import parallel_reduce
from repro.openmp.region import parallel_region

__all__ = [
    "OmpEnv",
    "parallel_for",
    "parallel_reduce",
    "parallel_region",
    "static_chunks",
]
