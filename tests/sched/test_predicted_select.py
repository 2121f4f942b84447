"""``PredictedPlacement.select`` against a reference built from the
predictor's public API.

The policy memoises each (app, threads) entry's coefficients and scans
the queue in one loop; the reference below is the direct spelling of
the policy's contract — ``min`` over ``(predict_edp, job.index)`` at the
cluster's budget utilisation, a hold on ``predict_watts`` minus the idle
floor, node choice weighted by ``sensitivity_of`` — so any drift in the
memo, the tie rule, the pressure clamp or the roofline fallback shows
up as a different pick.  Values come from small sampled sets so EDP
ties, budget holds and non-positive budgets are all common.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from repro.cosched import PredictorEntry, PredictorModel
from repro.sched.policy import (
    _NODE_IDLE_W,
    ClusterState,
    NodeView,
    make_policy,
)
from repro.sched.workload import Job

pytestmark = pytest.mark.sched

#: The model knows the first two apps at 8 threads only; every other
#: (app, threads) pair takes the roofline fallback.
MODEL_APPS = ("mergesort", "nqueens")
APPS = MODEL_APPS + ("reduction", "fibonacci")
THREADS = (4, 8)


def reference_select(model, queue, nodes, state):
    idle = [n for n in nodes if not n.busy]
    if not queue or not idle:
        return None
    budget = state.global_budget_w
    pressure = 0.0 if budget <= 0 else min(1.0, state.total_power_w / budget)
    pos = min(range(len(queue)), key=lambda i: (
        model.predict_edp(queue[i].app, queue[i].threads, queue[i].scale,
                          pressure=pressure),
        queue[i].index,
    ))
    job = queue[pos]
    need = max(0.0, model.predict_watts(job.app, job.threads) - _NODE_IDLE_W)
    if len(idle) < len(nodes) and state.total_power_w + need > budget:
        return None
    sensitivity = model.sensitivity_of(job.app, job.threads)
    chosen = min(idle, key=lambda n: (
        n.clamp_pressure * sensitivity, -n.headroom_w, n.name))
    return pos, chosen.name


entries = st.builds(
    PredictorEntry,
    app=st.sampled_from(MODEL_APPS),
    threads=st.just(8),
    unit_time_s=st.sampled_from((0.5, 1.0, 2.0)),
    # Below, near and above the idle floor the hold subtracts.
    watts=st.sampled_from((30.0, 100.0, 150.0)),
    sens_slope=st.sampled_from((0.0, 0.1, 4.0)),
    intensity=st.just(0.2),
)
models = st.lists(entries, max_size=2, unique_by=lambda e: e.app).map(
    lambda es: PredictorModel(entries=tuple(es)))


@st.composite
def queues(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    # Indices are not in queue order, so ties must break on the index.
    indices = draw(st.permutations(range(size)))
    return tuple(
        Job(index=index, submit_s=0.0, app=draw(st.sampled_from(APPS)),
            threads=draw(st.sampled_from(THREADS)),
            scale=draw(st.sampled_from((0.5, 1.0))))
        for index in indices
    )


@st.composite
def node_lists(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    return tuple(
        NodeView(name=f"node{i}", busy=draw(st.booleans()),
                 budget_w=draw(st.sampled_from((90.0, 150.0))),
                 measured_power_w=draw(st.sampled_from((0.0, 20.0, 120.0))),
                 clamp_pressure=draw(st.sampled_from((0.0, 0.3, 0.8))))
        for i in range(size)
    )


states = st.builds(
    ClusterState,
    time_s=st.just(0.0),
    global_budget_w=st.sampled_from((-10.0, 0.0, 100.0, 250.0, 400.0)),
    total_power_w=st.sampled_from((0.0, 90.0, 105.0, 200.0, 390.0, 600.0)),
)

_MODEL = PredictorModel(entries=(
    PredictorEntry(app="mergesort", threads=8, unit_time_s=1.0,
                   watts=100.0, sens_slope=0.0, intensity=0.2),
    PredictorEntry(app="nqueens", threads=8, unit_time_s=1.0,
                   watts=30.0, sens_slope=4.0, intensity=0.2),
))
_MS, _NQ = "mergesort", "nqueens"


def _jobs(*specs):
    """``(index, app, threads, scale)`` tuples as queued jobs."""
    return tuple(Job(index=i, submit_s=0.0, app=app, threads=threads,
                     scale=scale) for i, app, threads, scale in specs)


def _views(*busy):
    return tuple(NodeView(f"node{i}", b, 150.0 - 30.0 * i, 20.0 * i,
                          0.4 * i) for i, b in enumerate(busy))


@given(model=models, queue=queues(), nodes=node_lists(), state=states)
# Equal EDPs: the later queue position holds the lower index and wins.
@example(model=_MODEL, queue=_jobs((5, _MS, 8, 1.0), (2, _MS, 8, 1.0)),
         nodes=_views(True, False, False),
         state=ClusterState(0.0, 400.0, 90.0)).via("ties")
# Pressure reorders the queue: the sensitive job leads at none and
# trails once the cluster saturates its budget.
@example(model=_MODEL, queue=_jobs((0, _NQ, 8, 0.5), (1, _MS, 8, 0.5)),
         nodes=_views(False, False),
         state=ClusterState(0.0, 400.0, 0.0)).via("no pressure")
@example(model=_MODEL, queue=_jobs((0, _NQ, 8, 0.5), (1, _MS, 8, 0.5)),
         nodes=_views(False, False),
         state=ClusterState(0.0, 400.0, 400.0)).via("full pressure")
# Over budget, pressure caps at 1.0 (at 1.5 the order would flip).
@example(model=_MODEL, queue=_jobs((0, _NQ, 8, 0.5), (1, _MS, 8, 1.5)),
         nodes=_views(False, False),
         state=ClusterState(0.0, 400.0, 600.0)).via("pressure cap")
# A busy node and no room under the budget: hold.
@example(model=_MODEL, queue=_jobs((0, _MS, 8, 1.0)),
         nodes=_views(True, False),
         state=ClusterState(0.0, 100.0, 90.0)).via("budget hold")
# Watts under the idle floor add nothing: hold at a total just over it.
@example(model=_MODEL, queue=_jobs((0, _NQ, 8, 1.0)),
         nodes=_views(True, False),
         state=ClusterState(0.0, 100.0, 105.0)).via("marginal floor")
# One idle node behind a busy one takes the job.
@example(model=_MODEL, queue=_jobs((0, _MS, 8, 1.0)),
         nodes=_views(True, False, True),
         state=ClusterState(0.0, 400.0, 90.0)).via("single idle")
# An immune job ignores clamp pressure and takes the most headroom.
@example(model=_MODEL, queue=_jobs((0, _MS, 8, 1.0)),
         nodes=(NodeView("node0", False, 150.0, 20.0, 0.8),
                NodeView("node1", False, 90.0, 20.0, 0.0)),
         state=ClusterState(0.0, 400.0, 40.0)).via("immune")
# A non-positive budget prices the queue at zero pressure.
@example(model=_MODEL, queue=_jobs((0, _NQ, 8, 0.5), (1, _MS, 8, 0.5)),
         nodes=_views(False, False),
         state=ClusterState(0.0, 0.0, 90.0)).via("zero budget")
# Apps and thread counts outside the model price from the roofline.
@example(model=_MODEL, queue=_jobs((0, "reduction", 8, 1.0),
                                   (1, "reduction", 4, 1.0),
                                   (2, _MS, 4, 1.0), (3, "fibonacci", 8, 0.5)),
         nodes=_views(True, False, False),
         state=ClusterState(0.0, 400.0, 200.0)).via("fallback")
def test_predicted_select_matches_public_api_reference(
        model, queue, nodes, state):
    policy = make_policy("predicted", model=model)
    want = reference_select(model, queue, nodes, state)
    assert policy.select(queue, nodes, state) == want
    # A second call answers from the warm memo: same pick.
    assert policy.select(queue, nodes, state) == want
