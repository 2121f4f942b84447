"""SchedSpec: validation, digest stability, harness-facing contract."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.sched.spec import SCHED_SPEC_SCHEMA, SchedSpec

pytestmark = pytest.mark.sched


def test_digest_is_stable_and_seed_sensitive():
    a = SchedSpec(seed=0)
    b = SchedSpec(seed=0)
    c = SchedSpec(seed=1)
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert len(a.digest) == 64  # sha256 hex


def test_label_excluded_from_identity():
    plain = SchedSpec(seed=3)
    labelled = plain.with_label("cell-a")
    assert labelled.label == "cell-a"
    assert labelled == plain
    assert labelled.digest == plain.digest


def test_payload_carries_schema_and_apps_tuple():
    spec = SchedSpec(apps=["mergesort", "nqueens"])
    assert spec.apps == ("mergesort", "nqueens")
    payload = spec.payload_dict()
    assert payload["schema"] == SCHED_SPEC_SCHEMA
    assert payload["apps"] == ["mergesort", "nqueens"]
    assert "label" not in payload


@pytest.mark.parametrize(
    "kwargs",
    [
        {"profile": "nope"},
        {"policy": "srpt"},
        {"nodes": 0},
        {"budget_w": 0.0},
        {"jobs": 0},
        {"rate_jobs_per_s": -1.0},
        {"queue_depth": 0},
        {"node_threads": 0},
        {"scale": 0.0},
        {"period_s": 0.0},
        {"coordinator_period_s": 0.0},
        {"time_limit_s": 0.0},
        {"apps": ()},
        {"apps": ("not-an-app",)},
        # NaN compares false against every bound, so each guard must be
        # phrased as "not positive" rather than "<= 0".
        {"budget_w": float("nan")},
        {"budget_w": float("inf")},
        {"rate_jobs_per_s": float("nan")},
        {"scale": float("nan")},
        {"period_s": float("nan")},
        {"period_s": float("inf")},
        {"coordinator_period_s": float("nan")},
        {"time_limit_s": float("nan")},
        # JSON admits ``Infinity``, so an infinite scale can arrive over
        # the wire; it must be refused here, not in the worker.
        {"scale": float("inf")},
        {"scale": -0.5},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ConfigError):
        SchedSpec(**kwargs)


def test_spec_is_picklable_and_hashable():
    spec = SchedSpec(profile="diurnal", policy="edp", seed=11)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.digest == spec.digest
    assert hash(clone) == hash(spec)


def test_describe_mentions_the_knobs_that_matter():
    text = SchedSpec(profile="bursty", policy="waterfill",
                     nodes=4, budget_w=400.0).describe()
    assert "bursty" in text
    assert "waterfill" in text
    assert "400" in text


# ---------------------------------------------------------- predictor field
def test_unknown_policy_error_lists_the_registered_policies():
    # Regression: the unknown-policy rejection is eager (construction
    # time, not first tick) and its message names every registered
    # policy, so a typo is a one-line fix rather than an archaeology dig.
    from repro.sched.policy import POLICIES

    with pytest.raises(ConfigError) as err:
        SchedSpec(policy="srpt")
    for name in POLICIES:
        assert name in str(err.value)


def test_predicted_policy_materialises_the_default_model():
    from repro.cosched import default_model

    spec = SchedSpec(policy="predicted")
    assert spec.predictor is default_model()
    # The digest names the exact model: payload folds in its digest.
    assert spec.payload_dict()["predictor"] == default_model().digest


def test_predictor_rejected_on_non_predicted_policies():
    from repro.cosched import default_model

    with pytest.raises(ConfigError, match="does not take a predictor"):
        SchedSpec(policy="fcfs", predictor=default_model())


def test_heuristic_payloads_carry_no_predictor_key():
    # Digest-space stability: every pre-existing (heuristic) spec digest
    # must be byte-identical to what it was before the predictor field
    # existed, so the result cache survives the schema growth.
    for policy in ("fcfs", "bestfit", "edp", "waterfill"):
        assert "predictor" not in SchedSpec(policy=policy).payload_dict()


def test_custom_predictor_changes_the_digest():
    import dataclasses

    from repro.cosched import default_model

    base = SchedSpec(policy="predicted")
    entry = dataclasses.replace(default_model().entries[0], sens_slope=9.0)
    custom = dataclasses.replace(
        default_model(), entries=(entry,) + default_model().entries[1:]
    )
    assert SchedSpec(policy="predicted", predictor=custom).digest != base.digest


def test_predicted_spec_pickles_with_its_model():
    spec = SchedSpec(profile="diurnal", policy="predicted", jobs=6)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.digest == spec.digest
    assert clone.predictor == spec.predictor
