"""Compiled attribution tables against the dict-based oracle.

:class:`~repro.attribution.AlarmAttributor` compiles its fine-group and
variant tables once; ``tests/attribution/reference.py`` keeps the
per-alarm dict path it replaced.  Over Hypothesis-drawn window programs
(clean runs, alarm bursts, healed episodes) and knob sets, every
verdict's ``repr`` — so every field, to the bit — must agree, as must
the snapshots, including one restored mid-run from its JSON form.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attribution import (
    ANOMALY_TYPES,
    AlarmAttributor,
    AnomalyType,
    ScoreCusum,
    classify_activity,
    classify_shares,
    residual_flags,
    signed_activity,
)
from repro.core.model import CrossFeatureModel

from tests.attribution import reference

#: Table 4/5 names: six pool into fine groups, the IAT column and the
#: unknown one carry no direction.
NAMES = [
    "rreq_received_5s_count",
    "rreq_received_60s_count",
    "rreq_sent_5s_count",
    "data_received_5s_count",
    "data_sent_5s_count",
    "route_add_count",
    "rreq_received_5s_iat_std",
    "absolute_velocity",
    "something_else",
]
THRESHOLD = 0.5


def normal_rows(n, seed):
    rng = np.random.default_rng(seed)
    load = rng.uniform(0, 10, size=n)
    return np.column_stack([
        load + rng.normal(0, 0.3, n),
        3 * load + rng.normal(0, 0.8, n),
        2 * load + rng.normal(0, 0.5, n),
        load ** 1.5 + rng.normal(0, 0.5, n),
        0.5 * load + rng.normal(0, 0.3, n),
        rng.poisson(2, n).astype(float),
        rng.uniform(0, 1, n),
        rng.uniform(0, 20, n),
        rng.normal(0, 1, n),
    ])


def fitted(named=True, feature_subset=None):
    model = CrossFeatureModel(feature_subset=feature_subset)
    model.fit(normal_rows(240, 0), feature_names=NAMES if named else None)
    model.calibrate(normal_rows(120, 1))
    return model


@pytest.fixture(scope="module")
def models():
    return {
        "named": fitted(),
        "subset": fitted(feature_subset=[0, 2, 3, 4, 6, 7]),
        "unnamed": fitted(named=False),
    }


@st.composite
def programs(draw):
    """``(rows, scores, alarming)``: a clean lead-in, then alternating
    alarm and clean runs (a clean run may heal the episode)."""
    alarming = [False] * draw(st.integers(0, 16))
    for j, length in enumerate(draw(st.lists(st.integers(1, 14), min_size=1, max_size=5))):
        alarming += [j % 2 == 0] * length
    n = len(alarming)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    rows = normal_rows(n, seed)
    for k in np.flatnonzero(alarming):
        cols = rng.choice(len(NAMES), size=rng.integers(1, 4), replace=False)
        rows[k, cols] += rng.choice([-1.0, 1.0]) * rng.uniform(5, 1e3, len(cols))
    scores = [
        float(rng.uniform(0.0, 0.45) if a else rng.uniform(0.55, 1.5))
        for a in alarming
    ]
    return rows, scores, alarming


@st.composite
def knob_sets(draw):
    min_history = draw(st.integers(1, 10))
    return {
        "history": draw(st.sampled_from([1, 3, 8, 11])),
        "residual_min_history": min_history,
        "residual_window": min_history + draw(st.sampled_from([0, 1, 6, 14])),
        "top_k": draw(st.integers(1, 9)),
        "residual_z": draw(st.sampled_from([0.5, 2.0, 4.0])),
    }


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["named", "subset", "unnamed"]),
    knobs=knob_sets(),
    program=programs(),
    cut=st.floats(0.0, 1.0),
)
def test_verdicts_equal_the_reference_to_the_bit(models, kind, knobs, program, cut):
    model = models[kind]
    rows, scores, alarming = program
    shipped = AlarmAttributor(model, THRESHOLD, **knobs)
    oracle = reference.ReferenceAttributor(model, THRESHOLD, **knobs)
    restart = int(cut * len(rows))
    for k, (row, score, alarm) in enumerate(zip(rows, scores, alarming)):
        if k == restart:
            state = json.loads(json.dumps(shipped.snapshot()))
            assert state == oracle.snapshot()
            shipped = AlarmAttributor(model, THRESHOLD, **knobs)
            shipped.restore(state)
        ours = shipped.attribute(5.0 * (k + 1), score, row, alarm)
        theirs = oracle.attribute(5.0 * (k + 1), score, row, alarm)
        assert repr(ours) == repr(theirs)
    assert shipped.snapshot() == oracle.snapshot()


def test_programs_reach_a_full_activity_history(models):
    """A long burst after a long clean run fills all eight activity slots."""
    rows = normal_rows(40, 9)
    rows[20:, 0] += 500.0
    shipped = AlarmAttributor(models["named"], THRESHOLD)
    oracle = reference.ReferenceAttributor(models["named"], THRESHOLD)
    for k, row in enumerate(rows):
        alarm = k >= 20
        score = 0.1 if alarm else 0.9
        ours = shipped.attribute(5.0 * (k + 1), score, row, alarm)
        assert repr(ours) == repr(oracle.attribute(5.0 * (k + 1), score, row, alarm))
    assert len(shipped.snapshot()["recent_acts"]) == 8


ACTIVITY = st.dictionaries(
    st.sampled_from(sorted({g for t in ANOMALY_TYPES.values()
                            for v in t.variants for g in v} | {"alien"})),
    st.floats(-1.0, 1.0),
    min_size=1,
)


@settings(max_examples=200, deadline=None)
@given(activity=ACTIVITY)
def test_public_taxonomy_functions_equal_the_reference(activity):
    for atype in ANOMALY_TYPES.values():
        assert repr(atype.match_activity(activity)) == \
            repr(reference.match_activity(atype, activity))
    assert repr(classify_activity(activity)) == \
        repr(reference.classify_activity(activity))
    custom = {"probe": AnomalyType("probe", "", {"other": 1.0}, variants=(activity,))}
    assert repr(classify_activity(activity, custom, min_match=0.5)) == \
        repr(reference.classify_activity(activity, custom, min_match=0.5))
    shares = {g: abs(v) for g, v in activity.items()}
    assert repr(classify_shares(shares)) == repr(reference.classify_shares(shares))


@settings(max_examples=100, deadline=None)
@given(
    n_history=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    damping=st.sampled_from([1.0, 4.0]),
)
def test_signed_activity_and_residuals_equal_the_reference(n_history, seed, damping):
    groups = ["a", None, "b", "a", "c", None, "b", "a"]
    rng = np.random.default_rng(seed)
    history = rng.normal(0, rng.uniform(0.1, 10), size=(n_history, len(groups)))
    row = rng.normal(0, 5, size=len(groups))
    ours = signed_activity(row, history, groups, damping)
    theirs = reference.signed_activity(row, history, groups, damping)
    assert repr(ours) == repr(theirs)
    for z in (1.0, 4.0):
        ours = residual_flags(history, row, z=z, min_history=4)
        theirs = reference.residual_flags(history, row, z=z, min_history=4)
        assert (ours is None and theirs is None) or np.array_equal(ours, theirs)


class TestBadKnobsAreRejectedByName:
    """Bad attribution knobs fail at construction, naming the knob."""

    @pytest.mark.parametrize("knob,value", [
        ("threshold", float("nan")),
        ("threshold", float("inf")),
        ("threshold", 0.0),
        ("min_match", float("nan")),
        ("top_k", 0),
        ("top_k", 2.5),
        ("history", 0),
        ("history", True),
        ("residual_window", 0),
        ("residual_min_history", 0),
        ("residual_min_history", 25),
        ("residual_z", float("nan")),
        ("residual_z", 0.0),
    ])
    def test_alarm_attributor(self, models, knob, value):
        kwargs = {"threshold": THRESHOLD, knob: value}
        with pytest.raises(ValueError, match=knob):
            AlarmAttributor(models["named"], **kwargs)

    @pytest.mark.parametrize("args,knob", [
        ((float("nan"),), "reference"),
        ((float("inf"),), "reference"),
        ((-1.0,), "reference"),
        ((1.0, float("nan")), "drift_frac"),
        ((1.0, 0.1, float("nan")), "decision_frac"),
        ((1.0, 0.1, 0.0), "decision_frac"),
    ])
    def test_score_cusum(self, args, knob):
        with pytest.raises(ValueError, match=knob):
            ScoreCusum(*args)
