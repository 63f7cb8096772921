"""End-to-end equivalence of the shared-pass ensemble training.

The tests-side reference classifiers (``tests/ml/reference.py``), put in
place of the shipped ones in ``CLASSIFIERS``, force the reference
per-sub-model training loop (full ``np.delete`` copies, per-attribute
histogram passes, C4.5's reference growth); the shipped shared-pass path
must produce ``np.array_equal`` detection scores on the same simulated
traces — for both routing protocols, sharing one trace cache so only the
training path differs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.eval.experiments import ExperimentPlan
from repro.ml import CLASSIFIERS
from repro.runtime import Session
from tests.ml.reference import REFERENCE_CLASSIFIERS

PLAN = ExperimentPlan(
    n_nodes=6,
    duration=120.0,
    max_connections=5,
    train_seeds=(1,),
    calibration_seed=2,
    normal_seeds=(3,),
    attack_seeds=(4,),
    warmup=20.0,
    periods=(5.0, 30.0),
)


@pytest.mark.parametrize("protocol", ["aodv", "dsr"])
@pytest.mark.parametrize("classifier", ["c45", "nbc"])
def test_detect_scores_identical_with_and_without_fast_fit(
    tmp_path, monkeypatch, protocol, classifier
):
    plan = replace(PLAN, protocol=protocol)

    with monkeypatch.context() as patch:
        patch.setitem(CLASSIFIERS, classifier, REFERENCE_CLASSIFIERS[classifier])
        reference = Session(cache_dir=tmp_path).detect(plan, classifier=classifier)

    shared = Session(cache_dir=tmp_path).detect(plan, classifier=classifier)

    assert np.array_equal(reference.scores, shared.scores)
    assert reference.auc == shared.auc
    assert reference.threshold == shared.threshold


def test_fit_stage_is_recorded(tmp_path):
    session = Session(cache_dir=tmp_path)
    session.detect(PLAN, classifier="nbc")
    assert session.metrics.stage_seconds.get("fit", 0.0) > 0.0
