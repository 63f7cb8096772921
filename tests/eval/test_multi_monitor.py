"""Multi-monitor detection and raw-trace sharing tests (small scale).

The paper reports every result "on one node only" and notes that
"similar results and performance have been verified on other nodes".
Here that verification is ``session.detect(replace(plan, monitor=m))``:
plans that differ only in their monitor share their simulations.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.eval.experiments import ExperimentPlan
from repro.features import extract_features
from repro.runtime import Session

PLAN = ExperimentPlan(
    n_nodes=10,
    duration=250.0,
    max_connections=15,
    train_seeds=(1,),
    calibration_seed=2,
    normal_seeds=(3,),
    attack_seeds=(4,),
    warmup=50.0,
    periods=(5.0, 60.0),
)
N_TRACES = 4  # train + calibration + normal + attack


@pytest.fixture(scope="module")
def session():
    return Session(cache=False)


class TestRawTraceSharing:
    def test_same_plan_same_traces(self, session):
        a = session.raw_traces(PLAN)
        b = session.raw_traces(PLAN)
        assert a.train[0] is b.train[0]

    def test_extraction_knobs_share_simulations(self, session):
        """Plans differing only in monitor/warmup/periods reuse traces."""
        a = session.raw_traces(PLAN)
        b = session.raw_traces(replace(PLAN, monitor=3, warmup=0.0))
        assert a.train[0] is b.train[0]

    def test_simulation_knobs_do_not_share(self, session):
        a = session.raw_traces(PLAN)
        b = session.raw_traces(replace(PLAN, duration=300.0))
        assert a.train[0] is not b.train[0]


class TestOtherMonitors:
    def test_monitor_plan_extracts_at_its_monitor(self, session):
        b0 = session.bundle(PLAN)
        b3 = session.bundle(replace(PLAN, monitor=3))
        assert b0.train.monitor == 0
        assert b3.train.monitor == 3
        assert not np.allclose(b0.train.X, b3.train.X)

    def test_one_attack_seen_from_another_node(self, session):
        attack = session.raw_traces(PLAN).abnormal_evals[0]
        seen = extract_features(attack, monitor=3, periods=PLAN.periods,
                                warmup=PLAN.warmup, label_policy=PLAN.label_policy)
        b3 = session.bundle(replace(PLAN, monitor=3))
        assert np.array_equal(seen.X, b3.abnormal_evals[0].X)

    def test_attacker_as_monitor_rejected(self):
        with pytest.raises(ValueError, match="attacker"):
            replace(PLAN, monitor=PLAN.attacker)


class TestPerMonitorDetection:
    def test_results_per_vantage_point(self):
        session = Session(cache=False)
        results = {
            m: session.detect(replace(PLAN, monitor=m), classifier="nbc")
            for m in (0, 3)
        }
        assert session.metrics.simulations == N_TRACES
        for m, res in results.items():
            assert res.plan.monitor == m
            assert np.isfinite(res.scores).all()
            assert res.labels.any()
        assert session.metrics.stage_seconds.keys() >= {"fit", "score"}
