"""Experiment-plan and pipeline tests (small scale)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.eval.experiments import ExperimentPlan, four_scenarios
from repro.runtime import Session

SMALL_PLAN = ExperimentPlan(
    n_nodes=10,
    duration=300.0,
    max_connections=20,
    train_seeds=(1,),
    calibration_seed=2,
    normal_seeds=(3,),
    attack_seeds=(4,),
    warmup=50.0,
    periods=(5.0, 60.0),
)


@pytest.fixture(scope="module")
def small_session():
    return Session()


@pytest.fixture(scope="module")
def small_bundle(small_session):
    return small_session.bundle(SMALL_PLAN)


class TestPlan:
    def test_attacker_is_last_node(self):
        assert SMALL_PLAN.attacker == 9

    def test_monitor_must_differ_from_attacker(self):
        with pytest.raises(ValueError):
            ExperimentPlan(n_nodes=5, monitor=4)

    def test_degenerate_node_counts_rejected(self):
        """Regression: n_nodes < 2 must fail loudly, not via the
        monitor/attacker clash (n_nodes=1) or silently (n_nodes=0,
        where attacker=-1 used to slip past __post_init__)."""
        for n in (0, 1, -3):
            with pytest.raises(ValueError, match="n_nodes"):
                ExperimentPlan(n_nodes=n)

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(attack_kind="teleport")

    @pytest.mark.parametrize("field, value", [
        *[("duration", bad) for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0)],
        *[("warmup", bad) for bad in (math.nan, math.inf, -math.inf, -1.0)],
        *[("periods", bad) for bad in (
            (), (-5.0, 30.0), (5.0, 0.0), (math.nan, 30.0), (5.0, math.inf))],
        *[("monitor", bad) for bad in (-1, 20)],
        ("label_policy", "bogus"),
        ("drop_mode", "bogus"),
        *[("blackhole_start_frac", bad) for bad in (math.nan, -0.1, 1.0)],
        *[("dropping_start_frac", bad) for bad in (math.nan, 1.5)],
        *[("session_frac", bad) for bad in (math.nan, -0.1, 0.0, 1.5)],
    ])
    def test_bad_numeric_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentPlan(**{field: value})

    def test_edge_values_are_accepted(self):
        from repro.attacks import DropMode

        plan = ExperimentPlan(monitor=18, blackhole_start_frac=0.0,
                              dropping_start_frac=0.0, session_frac=1.0,
                              drop_mode=DropMode.RANDOM, label_policy="session",
                              periods=(5.0,))
        assert plan.build_attacks()

    def test_plans_hashable_for_caching(self):
        assert hash(SMALL_PLAN) == hash(replace(SMALL_PLAN))
        assert SMALL_PLAN != replace(SMALL_PLAN, duration=400.0)

    def test_mixed_attack_composition(self):
        attacks = SMALL_PLAN.build_attacks()
        assert len(attacks) == 2  # black hole + dropping
        starts = [a.sessions[0][0] for a in attacks]
        assert starts == [0.25 * 300.0, 0.5 * 300.0]

    def test_single_attack_compositions(self):
        for kind in ("blackhole", "dropping"):
            plan = replace(SMALL_PLAN, attack_kind=kind)
            attacks = plan.build_attacks()
            assert len(attacks) == 1
            assert len(attacks[0].sessions) == 3  # 25% / 50% / 75%

    def test_four_scenarios(self):
        plans = four_scenarios(SMALL_PLAN)
        assert set(plans) == {"aodv/tcp", "aodv/udp", "dsr/tcp", "dsr/udp"}
        assert plans["dsr/tcp"].protocol == "dsr"
        assert plans["dsr/tcp"].duration == SMALL_PLAN.duration


class TestBundle:
    def test_structure(self, small_bundle):
        assert len(small_bundle.normal_evals) == 1
        assert len(small_bundle.abnormal_evals) == 1
        assert not small_bundle.train.labels.any()
        assert not small_bundle.calibration.labels.any()
        assert small_bundle.abnormal_evals[0].labels.any()

    def test_train_concatenates_seeds(self):
        session = Session()
        plan = replace(SMALL_PLAN, train_seeds=(1, 5))
        bundle = session.bundle(plan)
        single = session.bundle(SMALL_PLAN)
        assert len(bundle.train) == 2 * len(single.train)


class TestDetectionExperiment:
    def test_result_invariants(self, small_session):
        result = small_session.detect(SMALL_PLAN, classifier="nbc")
        assert len(result.scores) == len(result.labels)
        assert result.labels.any() and not result.labels.all()
        assert -0.5 <= result.auc <= 0.5
        r, p, thr = result.optimal
        assert 0 <= r <= 1 and 0 <= p <= 1
        assert len(result.series) == 2

    def test_unknown_classifier_rejected(self, small_session):
        with pytest.raises(ValueError):
            small_session.detect(SMALL_PLAN, classifier="svm")

    def test_paper_methods_also_run(self, small_session):
        for method in ("avg_probability", "match_count"):
            result = small_session.detect(SMALL_PLAN, classifier="nbc", method=method)
            assert np.isfinite(result.scores).all()

    def test_max_models_reduces_ensemble(self, small_session):
        detector = small_session.fitted_detector(SMALL_PLAN, classifier="nbc", max_models=10)
        assert detector.model.n_models == 10
        result = small_session.detect(SMALL_PLAN, classifier="nbc", max_models=10)
        assert np.isfinite(result.scores).all()
