"""The streaming contract: streamed rows == batch rows, bit for bit.

Every test here asserts exact ``np.array_equal`` equality (no tolerance):
the streaming extractor promises the identical IEEE-754 results as the
batch ``extract_features`` path, and the online detector the identical
scores as the batch ``CrossFeatureDetector.score`` — for all four
protocol/transport scenarios, with and without attacks, live or replayed.
"""

import numpy as np
import pytest

from repro.attacks import (
    BlackholeAttack,
    DropMode,
    PacketDroppingAttack,
    periodic_sessions,
)
from repro.eval.experiments import ExperimentPlan
from repro.features.extraction import extract_features
from repro.runtime import Session
from repro.simulation.scenario import run_scenario
from repro.stream import OnlineDetector, extractor_for_config, replay_trace
from tests.conftest import small_config

SCENARIO_FIXTURES = [
    "aodv_udp_trace",
    "dsr_udp_trace",
    "aodv_tcp_trace",
    "dsr_tcp_trace",
]


def batch_dataset(trace, warmup=0.0):
    return extract_features(trace, monitor=0, warmup=warmup)


class TestReplayEquivalence:
    @pytest.mark.parametrize("fixture", SCENARIO_FIXTURES)
    def test_rows_bit_identical(self, request, fixture):
        trace = request.getfixturevalue(fixture)
        tap = extractor_for_config(trace.config)
        replay_trace(trace, tap)
        X_stream, t_stream = tap.to_matrix()
        ds = batch_dataset(trace)
        assert tap.feature_names == ds.feature_names
        assert np.array_equal(t_stream, ds.times)
        assert np.array_equal(X_stream, ds.X)  # exact, not approx

    @pytest.mark.parametrize("fixture", ["aodv_udp_trace", "dsr_tcp_trace"])
    def test_warmup_suppression_matches_batch_filter(self, request, fixture):
        trace = request.getfixturevalue(fixture)
        tap = extractor_for_config(trace.config, warmup=50.0)
        replay_trace(trace, tap)
        X_stream, t_stream = tap.to_matrix()
        ds = batch_dataset(trace, warmup=50.0)
        assert (t_stream >= 50.0).all()
        assert np.array_equal(t_stream, ds.times)
        assert np.array_equal(X_stream, ds.X)


@pytest.fixture(scope="module")
def attacked_live_run():
    """One live scenario with the paper's mixed attack and a riding tap."""
    config = small_config(seed=31)
    T = config.duration
    attacks = [
        BlackholeAttack(attacker=9, sessions=periodic_sessions(0.25 * T, 0.05 * T, T)),
        PacketDroppingAttack(
            attacker=9,
            sessions=periodic_sessions(0.5 * T, 0.05 * T, T),
            mode=DropMode.CONSTANT,
            destination=0,
        ),
    ]
    tap = extractor_for_config(config)
    trace = run_scenario(config, attacks=attacks, taps=[tap])
    return trace, tap


class TestLiveTapEquivalence:
    def test_live_rows_match_batch(self, attacked_live_run):
        trace, tap = attacked_live_run
        X_live, t_live = tap.to_matrix()
        ds = batch_dataset(trace)
        assert np.array_equal(t_live, ds.times)
        assert np.array_equal(X_live, ds.X)

    def test_replay_matches_live(self, attacked_live_run):
        trace, tap = attacked_live_run
        replayed = extractor_for_config(trace.config)
        replay_trace(trace, replayed)
        X_live, _ = tap.to_matrix()
        X_replay, _ = replayed.to_matrix()
        assert np.array_equal(X_replay, X_live)

    def test_attacked_windows_differ_from_clean(self, attacked_live_run, aodv_udp_trace):
        # Sanity: the attack actually perturbs the streamed features
        # (otherwise the equivalence above would be vacuous).
        trace, tap = attacked_live_run
        X_attacked, _ = tap.to_matrix()
        clean = extractor_for_config(aodv_udp_trace.config)
        replay_trace(aodv_udp_trace, clean)
        X_clean, _ = clean.to_matrix()
        assert X_attacked.shape == X_clean.shape
        assert not np.array_equal(X_attacked, X_clean)


class TestOnlineScoring:
    def test_streamed_scores_match_batch_scores(self, aodv_udp_trace, dsr_udp_trace):
        # Fit directly on the fixture features (fast, no extra simulation).
        from repro.core.model import CrossFeatureDetector

        train = batch_dataset(aodv_udp_trace)
        detector = CrossFeatureDetector()
        detector.fit(
            train.X,
            feature_names=train.feature_names,
            calibration_X=batch_dataset(dsr_udp_trace).X,
        )
        online = OnlineDetector.from_detector(detector)
        tap = extractor_for_config(dsr_udp_trace.config, on_row=online.consume)
        replay_trace(dsr_udp_trace, tap)
        batch_scores = detector.score(batch_dataset(dsr_udp_trace).X)
        assert np.array_equal(np.asarray(online.scores), batch_scores)
        # Alarm set == thresholded batch scores.
        alarm_times = {a.time for a in online.alarms}
        expected = {
            float(t)
            for t, s in zip(batch_dataset(dsr_udp_trace).times, batch_scores)
            if s < detector.threshold_
        }
        assert alarm_times == expected


class TestSessionStreamDetect:
    def test_stream_detect_matches_offline_pipeline(self):
        plan = ExperimentPlan(
            n_nodes=10, duration=200.0, max_connections=10,
            train_seeds=(11,), normal_seeds=(21,), attack_seeds=(31,),
            warmup=50.0, traffic_seed=7,
        )
        session = Session(cache=False)
        result = session.stream_detect(plan)
        # Reference: simulate the identical attacked scenario offline and
        # run it through the batch extract + score path.
        config = plan.scenario_config(plan.attack_seeds[0])
        trace = run_scenario(config, attacks=plan.build_attacks())
        ds = extract_features(
            trace,
            monitor=plan.monitor,
            periods=plan.periods,
            warmup=plan.warmup,
            label_policy=plan.label_policy,
        )
        detector = session.fitted_detector(plan)
        assert result.windows == len(ds)
        assert np.array_equal(result.times, ds.times)
        assert np.array_equal(result.labels, ds.labels)
        assert np.array_equal(result.scores, detector.score(ds.X))
        assert result.threshold == detector.threshold_
        assert session.metrics.alarms == len(result.alarms)
