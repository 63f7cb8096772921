"""The fleet contract: N multiplexed lanes == N independent detectors.

Every test here asserts exact ``np.array_equal`` equality (no tolerance):
scoring the ``(N, L)`` tick bucket in one vectorized call must reproduce
the bits of N independent ``(1, L)`` ``OnlineDetector`` calls — across
monitors, across concurrent scenario groups, and end to end through
``Session.fleet_detect``.
"""

import numpy as np
import pytest

from repro.eval.experiments import ExperimentPlan
from repro.features.extraction import extract_features
from repro.runtime import Session
from repro.stream import FleetDetector, OnlineDetector, extractor_for_config, replay_trace

MONITORS = (0, 2, 5)


@pytest.fixture(scope="module")
def fitted(aodv_udp_trace, dsr_udp_trace):
    """A trained + calibrated detector fitted on the fixture traces."""
    from repro.core.model import CrossFeatureDetector

    train = extract_features(aodv_udp_trace, monitor=0)
    detector = CrossFeatureDetector()
    detector.fit(
        train.X,
        feature_names=train.feature_names,
        calibration_X=extract_features(dsr_udp_trace, monitor=0).X,
    )
    return detector


def independent_run(detector, trace, monitor):
    """The reference: one OnlineDetector riding its own replay."""
    online = OnlineDetector.from_detector(detector, monitor=monitor)
    tap = extractor_for_config(trace.config, monitor=monitor, on_row=online.consume)
    replay_trace(trace, tap)
    return online


class TestFleetVsIndependent:
    def test_multi_monitor_fleet_is_bit_identical(self, fitted, aodv_udp_trace):
        trace = aodv_udp_trace
        fleet = FleetDetector.from_detector(fitted)
        taps = {
            m: fleet.add_stream(m, sampling_period=trace.config.sampling_period)
            for m in MONITORS
        }
        for tap in taps.values():
            replay_trace(trace, tap)
        fleet.finish()
        result = fleet.result()

        for m, tap in taps.items():
            solo = independent_run(fitted, trace, m)
            lane = result.streams[tap.name]
            assert np.array_equal(lane.scores, np.asarray(solo.scores))
            assert np.array_equal(lane.times, np.asarray(solo.times))
            assert [(a.index, a.time, a.score) for a in lane.alarms] == \
                   [(a.index, a.time, a.score) for a in solo.alarms]
        # The win this PR buys: same-tick windows really shared batches.
        assert max(fleet.batch_sizes) == len(MONITORS)

    def test_single_stream_fleet_matches_online_detector(self, fitted, dsr_udp_trace):
        trace = dsr_udp_trace
        fleet = FleetDetector.from_detector(fitted)
        tap = fleet.add_stream(0, sampling_period=trace.config.sampling_period)
        replay_trace(trace, tap)
        fleet.finish()

        solo = independent_run(fitted, trace, 0)
        lane = fleet.result().streams[tap.name]
        assert np.array_equal(lane.scores, np.asarray(solo.scores))
        assert np.array_equal(lane.times, np.asarray(solo.times))
        assert lane.threshold == solo.threshold  # both adopted threshold_
        for fleet_alarm, solo_alarm in zip(lane.alarms, solo.alarms):
            assert fleet_alarm.index == solo_alarm.index
            assert fleet_alarm.time == solo_alarm.time
            assert fleet_alarm.score == solo_alarm.score
            assert fleet_alarm.threshold == solo_alarm.threshold
            assert fleet_alarm.monitor == solo_alarm.monitor

    def test_concurrent_scenarios_share_batches(
        self, fitted, aodv_udp_trace, dsr_udp_trace
    ):
        """Two scenario groups on one fleet: same-time windows from
        *different* scenarios score together, scores stay per-run exact."""
        traces = {"s0": aodv_udp_trace, "s1": dsr_udp_trace}
        fleet = FleetDetector.from_detector(fitted)
        for scenario, trace in traces.items():
            for m in (0, 2):
                fleet.add_stream(
                    m, scenario=scenario,
                    sampling_period=trace.config.sampling_period,
                )
        for scenario, trace in traces.items():
            for tap in fleet.taps(scenario):
                replay_trace(trace, tap)
        fleet.finish()
        result = fleet.result()

        for scenario, trace in traces.items():
            for m in (0, 2):
                solo = independent_run(fitted, trace, m)
                lane = result.streams[f"{scenario}/n{m}"]
                assert np.array_equal(lane.scores, np.asarray(solo.scores))
                assert np.array_equal(lane.times, np.asarray(solo.times))
        # Both fixtures run on the same tick grid, so the cross-scenario
        # buckets hold all four lanes' windows.
        assert max(result.batch_sizes) == 4


class TestSessionFleetDetect:
    @pytest.fixture(scope="class")
    def plan(self):
        return ExperimentPlan(
            n_nodes=10, duration=200.0, max_connections=10,
            train_seeds=(11,), normal_seeds=(21,), attack_seeds=(31,),
            warmup=50.0, traffic_seed=7,
        )

    @pytest.fixture(scope="class")
    def session(self):
        return Session(cache=False)

    def test_fleet_detect_matches_per_monitor_stream_detect(self, plan, session):
        fleet_result = session.fleet_detect(plan, monitors=MONITORS)
        assert fleet_result.n_streams == len(MONITORS)
        for m in MONITORS:
            solo = session.stream_detect(plan, monitor=m)
            lane = fleet_result.streams[f"s0/n{m}"]
            assert np.array_equal(lane.scores, solo.scores)
            assert np.array_equal(lane.times, solo.times)
            assert np.array_equal(lane.labels, solo.labels)
            assert lane.threshold == solo.threshold
            assert len(lane.alarms) == len(solo.alarms)

    def test_fleet_metrics_account_batches_and_fusions(self, plan, session):
        metrics_session = Session(cache=False)
        result = metrics_session.fleet_detect(plan, monitors=MONITORS, quorum=2)
        m = metrics_session.metrics
        assert m.fleet_windows == result.windows
        assert m.fleet_batches == result.batches
        assert m.fused_alarms == len(result.fused)
        assert m.alarms == result.alarms
        assert "fleet" in m.stage_seconds
        # Every fused verdict met the k-of-n quorum.
        for fused in result.fused:
            assert len(fused.streams) >= fused.needed == 2

    def test_default_monitors_exclude_the_attacker(self, plan, session):
        result = session.fleet_detect(plan)
        monitors = {stream.monitor for stream in result.streams.values()}
        assert monitors == set(range(plan.n_nodes)) - {plan.attacker}
