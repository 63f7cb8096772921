"""Scenario assembly tests: configuration, determinism, trace invariants."""

import math

import numpy as np
import pytest

from repro.attacks import BlackholeAttack
from repro.simulation.scenario import ScenarioConfig, run_scenario

from tests.conftest import small_config


class TestConfigValidation:
    def test_defaults_match_paper_parameters(self):
        cfg = ScenarioConfig()
        assert cfg.area == (1000.0, 1000.0)
        assert cfg.max_connections == 100
        assert cfg.traffic_rate == 0.25
        assert cfg.pause_time == 10.0
        assert cfg.max_speed == 20.0
        assert cfg.sampling_period == 5.0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(protocol="zrp")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(transport="sctp")

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_nodes=1)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0.0)

    @pytest.mark.parametrize("field, value", [
        *[(name, bad)
          for name in ("duration", "tx_range", "traffic_rate", "sampling_period")
          for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0)],
        *[("max_speed", bad) for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0, 0.4)],
        *[("pause_time", bad) for bad in (math.nan, math.inf, -math.inf, -5.0)],
        *[("loss_rate", bad) for bad in (math.nan, math.inf, -math.inf, -0.1, 2.0)],
    ])
    def test_bad_numeric_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("loss_rate", 0.0), ("loss_rate", 1.0), ("max_speed", 0.5),
        ("pause_time", 0.0), ("pause_time", 1e9), ("tx_range", 1e-3),
    ])
    def test_edge_of_range_accepted(self, field, value):
        assert getattr(ScenarioConfig(**{field: value}), field) == value


class TestRunScenario:
    def test_sampling_grid(self, aodv_udp_trace):
        ticks = np.asarray(aodv_udp_trace.tick_times)
        assert ticks[0] == 5.0
        assert np.allclose(np.diff(ticks), 5.0)
        assert ticks[-1] <= aodv_udp_trace.config.duration

    def test_speed_samples_shape(self, aodv_udp_trace):
        assert len(aodv_udp_trace.speeds) == len(aodv_udp_trace.tick_times)
        assert len(aodv_udp_trace.speeds[0]) == aodv_udp_trace.config.n_nodes

    def test_speeds_bounded(self, aodv_udp_trace):
        speeds = np.asarray(aodv_udp_trace.speeds)
        assert (speeds >= 0).all()
        assert (speeds <= aodv_udp_trace.config.max_speed).all()

    def test_traffic_flows(self, aodv_udp_trace):
        assert aodv_udp_trace.data_originated > 50
        assert 0.3 < aodv_udp_trace.delivery_ratio() <= 1.0

    def test_all_nodes_log_something(self, aodv_udp_trace):
        for node_stats in aodv_udp_trace.recorder.nodes:
            assert any(len(v) for v in node_stats.packet_times.values())

    def test_deterministic_given_seed(self):
        a = run_scenario(small_config(duration=100.0))
        b = run_scenario(small_config(duration=100.0))
        assert a.data_originated == b.data_originated
        assert a.data_delivered == b.data_delivered
        assert a.recorder.total_packets() == b.recorder.total_packets()

    def test_different_seed_different_trace(self):
        a = run_scenario(small_config(duration=100.0, seed=1))
        b = run_scenario(small_config(duration=100.0, seed=2))
        assert a.recorder.total_packets() != b.recorder.total_packets()

    def test_traffic_seed_fixes_connection_pattern(self):
        """Same traffic seed + different mobility seed: comparable load."""
        a = run_scenario(small_config(duration=150.0, seed=1, traffic_seed=9))
        b = run_scenario(small_config(duration=150.0, seed=2, traffic_seed=9))
        # The flows are identical, so the originated counts are close even
        # though mobility (and thus delivery) differs.
        assert abs(a.data_originated - b.data_originated) < 0.2 * a.data_originated

    def test_tcp_transport_runs(self, aodv_tcp_trace):
        assert aodv_tcp_trace.data_originated > 100
        assert aodv_tcp_trace.delivery_ratio() > 0.5


class TestGroundTruth:
    def test_attack_intervals_recorded(self):
        attack = BlackholeAttack(attacker=9, sessions=[(50.0, 80.0), (120.0, 150.0)])
        trace = run_scenario(small_config(seed=3), attacks=[attack])
        assert trace.attack_intervals == [(50.0, 80.0), (120.0, 150.0)]

    def test_is_attack_time(self):
        attack = BlackholeAttack(attacker=9, sessions=[(50.0, 80.0)])
        trace = run_scenario(small_config(seed=3), attacks=[attack])
        assert trace.is_attack_time(60.0)
        assert not trace.is_attack_time(90.0)

    def test_window_labels_session_policy(self):
        attack = BlackholeAttack(attacker=9, sessions=[(50.0, 80.0)])
        trace = run_scenario(small_config(seed=3), attacks=[attack])
        labels = trace.window_labels("session")
        ticks = trace.tick_times
        for t, label in zip(ticks, labels):
            expected = 50.0 < t <= 85.0 or (t - 5.0) < 80.0 <= t or (50.0 <= t - 5.0 < 80.0)
            # Simpler: window (t-5, t] overlaps (50, 80)
            expected = (t - 5.0) < 80.0 and t > 50.0
            assert label == expected, t

    def test_unknown_label_policy_rejected(self):
        trace = run_scenario(small_config(seed=3))
        with pytest.raises(ValueError):
            trace.window_labels("bogus")

    def test_normal_trace_all_windows_normal(self, aodv_udp_trace):
        assert not any(aodv_udp_trace.window_labels())
        assert not any(aodv_udp_trace.window_labels("post_attack"))
