"""Unit tests for the streaming extractor and its ring buffers."""

import numpy as np
import pytest

from repro.simulation.packet import Direction, PacketType
from repro.simulation.stats import NodeStats, RouteEventKind
from repro.stream import EventRing, RouteLengthRing, StreamingExtractor


def brute_count(times, tick, period):
    return float(sum(1 for t in times if tick - period < t <= tick))


def brute_iat_std(times, tick, period):
    """The batch `_window_iat_std` semantics, computed the slow way."""
    lo = sum(1 for t in times if t <= tick - period)
    intervals = np.diff(np.asarray(times[lo:], dtype=float))
    if len(intervals) < 2:
        return 0.0
    return float(np.sqrt(np.mean(intervals**2) - np.mean(intervals) ** 2))


class TestEventRing:
    def test_count_and_std_match_reference(self):
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.exponential(0.4, size=400)).tolist()
        ring = EventRing(max_period=15.0)
        pushed = []
        tick = 5.0
        k = 0
        while tick <= times[-1]:
            while k < len(times) and times[k] <= tick:
                ring.push(times[k])
                pushed.append(times[k])
                k += 1
            for period in (5.0, 15.0):
                assert ring.count(tick, period) == brute_count(pushed, tick, period)
                assert ring.iat_std(tick, period) == pytest.approx(
                    brute_iat_std(pushed, tick, period), abs=1e-12
                )
            ring.evict_before(tick)
            tick += 5.0

    def test_eviction_compacts_storage(self):
        ring = EventRing(max_period=5.0)
        for i in range(3000):
            ring.push(i * 0.1)
            if i % 50 == 0:
                ring.evict_before(i * 0.1)
        ring.evict_before(300.0)
        # Compaction keeps the backing list near the live window size.
        assert len(ring._times) - ring._head < 600
        assert len(ring) == 3000

    def test_rejects_time_regression(self):
        ring = EventRing(max_period=5.0)
        ring.push(2.0)
        with pytest.raises(ValueError):
            ring.push(1.0)

    def test_sparse_window_yields_zero_std(self):
        ring = EventRing(max_period=10.0)
        ring.push(1.0)
        ring.push(2.0)  # one interval only
        assert ring.iat_std(5.0, 10.0) == 0.0


class TestRouteLengthRing:
    def test_average_and_carry_forward(self):
        ring = RouteLengthRing(max_period=5.0)
        assert ring.average(5.0, 5.0) == 0.0  # no samples yet -> initial carry
        ring.push(6.0, 2)
        ring.push(7.0, 4)
        assert ring.average(10.0, 5.0) == pytest.approx(3.0)
        ring.evict_before(10.0)
        # Empty window carries the previous average forward.
        assert ring.average(15.0, 5.0) == pytest.approx(3.0)
        ring.push(18.0, 6)
        assert ring.average(20.0, 5.0) == pytest.approx(6.0)

    def test_eviction_preserves_prefix_boundary(self):
        ring = RouteLengthRing(max_period=5.0)
        for i in range(1000):
            ring.push(float(i), i % 7)
            if i % 20 == 0:
                ring.evict_before(float(i))
        window = [i % 7 for i in range(995, 1000)]
        assert ring.average(999.0, 5.0) == pytest.approx(sum(window) / 5.0)

    def test_push_after_full_eviction(self):
        """Regression: evicting every sample at a compaction emptied the
        backing lists while samples had been pushed, so the next push's
        order check read ``_times[-1]`` and raised IndexError."""
        ring = RouteLengthRing(max_period=5.0)
        for i in range(300):
            ring.push(float(i), 2)
        assert ring.average(299.0, 5.0) == 2.0
        ring.evict_before(1000.0)
        assert ring.average(1000.0, 5.0) == 2.0  # empty window: carry
        state = ring.snapshot()
        clone = RouteLengthRing(max_period=1.0)
        clone.restore(state)
        for r in (ring, clone):
            r.push(1001.0, 3)
            r.push(1002.0, 5)
            assert r.average(1002.0, 5.0) == 4.0
            assert len(r._times) - r._head == 2  # storage stays compacted
        assert clone.snapshot() == ring.snapshot()

    def test_rejects_time_regression_after_full_eviction(self):
        ring = RouteLengthRing(max_period=5.0)
        for i in range(300):
            ring.push(float(i), 2)
        ring.evict_before(1000.0)
        with pytest.raises(ValueError, match="precedes previous sample 299.0"):
            ring.push(298.5, 3)
        ring.push(299.0, 3)  # equal times stay legal


class TestStreamingExtractor:
    def test_validates_constructor_args(self):
        with pytest.raises(ValueError):
            StreamingExtractor(monitor=-1)
        with pytest.raises(ValueError):
            StreamingExtractor(periods=())
        with pytest.raises(ValueError):
            StreamingExtractor(sampling_period=0.0)

    def test_bind_rejects_wrong_node_and_double_bind(self):
        tap = StreamingExtractor(monitor=0)
        with pytest.raises(ValueError):
            tap.bind(NodeStats(node_id=3))
        stats = NodeStats(node_id=0)
        tap.bind(stats)
        with pytest.raises(RuntimeError):
            tap.bind(stats)
        tap.unbind()

    def test_rejected_bind_leaves_no_partial_state(self):
        """Regression: a rejected bind must not subscribe a listener or
        mark the tap bound — it stays cleanly re-bindable."""
        tap = StreamingExtractor(monitor=0)
        wrong = NodeStats(node_id=3)
        with pytest.raises(ValueError):
            tap.bind(wrong)
        assert tap not in wrong._listeners
        right = NodeStats(node_id=0)
        tap.bind(right)  # not blocked by the failed attempt
        assert tap in right._listeners
        tap.unbind()
        assert tap not in right._listeners

    def test_unbind_is_idempotent_and_tolerates_rebuilt_listeners(self):
        tap = StreamingExtractor(monitor=0)
        stats = NodeStats(node_id=0)
        tap.bind(stats)
        stats._listeners.clear()  # e.g. the stats object was re-pickled
        tap.unbind()  # must not raise on the missing listener
        tap.unbind()  # idempotent
        tap.bind(stats)  # and the tap is bindable again
        tap.unbind()

    def test_event_at_tick_time_lands_in_that_window(self):
        tap = StreamingExtractor(monitor=0, periods=(5.0,), sampling_period=5.0)
        tap.on_packet(4.0, PacketType.DATA, Direction.RECEIVED)
        tap.on_tick(5.0, speed=0.0)
        # Same-instant event after the tick callback: still window (0, 5].
        tap.on_packet(5.0, PacketType.DATA, Direction.RECEIVED)
        tap.on_packet(5.5, PacketType.DATA, Direction.RECEIVED)  # closes t=5
        tap.on_tick(10.0, speed=0.0)
        tap.finish()
        names = tap.feature_names
        col = names.index("data_received_5s_count")
        assert tap.rows[0].time == 5.0
        assert tap.rows[0].features[col] == 2.0
        assert tap.rows[1].features[col] == 1.0

    def test_rejects_out_of_order_tick(self):
        tap = StreamingExtractor(monitor=0)
        tap.on_packet(7.0, PacketType.DATA, Direction.RECEIVED)
        with pytest.raises(ValueError):
            tap.on_tick(5.0, speed=0.0)

    def test_rejects_tick_while_pending(self):
        tap = StreamingExtractor(monitor=0)
        tap.on_tick(5.0, speed=0.0)
        with pytest.raises(ValueError):
            tap.on_tick(5.0, speed=0.0)

    def test_warmup_suppresses_rows_but_advances_state(self):
        tap = StreamingExtractor(
            monitor=0, periods=(5.0, 60.0), sampling_period=5.0, warmup=10.0
        )
        for tick in (5.0, 10.0, 15.0):
            tap.on_route_event(tick - 1.0, RouteEventKind.ADD)
            tap.on_tick(tick, speed=1.0)
        tap.finish()
        assert tap.n_windows == 3
        assert [row.time for row in tap.rows] == [10.0, 15.0]
        assert [row.index for row in tap.rows] == [0, 1]
        # The 60 s window still sees the suppressed windows' events.
        col = tap.feature_names.index("route_all_received_60s_count")
        assert tap.rows[-1].features[col] == 0.0  # no traffic pushed
        col_add = tap.feature_names.index("route_add_count")
        assert tap.rows[-1].features[col_add] == 1.0

    def test_on_row_hook_and_keep_rows_off(self):
        seen = []
        tap = StreamingExtractor(
            monitor=0, periods=(5.0,), sampling_period=5.0,
            on_row=seen.append, keep_rows=False,
        )
        tap.on_tick(5.0, speed=2.0)
        tap.finish()
        assert len(seen) == 1 and seen[0].features[0] == 2.0
        with pytest.raises(RuntimeError):
            tap.to_matrix()

    def test_empty_stream_yields_empty_matrix(self):
        tap = StreamingExtractor(monitor=0)
        tap.finish()
        X, times = tap.to_matrix()
        assert X.shape == (0, len(tap.feature_names))
        assert times.shape == (0,)
