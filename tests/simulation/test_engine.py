"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simulation.engine import Simulator
from tests.simulation.reference import HeapSimulator


class TestScheduling:
    def test_runs_events_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 1


class TestPendingCounter:
    """``pending_events`` is a live O(1) counter, exact under both loops.

    ``bucketed=False`` runs the same queue through the reference heap loop.
    """

    @pytest.mark.parametrize("bucketed", [False, True])
    def test_tracks_schedule_dispatch_and_cancel(self, bucketed):
        sim = Simulator() if bucketed else HeapSimulator()
        observed = []
        assert sim.pending_events == 0
        sim.schedule(1.0, lambda: observed.append(sim.pending_events))
        sim.schedule_at(2.0, lambda: observed.append(sim.pending_events))
        sim.schedule_transient(3.0, lambda: observed.append(sim.pending_events))
        victim = sim.schedule(4.0, lambda: observed.append("never"))
        assert sim.pending_events == 4
        victim.cancel()
        assert sim.pending_events == 3
        victim.cancel()  # idempotent: no double decrement
        assert sim.pending_events == 3
        sim.run()
        # Each callback saw the count *after* its own dispatch decrement.
        assert observed == [2, 1, 0]
        assert sim.pending_events == 0

    @pytest.mark.parametrize("bucketed", [False, True])
    def test_counts_events_scheduled_from_callbacks(self, bucketed):
        sim = Simulator() if bucketed else HeapSimulator()
        seen = []

        def parent():
            sim.schedule(0.5, seen.append, sim.pending_events)
            seen.append(sim.pending_events)

        sim.schedule(1.0, parent)
        assert sim.pending_events == 1
        sim.run(until=1.0)
        # parent dispatched (−1) then scheduled a child (+1).
        assert seen == [1]
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert seen == [1, 0]

    def test_interrupted_run_preserves_count(self):
        sim = Simulator(lane_quantum=100.0)
        # All three land in one bucket window; stop() after the first.
        sim.schedule(1.0, sim.stop)
        sim.schedule(1.5, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0


class TestRunUntil:
    def test_until_leaves_later_events_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(10.0, seen.append, "late")
        sim.run(until=5.0)
        assert seen == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert seen == ["early", "late"]

    def test_until_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_stop_halts_processing(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append("a"), sim.stop()))
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen == ["a"]

    def test_processed_events_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 5


class TestDeterminism:
    def test_same_seed_same_random_stream(self):
        a, b = Simulator(seed=99), Simulator(seed=99)
        assert [a.rng.random() for _ in range(10)] == [b.rng.random() for _ in range(10)]

    def test_different_seed_different_stream(self):
        a, b = Simulator(seed=1), Simulator(seed=2)
        assert [a.rng.random() for _ in range(5)] != [b.rng.random() for _ in range(5)]
