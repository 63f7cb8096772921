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

    def test_nan_time_or_delay_rejected(self):
        """NaN compares False against everything, so a ``time < now`` check
        would let it into the heap and break the run order."""
        nan = float("nan")
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, order.append, "two")
        with pytest.raises(ValueError, match="nan"):
            sim.schedule_at(nan, order.append, "nan")
        sim.schedule_at(1.0, order.append, "one")
        with pytest.raises(ValueError, match="nan"):
            sim.schedule(nan, order.append, "nan")
        with pytest.raises(ValueError, match="nan"):
            queue_batch(sim, [nan, 3.0], lambda p, s: order.append("batch"))
        sim.run()
        assert order == ["one", "two"]
        assert sim.now == 2.0

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


def queue_batch(sim, times, handler):
    """Queue one delivery batch at ``times``, seqs reserved like the medium's."""
    seq = sim._seq
    sim._seq = seq + len(times)
    sim.schedule_batch(
        [(t, seq + k, handler) for k, t in enumerate(times)], "packet", 0
    )


class TestPendingCounter:
    """``pending_events`` counts queued, not-cancelled entries, exact under
    both loops.

    ``shipped=False`` runs the same queue through the reference heap loop.
    """

    @pytest.mark.parametrize("shipped", [False, True])
    def test_tracks_schedule_dispatch_and_cancel(self, shipped):
        sim = Simulator() if shipped else HeapSimulator()
        observed = []
        assert sim.pending_events == 0
        sim.schedule(1.0, lambda: observed.append(sim.pending_events))
        sim.schedule_at(2.0, lambda: observed.append(sim.pending_events))
        sim.schedule(3.0, lambda: observed.append(sim.pending_events))
        victim = sim.schedule(4.0, lambda: observed.append("never"))
        assert sim.pending_events == 4
        victim.cancel()
        assert sim.pending_events == 3
        victim.cancel()  # idempotent: no double decrement
        assert sim.pending_events == 3
        sim.run()
        # Each callback saw the count *after* its own dispatch.
        assert observed == [2, 1, 0]
        assert sim.pending_events == 0

    @pytest.mark.parametrize("shipped", [False, True])
    def test_counts_events_scheduled_from_callbacks(self, shipped):
        sim = Simulator() if shipped else HeapSimulator()
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

    def test_parked_batch_counts_once(self):
        sim = Simulator()
        observed = []

        queue_batch(sim, [1.0, 2.0, 3.0], lambda p, s: observed.append(sim.pending_events))
        sim.schedule(1.5, lambda: observed.append(sim.pending_events))
        assert sim.pending_events == 2
        sim.run()
        # While the batch dispatches it is off the queue; parked at its
        # 2.0 s entry (seen by the 1.5 s event) it is one entry.
        assert observed == [1, 1, 0, 0]
        assert sim.processed_events == 4

    def test_interrupted_run_preserves_count(self):
        sim = Simulator()
        # stop() after the first of three queued events.
        sim.schedule(1.0, sim.stop)
        sim.schedule(1.5, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0


class TestDeliveryBatches:
    """A batch runs its deliveries inline only while each is globally next."""

    def test_deliveries_run_in_key_order(self):
        sim = Simulator()
        seen = []
        queue_batch(sim, [1.0, 1.0, 2.0], lambda p, s: seen.append((sim.now, p, s)))
        sim.run()
        assert seen == [(1.0, "packet", 0), (1.0, "packet", 0), (2.0, "packet", 0)]
        assert sim.processed_events == 3

    def test_batch_yields_to_an_earlier_event(self):
        sim = Simulator()
        seen = []
        queue_batch(sim, [1.0, 3.0], lambda p, s: seen.append(("batch", sim.now)))
        sim.schedule_at(2.0, lambda: seen.append(("plain", sim.now)))
        sim.run()
        assert seen == [("batch", 1.0), ("plain", 2.0), ("batch", 3.0)]

    def test_batch_respects_until(self):
        sim = Simulator()
        seen = []
        queue_batch(sim, [1.0, 3.0], lambda p, s: seen.append(sim.now))
        sim.run(until=2.0)
        assert (seen, sim.now, sim.processed_events) == ([1.0], 2.0, 1)
        assert sim.pending_events == 1
        sim.run()
        assert seen == [1.0, 3.0]

    def test_stop_inside_a_batch(self):
        sim = Simulator()
        seen = []

        def deliver(packet, sender):
            seen.append(sim.now)
            if len(seen) == 1:
                sim.stop()

        queue_batch(sim, [1.0, 1.5], deliver)
        sim.run(until=5.0)
        assert (seen, sim.now, sim.pending_events) == ([1.0], 1.0, 1)
        sim.run()
        assert seen == [1.0, 1.5]

    def test_batch_in_the_past_rejected(self):
        sim = Simulator()
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            queue_batch(sim, [1.0], lambda p, s: None)


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

    def test_stop_inside_until_keeps_the_clock(self):
        """A ``run(until=)`` ended by ``stop()`` leaves the clock at the
        stopping event, so what is still queued runs later in order."""
        sim = Simulator()
        seen = []
        sim.schedule_at(0.5, sim.stop)
        sim.schedule_at(0.7, lambda: seen.append(sim.now))
        sim.run(until=10.0)
        assert sim.now == 0.5
        sim.schedule_at(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.7, 1.0]
        assert sim.now == 1.0

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
