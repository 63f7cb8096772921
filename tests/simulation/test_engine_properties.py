"""Hypothesis properties of the event kernel and routing data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.aodv import AodvRouteEntry
from repro.routing.dsr import RouteCache
from repro.simulation.engine import Simulator
from tests.simulation.reference import HeapSimulator


@st.composite
def kernel_programs(draw):
    """A small scripted event program exercising every kernel entry point.

    Top-level events are scheduled with a mix of relative and absolute
    calls; when fired, an event may schedule children, queue a delivery
    batch, cancel another top-level handle, or stop the run.  A batch has
    up to four deliveries jittered 0-3 s after its fan-out, with seqs
    reserved from ``_seq`` as the medium reserves them; a delivery may
    schedule a child of its own.  The program is replayed verbatim on
    both kernels.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    times = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    jitters = st.floats(0.0, 3.0, allow_nan=False)
    events = []
    for _ in range(n):
        events.append({
            "delay": draw(times),
            "absolute": draw(st.booleans()),
            "children": draw(st.lists(jitters, max_size=2)),
            # (jitter, delay of the delivery's own child or None) per entry.
            "batch": draw(st.lists(st.tuples(jitters, st.one_of(st.none(), jitters)),
                                   max_size=4)),
            "cancel": draw(st.one_of(st.none(),
                                     st.integers(0, n - 1))),
        })
    return {
        "events": events,
        # At most one event calls sim.stop(); the harness resumes after.
        "stop_index": draw(st.one_of(st.none(), st.integers(0, n - 1))),
        # At most one batch's first delivery calls sim.stop().
        "batch_stop_index": draw(st.one_of(st.none(), st.integers(0, n - 1))),
        # run(until=...) segment boundaries before the final drain, each
        # 0-3 s after a top-level event's time, so they often split a
        # batch's deliveries.
        "segments": sorted(
            events[i]["delay"] + offset
            for i, offset in draw(st.lists(st.tuples(st.integers(0, n - 1), jitters),
                                           max_size=2))
        ),
    }


def _execute(program, kernel):
    """Run a kernel program; return its complete observable behaviour.

    The log records ``(now, processed_events, tag)`` at every dispatch,
    delivery and ``run(until=)`` segment end, so a batch dispatched past
    its segment's ``until`` shows up.  Both kernels are drained before
    ``pending_events`` is read: the oracle counts a parked batch once per
    remaining delivery, the shipped kernel once.
    """
    sim = kernel(seed=0)
    log = []
    handles = []

    def note(tag):
        log.append((sim.now, sim.processed_events, tag))

    def delivery(tag, child, stop):
        def deliver(packet, sender):
            note((tag, packet, sender))
            if child is not None:
                sim.schedule(child, note, ("child", tag))
            if stop:
                sim.stop()
        return deliver

    def fire(i):
        note(("top", i))
        spec = program["events"][i]
        for j, delay in enumerate(spec["children"]):
            sim.schedule(delay, note, ("child", i, j))
        if spec["batch"]:
            seq = sim._seq
            sim._seq = seq + len(spec["batch"])
            keys = sorted(
                (sim.now + jitter, seq + k, child)
                for k, (jitter, child) in enumerate(spec["batch"])
            )
            entries = [
                (time, s, delivery(("batch", i, k), child,
                                   k == 0 and program["batch_stop_index"] == i))
                for k, (time, s, child) in enumerate(keys)
            ]
            sim.schedule_batch(entries, ("packet", i), i)
        if spec["cancel"] is not None:
            handles[spec["cancel"]].cancel()
        if program["stop_index"] == i:
            sim.stop()

    for i, spec in enumerate(program["events"]):
        if spec["absolute"]:
            handles.append(sim.schedule_at(spec["delay"], fire, i))
        else:
            handles.append(sim.schedule(spec["delay"], fire, i))
    for until in program["segments"]:
        sim.run(until=until)
        note(("segment", until))
    for _ in range(3):  # each of the two stop() calls can end one run
        sim.run()
    return log, sim.processed_events, sim.pending_events, sim.now


class TestKernelModeEquivalence:
    """The shipped kernel vs the pure-heap oracle: identical execution order.

    The shipped kernel must be observationally indistinguishable from
    :class:`HeapSimulator` — same events and deliveries in the same
    ``(time, seq)`` order at the same clock readings and processed counts,
    same pending count once drained — under cancellation, nested
    scheduling, inline batch dispatch, ``stop()`` (also from inside a
    batch) and segmented ``run(until=...)`` resumption.
    """

    @given(program=kernel_programs())
    @settings(max_examples=200, deadline=None)
    def test_bucketed_matches_reference(self, program):
        reference = _execute(program, HeapSimulator)
        shipped = _execute(program, Simulator)
        assert shipped == reference

    @given(program=kernel_programs())
    @settings(max_examples=50, deadline=None)
    def test_reference_log_is_time_ordered(self, program):
        log, _, _, _ = _execute(program, HeapSimulator)
        assert [t for t, _, _ in log] == sorted(t for t, _, _ in log)


class TestEngineProperties:
    @given(delays=st.lists(st.floats(0.0, 1000.0, allow_nan=False), min_size=1,
                           max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_execution_order_is_time_order(self, delays):
        sim = Simulator()
        fired = []
        for k, delay in enumerate(delays):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=2,
                        max_size=30),
        cancel_mask=st.lists(st.booleans(), min_size=2, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_cancellation_removes_exactly_the_cancelled(self, delays, cancel_mask):
        sim = Simulator()
        fired = []
        events = [sim.schedule(d, lambda i=i: fired.append(i))
                  for i, d in enumerate(delays)]
        cancelled = set()
        for i, (event, cancel) in enumerate(zip(events, cancel_mask)):
            if cancel:
                event.cancel()
                cancelled.add(i)
        sim.run()
        assert set(fired) == set(range(len(delays))) - cancelled

    @given(until=st.floats(0.0, 500.0, allow_nan=False),
           delays=st.lists(st.floats(0.0, 1000.0, allow_nan=False), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_run_until_boundary(self, until, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run(until=until)
        assert all(d <= until for d in fired)
        assert sim.now >= until or not delays


class TestRouteCacheProperties:
    @given(
        paths=st.lists(
            st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_get_returns_shortest_cached(self, paths):
        cache = RouteCache(owner=0, max_paths_per_dest=100)
        by_dest = {}
        for path in paths:
            dest = path[-1]
            cache.add(dest, tuple(path), now=0.0)
            by_dest.setdefault(dest, []).append(tuple(path))
        for dest, candidates in by_dest.items():
            got = cache.get(dest, now=1.0)
            assert got in candidates
            assert len(got) == min(len(p) for p in candidates)

    @given(
        path=st.lists(st.integers(1, 9), min_size=2, max_size=5, unique=True),
        link_index=st.integers(0, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_remove_link_removes_paths_using_it(self, path, link_index):
        cache = RouteCache(owner=0)
        dest = path[-1]
        cache.add(dest, tuple(path), now=0.0)
        full = (0, *path)
        link_index = min(link_index, len(full) - 2)
        cache.remove_link(full[link_index], full[link_index + 1])
        assert cache.get(dest, now=1.0) is None


class TestAodvEntryProperties:
    @given(seq_a=st.integers(0, 100), seq_b=st.integers(0, 100),
           hops_a=st.integers(1, 10), hops_b=st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_freshness_is_antisymmetric_for_valid_entries(
        self, seq_a, seq_b, hops_a, hops_b
    ):
        a = AodvRouteEntry(dest=1, next_hop=2, hops=hops_a, seq=seq_a, expires=10.0)
        if a.fresher_than(seq_b, hops_b):
            # A strictly fresher entry's parameters must not also beat A,
            # except for the reflexive tie (equal seq and hops).
            b = AodvRouteEntry(dest=1, next_hop=3, hops=hops_b, seq=seq_b, expires=10.0)
            if not (seq_a == seq_b and hops_a == hops_b):
                assert not (b.fresher_than(seq_a, hops_a)
                            and (seq_b, hops_b) != (seq_a, hops_a)) or (
                    seq_a == seq_b
                )

    @given(seq=st.integers(0, 100), hops=st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_equal_update_never_beats_valid_entry(self, seq, hops):
        entry = AodvRouteEntry(dest=1, next_hop=2, hops=hops, seq=seq, expires=10.0)
        assert entry.fresher_than(seq, hops)
