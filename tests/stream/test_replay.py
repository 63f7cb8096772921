"""The one-sort replay cursor against the heap-merge oracle.

:class:`~repro.stream.replay.ReplayCursor` must make the identical
``(method, args)`` call sequence as ``tests/stream/reference.py``'s
heap-merge cursor, step for step, with the same ``position`` after every
step: on golden-corpus traces, on Hypothesis-built logs whose feeds and
ticks share timestamps, and from every ``skip`` of a small trace.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.packet import Direction, PacketType
from repro.simulation.stats import NodeStats, RouteEventKind
from repro.stream.replay import ReplayCursor, replay_trace

from tests.simulation.test_trace_golden import GOLDEN, run
from tests.stream.reference import CallRecorder, ReferenceReplayCursor


def stepped(cursor_cls, trace, monitor, skip=0):
    """Every call a cursor makes, and its position after each step."""
    tap = CallRecorder(monitor)
    cursor = cursor_cls(trace, tap, skip=skip)
    positions = [cursor.position]
    while cursor.step_tick():
        positions.append(cursor.position)
    positions.append(cursor.position)
    return tap.calls, positions


def assert_same_replay(trace, monitor, skip=0):
    shipped = stepped(ReplayCursor, trace, monitor, skip)
    reference = stepped(ReferenceReplayCursor, trace, monitor, skip)
    assert shipped == reference
    # Equal and of the same type: an enum stays an enum, a float a float.
    for (_, ours), (_, theirs) in zip(shipped[0], reference[0]):
        assert [type(a) for a in ours] == [type(a) for a in theirs]


#: The golden corpus at the paper's 20 nodes, every protocol.
PAPER_CASES = sorted(case for case, (fields, _, _) in GOLDEN.items()
                     if fields["n_nodes"] == 20)


@pytest.fixture(scope="module", params=PAPER_CASES)
def golden_trace(request):
    return run(request.param)[0]


def test_golden_corpus_replays_call_for_call(golden_trace):
    for monitor in (0, 7, golden_trace.n_nodes - 1):
        assert_same_replay(golden_trace, monitor)


#: A handful of timestamps, so feeds and ticks collide often.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0])


@st.composite
def tied_traces(draw):
    """A one-node trace whose every feed is sorted and tie-heavy."""
    stats = NodeStats(0)
    for ptype in PacketType:
        for direction in Direction:
            for t in sorted(draw(st.lists(TIMES, max_size=4))):
                stats.log_packet(t, ptype, direction)
    for kind in RouteEventKind:
        for t in sorted(draw(st.lists(TIMES, max_size=4))):
            stats.log_route_event(t, kind)
    samples = draw(st.lists(st.tuples(TIMES, st.integers(1, 9)), max_size=6))
    for t, hops in sorted(samples, key=lambda s: s[0]):
        stats.log_route_length(t, hops)
    ticks = sorted(draw(st.lists(TIMES, max_size=6)))
    return SimpleNamespace(
        n_nodes=1, recorder=[stats], tick_times=ticks,
        speeds=[[float(k)] for k in range(len(ticks))],
    )


@settings(max_examples=60, deadline=None)
@given(trace=tied_traces())
def test_ties_across_feeds_and_ticks_dispatch_like_the_heap_merge(trace):
    assert_same_replay(trace, 0)


@settings(max_examples=10, deadline=None)
@given(trace=tied_traces())
def test_every_skip_resumes_like_the_heap_merge(trace):
    n_items = replay_trace(trace, CallRecorder(0))
    for skip in range(n_items + 1):
        assert_same_replay(trace, 0, skip)
    with pytest.raises(ValueError, match="skip"):
        ReplayCursor(trace, CallRecorder(0), skip=n_items + 1)


def test_skips_across_a_recorded_trace(aodv_udp_trace):
    n_items = replay_trace(aodv_udp_trace, CallRecorder(3))
    for skip in range(0, n_items + 1, 97):
        assert_same_replay(aodv_udp_trace, 3, skip)
    assert_same_replay(aodv_udp_trace, 3, n_items)


@pytest.mark.parametrize("skip", [float("nan"), 2.5, -1, True, "3", "past-the-end"])
def test_bad_skip_rejected_by_name(aodv_udp_trace, skip):
    if skip == "past-the-end":
        skip = replay_trace(aodv_udp_trace, CallRecorder(0)) + 1
    with pytest.raises(ValueError, match="skip"):
        replay_trace(aodv_udp_trace, CallRecorder(0), skip=skip)
