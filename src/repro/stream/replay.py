"""Replay a recorded trace through window taps.

A completed :class:`~repro.simulation.scenario.SimulationTrace` holds the
monitor's full event log; :func:`replay_trace` feeds it to a tap in the
exact order the live scenario would have — events in time order, each
sampling tick after the events sharing its timestamp (the paper's windows
are ``(t - period, t]``, closed on the right) and before anything later.
Streamed output is therefore bit-identical whether the tap rode the live
run or a replay of its trace.

Uses: regression-test streamed pipelines against cached traces without
re-simulating, benchmark detection throughput on a fixed workload, and —
because the merged dispatch order is *deterministic* (each source list
is insertion-ordered and the merge is total-ordered by ``(time, rank,
seq)``) — anchor the durable-run resume contract: a position counted in
dispatched merge items means the same thing in every replay of the same
trace, so :mod:`repro.stream.durability` can checkpoint "N items in" and
skip exactly N on resume.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.simulation.packet import Direction, PacketType
from repro.simulation.scenario import SimulationTrace
from repro.simulation.stats import RouteEventKind

#: Tie-break ranks: at one timestamp, events precede the tick.
_EVENT, _TICK = 0, 1


def _event_feed(trace: SimulationTrace, monitor: int) -> Iterator[tuple]:
    """All monitor-local events as (time, rank, seq, kind, payload).

    Feeds are materialised eagerly (each source list is already sorted);
    the per-feed ``seq`` keeps the merge total-ordered and deterministic.
    """
    stats = trace.recorder[monitor]
    feeds: list[Iterable[tuple]] = []
    seq = 0
    for (pt, dr), times in stats.packet_times.items():
        payload = (PacketType(pt), Direction(dr))
        feeds.append(
            [(t, _EVENT, seq + i, "packet", payload) for i, t in enumerate(times)]
        )
        seq += len(times)
    for kind, times in stats.route_times.items():
        route_kind = RouteEventKind(kind)
        feeds.append(
            [(t, _EVENT, seq + i, "route", route_kind) for i, t in enumerate(times)]
        )
        seq += len(times)
    feeds.append(
        [
            (t, _EVENT, seq + i, "length", hops)
            for i, (t, hops) in enumerate(stats.route_length_samples)
        ]
    )
    return heapq.merge(*feeds)


def replay_trace(trace: SimulationTrace, tap, skip: int = 0) -> int:
    """Drive one window tap with a recorded trace, live-order faithful.

    ``tap`` follows the scenario tap protocol (``monitor``, ``on_tick``,
    ``finish`` and the ``NodeStats`` listener methods); it is fed
    directly — no ``bind`` — so the same tap class serves both live runs
    and replays.  ``skip`` fast-forwards past the first N merged items
    without dispatching them (see :class:`ReplayCursor`, which this
    drives to the end).  Returns the final merge position.
    """
    cursor = ReplayCursor(trace, tap, skip=skip)
    while cursor.step_tick():
        pass
    return cursor.position


class ReplayCursor:
    """One lane's merged feed, dispatched one tick segment per step.

    :func:`replay_trace` drives one cursor to the end; the durable
    drivers step several in rounds, because durable *fleet* replay needs
    all lanes advancing together — a lane replayed to completion while
    its peers sit at time zero would look stalled to the fleet's
    liveness policy and wedge the watermark.  Each :meth:`step_tick`
    dispatches merged items up to and including the next sampling tick
    (or the end of the trace, when it calls ``tap.finish()`` and marks
    the cursor done).

    ``skip`` fast-forwards past already-applied items on resume;
    ``position`` is the absolute merge position a checkpoint records.
    """

    def __init__(self, trace: SimulationTrace, tap, skip: int = 0):
        monitor = tap.monitor
        if not 0 <= monitor < trace.n_nodes:
            raise ValueError(f"tap monitor {monitor} out of range")
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        self.tap = tap
        self.position = 0
        self.done = False
        ticks = [
            (t, _TICK, i, "tick", speeds[monitor])
            for i, (t, speeds) in enumerate(zip(trace.tick_times, trace.speeds))
        ]
        self._merged = heapq.merge(_event_feed(trace, monitor), ticks)
        while self.position < skip and next(self._merged, None) is not None:
            self.position += 1

    def step_tick(self) -> bool:
        """Dispatch up to (and including) the next sampling tick.

        Returns ``True`` while the trace has more to deliver; on
        exhaustion it calls ``tap.finish()`` once, marks the cursor
        ``done`` and returns ``False``.
        """
        if self.done:
            return False
        tap = self.tap
        for time, _rank, _seq, kind, payload in self._merged:
            if kind == "packet":
                tap.on_packet(time, *payload)
            elif kind == "route":
                tap.on_route_event(time, payload)
            elif kind == "length":
                tap.on_route_length(time, payload)
            else:
                tap.on_tick(time, payload)
            self.position += 1
            if kind == "tick":
                return True
        self.done = True
        tap.finish()
        return False
