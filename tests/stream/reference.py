"""Reference replay cursor: the oracle for the shipped one-sort dispatch.

:class:`ReferenceReplayCursor` is the heap-merge cursor that
:class:`~repro.stream.replay.ReplayCursor` replaced.  It builds one
``(time, rank, seq, kind, payload)`` tuple per monitor-local event, merges
the per-feed lists with :func:`heapq.merge`, merges that with the
sampling ticks, and dispatches by comparing the ``kind`` string.  Its
``(time, rank, seq)`` order is the definition the shipped stable sort
reproduces; ``position`` counts dispatched merge items in both.

:class:`CallRecorder` is a tap that records every ``(method, args)``
call, so two cursors can be compared call for call.
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
    """All monitor-local events as (time, rank, seq, kind, payload)."""
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


class ReferenceReplayCursor:
    """The heap-merge cursor, one tick segment per :meth:`step_tick`."""

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


def reference_replay(trace: SimulationTrace, tap, skip: int = 0) -> int:
    """:func:`~repro.stream.replay.replay_trace` over the reference cursor."""
    cursor = ReferenceReplayCursor(trace, tap, skip=skip)
    while cursor.step_tick():
        pass
    return cursor.position


class CallRecorder:
    """A tap that records each call as ``(method, args)``."""

    def __init__(self, monitor: int = 0):
        self.monitor = monitor
        self.calls: list[tuple[str, tuple]] = []

    def on_packet(self, time, ptype, direction):
        self.calls.append(("on_packet", (time, ptype, direction)))

    def on_route_event(self, time, kind):
        self.calls.append(("on_route_event", (time, kind)))

    def on_route_length(self, time, hops):
        self.calls.append(("on_route_length", (time, hops)))

    def on_tick(self, time, speed):
        self.calls.append(("on_tick", (time, speed)))

    def finish(self):
        self.calls.append(("finish", ()))
