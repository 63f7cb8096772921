"""Replay a recorded trace through window taps.

A completed :class:`~repro.simulation.scenario.SimulationTrace` holds the
monitor's full event log; :func:`replay_trace` feeds it to a tap in the
exact order the live scenario would have — events in time order, each
sampling tick after the events sharing its timestamp (the paper's windows
are ``(t - period, t]``, closed on the right) and before anything later.
Streamed output is therefore bit-identical whether the tap rode the live
run or a replay of its trace.

The dispatch order comes from one stable sort.  Every feed's times are
concatenated in a fixed order — the packet feeds, the route-event feeds,
the route-length samples, then the sampling ticks — and sorted with a
stable ``argsort``: equal times keep concatenation order, so at one
timestamp the events precede the tick, and the order is total by
``(time, rank, seq)`` (rank 0 for events, 1 for ticks; ``seq`` the
concatenation index).  Each source list is insertion-ordered, so the
order is *deterministic*.

Uses: regression-test streamed pipelines against cached traces without
re-simulating, benchmark detection throughput on a fixed workload, and
anchor the durable-run resume contract: a position counted in
dispatched items means the same thing in every replay of the same
trace, so :mod:`repro.stream.durability` can checkpoint "N items in" and
skip exactly N on resume.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.checks import check_int
from repro.simulation.packet import Direction, PacketType
from repro.simulation.scenario import SimulationTrace
from repro.simulation.stats import RouteEventKind


def replay_trace(trace: SimulationTrace, tap, skip: int = 0) -> int:
    """Drive one window tap with a recorded trace, live-order faithful.

    ``tap`` follows the scenario tap protocol (``monitor``, ``on_tick``,
    ``finish`` and the ``NodeStats`` listener methods); it is fed
    directly — no ``bind`` — so the same tap class serves both live runs
    and replays.  ``skip`` fast-forwards past the first N items without
    dispatching them (see :class:`ReplayCursor`, which this drives to
    the end).  Returns the final position.
    """
    cursor = ReplayCursor(trace, tap, skip=skip)
    while cursor.step_tick():
        pass
    return cursor.position


class ReplayCursor:
    """One lane's ordered feed, dispatched one tick segment per step.

    :func:`replay_trace` drives one cursor to the end; the durable
    drivers step several in rounds, because durable *fleet* replay needs
    all lanes advancing together — a lane replayed to completion while
    its peers sit at time zero would look stalled to the fleet's
    liveness policy and wedge the watermark.  Each :meth:`step_tick`
    dispatches items up to and including the next sampling tick (or the
    end of the trace, when it calls ``tap.finish()`` and marks the
    cursor done).

    ``skip`` fast-forwards past already-applied items on resume: an int
    from 0 to the trace's item count.  ``position`` is the absolute
    position a checkpoint records: the number of items dispatched.
    """

    def __init__(self, trace: SimulationTrace, tap, skip: int = 0):
        monitor = tap.monitor
        if not 0 <= monitor < trace.n_nodes:
            raise ValueError(f"tap monitor {monitor} out of range")
        stats = trace.recorder[monitor]
        packet_feeds = list(stats.packet_times.items())
        route_feeds = list(stats.route_times.items())
        samples = stats.route_length_samples
        # Item codes index ``feeds``: one per packet feed, one per route
        # kind, then the route-length samples and the ticks.
        feeds = [times for _, times in packet_feeds + route_feeds]
        feeds += [[t for t, _ in samples], trace.tick_times]
        flat = list(chain.from_iterable(feeds))
        check_int("skip", skip, 0, len(flat))
        codes = np.repeat(np.arange(len(feeds)), [len(f) for f in feeds])
        # Ticks are concatenated last, so the stable sort puts each one
        # after every event sharing its timestamp.
        order = np.argsort(np.array(flat, dtype=float), kind="stable")
        codes = codes[order]
        tick = len(feeds) - 1
        self._length = tick - 1
        self._times = list(map(flat.__getitem__, order.tolist()))
        self._codes = codes.tolist()
        self._packet_args = [
            (PacketType(pt), Direction(dr)) for (pt, dr), _ in packet_feeds
        ]
        self._route_kinds = [None] * len(packet_feeds) + [
            RouteEventKind(kind) for kind, _ in route_feeds
        ]
        self._hops = [hops for _, hops in samples]
        self._speeds = [speeds[monitor] for speeds in trace.speeds]
        self._tick_at = np.flatnonzero(codes == tick).tolist()

        self.tap = tap
        self.position = int(skip)
        self.done = False
        head = codes[: self.position]
        self._next_tick = int(np.count_nonzero(head == tick))
        self._next_length = int(np.count_nonzero(head == self._length))

    def step_tick(self) -> bool:
        """Dispatch up to (and including) the next sampling tick.

        Returns ``True`` while the trace has more to deliver; on
        exhaustion it calls ``tap.finish()`` once, marks the cursor
        ``done`` and returns ``False``.
        """
        if self.done:
            return False
        tap = self.tap
        codes, times = self._codes, self._times
        k = self._next_tick
        end = self._tick_at[k] if k < len(self._tick_at) else len(codes)
        n_packet, length = len(self._packet_args), self._length
        packet_args, route_kinds, hops = self._packet_args, self._route_kinds, self._hops
        on_packet, on_route_event = tap.on_packet, tap.on_route_event
        on_route_length = tap.on_route_length
        m = self._next_length
        i = self.position
        try:
            for i in range(self.position, end):
                c = codes[i]
                if c < n_packet:
                    ptype, direction = packet_args[c]
                    on_packet(times[i], ptype, direction)
                elif c == length:
                    on_route_length(times[i], hops[m])
                    m += 1
                else:
                    on_route_event(times[i], route_kinds[c])
        except BaseException:
            # ``position`` counts completed dispatches, whatever raised.
            self.position, self._next_length = i, m
            raise
        self._next_length = m
        if end < len(codes):
            self.position = end
            tap.on_tick(times[end], self._speeds[k])
            self.position = end + 1
            self._next_tick = k + 1
            return True
        self.position = end
        self.done = True
        tap.finish()
        return False
