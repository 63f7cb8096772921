"""Simulator oracles: the plain event loop and the naive neighbor scan.

``HeapSimulator`` is the oracle for the shipped ``Simulator.run``;
:func:`scan_neighbors` is the oracle for the medium's grid neighbor path.
"""

from __future__ import annotations

import heapq
import math

from repro.simulation.engine import Event, Simulator


class HeapSimulator(Simulator):
    """The oracle kernel: peek the heap top, pop, dispatch, one at a time.

    The shipped :meth:`Simulator.run` dispatches a delivery batch's entries
    inline for as long as each precedes the heap top; here
    :meth:`schedule_batch` queues one plain event per entry at the entry's
    reserved ``(time, seq)`` key instead, so this loop sees every delivery
    as its own heap entry.  Its ``pending_events`` therefore counts a
    parked batch once per remaining entry, where the shipped kernel counts
    it once.
    """

    def schedule_batch(self, entries, packet, sender):
        for time, seq, handler in entries:
            event = Event(time, seq, handler, (packet, sender))
            heapq.heappush(self._heap, (time, seq, event))

    def run(self, until=None):
        heap = self._heap
        self._running = True
        try:
            while self._running and heap:
                event = heap[0][2]
                if event.cancelled:
                    heapq.heappop(heap)
                    continue
                if until is not None and event.time > until:
                    break
                heapq.heappop(heap)
                self.now = event.time
                self._processed += 1
                event.callback(*event.args)
            stopped = not self._running
        finally:
            self._running = False
        if until is not None and until > self.now and not stopped:
            self.now = until


def scan_neighbors(medium, node_id):
    """The naive O(N) neighbor scan: the oracle for ``WirelessMedium.neighbors``.

    Queries ``node_id`` first and then every attached node in ascending id
    order through ``position()`` — lazy advances draw waypoints from the
    shared RNG in exactly that order — and keeps every other node whose
    literal ``math.hypot`` distance is within ``tx_range``.
    """
    t = medium.sim.now
    position = medium.mobility.position
    x, y = position(node_id, t)
    result = []
    for other in range(len(medium.nodes)):
        if other == node_id:
            continue
        ox, oy = position(other, t)
        if math.hypot(ox - x, oy - y) <= medium.tx_range:
            result.append(other)
    return result
