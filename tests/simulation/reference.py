"""Reference event kernel: the oracle for the shipped ``Simulator.run``."""

from __future__ import annotations

import heapq

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
