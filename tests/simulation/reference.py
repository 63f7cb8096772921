"""Reference event kernel: the oracle for the shipped ``Simulator.run``."""

from __future__ import annotations

import heapq

from repro.simulation.engine import Simulator


class HeapSimulator(Simulator):
    """The oracle kernel: peek the heap top, pop, dispatch, one at a time.

    The shipped :meth:`Simulator.run` drains near-future events into a
    sorted bucket lane; this is the plain binary-heap loop whose
    ``(time, seq)`` order it must reproduce.
    Outside ``Simulator.run`` the lane is closed, so every ``schedule*``
    call lands on the heap and this loop sees the complete queue.  Macro
    events (the medium's delivery batches) are not supported.
    """

    def run(self, until=None):
        heap = self._heap
        pool = self._event_pool
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
                event._queued = False
                self._pending -= 1
                self.now = event.time
                self._processed += 1
                event.callback(*event.args)
                if event._transient and not event._queued:
                    event.callback = None
                    event.args = ()
                    pool.append(event)
        finally:
            self._running = False
        if until is not None and until > self.now:
            self.now = until
