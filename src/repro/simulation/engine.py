"""Discrete-event simulation kernel.

A minimal, deterministic event scheduler: one binary heap of
``(time, seq, event)`` tuples.  Ties on time break by insertion order, so a
run is fully reproducible for a fixed seed.  Cancellation is lazy —
cancelled events stay in the heap and are skipped when popped — which keeps
``schedule`` O(log n) and ``cancel`` O(1).

One mechanism sits on top of the heap: a :class:`MacroEvent` folds a
broadcast's whole fan-out into one queue entry (see DESIGN.md §Event
kernel).  Its deliveries carry ``(time, seq)`` keys reserved at fan-out
time, and the run loop dispatches them inline for as long as the next one
precedes the heap top, so the executed order is exactly the total
``(time, seq)`` order one event per delivery would give.  That plain
per-event heap loop is the test oracle (``tests/simulation/reference.py``).
"""

from __future__ import annotations

import gc
import heapq
import math
import random
from typing import Any, Callable


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Instances are handles: hold one to :meth:`cancel` the event later.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    #: Class flag: True only for :class:`MacroEvent` (read on the hot path,
    #: so a class attribute rather than an isinstance check).
    _macro = False

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class MacroEvent(Event):
    """A batch of same-origin deliveries executed as one queue entry.

    ``entries`` is a sorted list of ``(time, seq, handler)`` triples whose
    seqs were reserved from the simulator's counter at fan-out time, so the
    batch occupies exactly the ``(time, seq)`` keys the equivalent
    per-receiver events would have.  ``handler(packet, sender)`` is called
    for each entry (``args`` holds the pair); the run loop dispatches consecutive entries inline while
    the next entry still precedes every other queued event, and otherwise
    pushes the batch back at the next entry's key.  ``time``, ``seq`` and
    ``cursor`` name that next entry.
    """

    __slots__ = ("entries", "cursor")

    _macro = True

    def __init__(self, entries: list[tuple[float, int, Callable[..., Any]]],
                 args: tuple):
        time, seq, _ = entries[0]
        super().__init__(time, seq, None, args)
        self.entries = entries
        self.cursor = 0


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All stochastic
        components (mobility, medium jitter, traffic, attacks) draw from this
        generator so a scenario is reproducible from its seed alone.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # Negated so a NaN delay fails the check too, at no extra cost.
        if not delay >= 0:
            raise ValueError(f"delay must be a non-negative number: {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if not time >= self.now:  # also rejects NaN, which compares False
            raise ValueError(f"cannot schedule at {time}: not >= now ({self.now})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        # Queue entries are (time, seq, event) tuples: the (time, seq) pair
        # is unique, so ordering is identical to comparing Event objects,
        # but tuple comparisons run at C speed instead of Event.__lt__.
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_batch(self, entries: list[tuple[float, int, Callable[..., Any]]],
                       packet: Any, sender: int) -> None:
        """Queue a delivery batch as one entry at its head entry's key.

        ``entries`` is a non-empty list of ``(time, seq, handler)`` triples
        sorted by ``(time, seq)``, whose seqs the caller reserved from
        ``_seq`` (one per delivery, as one ``schedule_at`` each would have).
        Each ``handler(packet, sender)`` runs at its entry's key.
        """
        time, seq, _ = entries[0]
        if not time >= self.now:  # also rejects NaN, which compares False
            raise ValueError(f"cannot schedule at {time}: not >= now ({self.now})")
        heapq.heappush(self._heap, (time, seq, MacroEvent(entries, (packet, sender))))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Process events in ``(time, seq)`` order.

        Runs until the queue is empty, until simulation time would exceed
        ``until``, or until :meth:`stop`.  When stopped by ``until`` (or an
        empty queue before it), ``now`` is advanced to exactly ``until`` so
        periodic processes restarted afterwards stay aligned; after
        :meth:`stop` it stays at the stopping event's time, so the events
        still queued can run later without the clock going backwards.
        """
        # Events are freed by refcount, so cyclic-GC generation scans are
        # pure overhead at millions of dispatches — pause the collector for
        # the duration of the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        self._running = True
        try:
            self._run_loop(math.inf if until is None else until)
            stopped = not self._running
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if until is not None and until > self.now and not stopped:
            self.now = until

    def _run_loop(self, until: float) -> None:
        """Dispatch queued events in ``(time, seq)`` order up to ``until``."""
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        while self._running and heap:
            entry = heappop(heap)
            time, _, event = entry
            if time > until:
                heappush(heap, entry)
                return
            if event.cancelled:
                continue
            self.now = time
            self._processed += 1
            if not event._macro:
                event.callback(*event.args)
                continue
            # Inline batch dispatch: run consecutive deliveries while the
            # next one still precedes every other queued event.
            entries = event.entries
            packet, sender = event.args
            i = event.cursor
            n = len(entries)
            while True:
                entries[i][2](packet, sender)
                i += 1
                if i == n:
                    break
                nxt = entries[i]
                if self._running and nxt[0] <= until and (not heap or nxt < heap[0]):
                    self.now = nxt[0]
                    self._processed += 1
                    continue
                event.time, event.seq, _ = nxt
                event.cursor = i
                heappush(heap, (nxt[0], nxt[1], event))
                break

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._running = False

    @property
    def pending_events(self) -> int:
        """Number of queued entries not cancelled.

        A parked delivery batch counts as one entry.  A scan of the heap:
        O(queue length), for tests and diagnostics.
        """
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far (deliveries included)."""
        return self._processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self.pending_events})"
