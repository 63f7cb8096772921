"""Incremental per-stream window state — the streaming extractor's core.

Each ring holds one event-time stream (one Table 5 ``(packet type,
direction)`` combo, one Table 4 route-event kind, or the route-length
samples) and answers the same window queries the batch extractor computes
with :func:`numpy.searchsorted` over the completed trace — **bit-identically**.

The identity argument, operation by operation:

* the batch inter-packet-interval statistics are prefix sums:
  ``s1 = cumsum(diff(times))`` and ``s2 = cumsum(diff(times)**2)``.
  ``numpy.cumsum`` over a 1-D float64 array is a *sequential*
  left-to-right accumulation, so a running Python-float accumulator
  (``s += d``; ``s2 += d * d`` with ``d = t - last_t``) performs the
  exact same IEEE-754 additions in the exact same order and lands on the
  same bits.  Each ring therefore stores, alongside every retained event
  time, the value the global prefix sum had *at that event's index*;
* a window query then evaluates ``s1[hi-1] - s1[lo]`` etc. with plain
  float subtraction/division — the same scalar operations numpy applies
  elementwise in the batch path (``math.sqrt`` and ``numpy.sqrt`` are
  both correctly rounded);
* counts are pure ``bisect`` index arithmetic — no floating point at all;
* events at equal times may arrive in a different order than the batch
  path's per-type concatenation + mergesort produces, but equal-valued
  entries are interchangeable: the merged *value sequence* is identical,
  hence so are the diffs.

Memory stays bounded: once the clock passes a window end ``t``, no later
query can reach events at or before ``t - max_period``, so they are
evicted (their contribution lives on in the running prefix values).
Amortised cost is O(1) per event and O(log window) per query.
"""

from __future__ import annotations

from bisect import bisect_right

from math import sqrt

#: Compact the backing lists when at least this many evicted slots have
#: accumulated (and they outnumber the live entries).
_COMPACT_THRESHOLD = 256


class EventRing:
    """One event-time stream with O(1) pushes and windowed count/IAT-std.

    Parameters
    ----------
    max_period:
        The largest sampling period any query will use; events older than
        ``newest query time - max_period`` are evicted.
    """

    __slots__ = ("max_period", "_times", "_s1", "_s2", "_head", "_evicted",
                 "_n", "_last_time", "_s1_last", "_s2_last")

    def __init__(self, max_period: float):
        self.max_period = float(max_period)
        self._times: list[float] = []   # retained event times
        self._s1: list[float] = []      # global diff-prefix value at each index
        self._s2: list[float] = []      # global squared-diff prefix value
        self._head = 0                  # first live slot in the backing lists
        self._evicted = 0               # events dropped off the front (global)
        self._n = 0                     # total events ever pushed
        self._last_time = 0.0
        self._s1_last = 0.0             # prefix values at index _n - 1
        self._s2_last = 0.0

    def __len__(self) -> int:
        return self._n

    def push(self, t: float) -> None:
        """Append one event (times must be non-decreasing)."""
        t = float(t)
        if self._n == 0:
            s1v = s2v = 0.0
        else:
            if t < self._last_time:
                raise ValueError(
                    f"event time {t} precedes previous event {self._last_time}"
                )
            # Same float ops, same order as diff -> cumsum in the batch path.
            d = t - self._last_time
            s1v = self._s1_last + d
            s2v = self._s2_last + d * d
        self._times.append(t)
        self._s1.append(s1v)
        self._s2.append(s2v)
        self._last_time = t
        self._s1_last = s1v
        self._s2_last = s2v
        self._n += 1

    # ------------------------------------------------------------------
    # Window queries (window = half-open interval (tick - period, tick])
    # ------------------------------------------------------------------
    def _lo(self, tick: float, period: float) -> int:
        """Global index of the first event inside the window."""
        # Matches searchsorted(times, tick - period, side="right"): the
        # threshold subtraction is the identical float64 operation.
        # bisect returns a *list* position; evicted-but-uncompacted slots
        # before _head are already counted in _evicted, so convert via
        # (global index) = (list position) - _head + _evicted.
        return self._evicted - self._head + bisect_right(
            self._times, tick - period, self._head
        )

    def count(self, tick: float, period: float) -> float:
        """Event count in the window, as the batch path's float."""
        # hi == _n: every pushed event has time <= tick by the time a
        # window ending at `tick` is finalised (the extractor guarantees
        # ingest order), so searchsorted(times, tick, "right") == len.
        return float(self._n - self._lo(tick, period))

    def iat_std(self, tick: float, period: float) -> float:
        """Std of inter-packet intervals fully inside the window.

        Bit-identical to the batch ``_window_iat_std`` cell: windows with
        fewer than two whole intervals yield 0.0.
        """
        lo = self._lo(tick, period)
        n_int = self._n - 1 - lo
        if n_int < 2:
            return 0.0
        j = lo - self._evicted + self._head
        total = self._s1_last - self._s1[j]
        total_sq = self._s2_last - self._s2[j]
        k = float(n_int)
        mean = total / k
        var = total_sq / k - mean * mean
        if var < 0.0:
            var = 0.0
        return sqrt(var)

    # ------------------------------------------------------------------
    def evict_before(self, tick: float) -> None:
        """Drop events no future window ending at ``>= tick`` can reach."""
        threshold = tick - self.max_period
        head, times = self._head, self._times
        end = len(times)
        while head < end and times[head] <= threshold:
            head += 1
        self._evicted += head - self._head
        self._head = head
        if head >= _COMPACT_THRESHOLD and head * 2 >= len(times):
            del self._times[:head]
            del self._s1[:head]
            del self._s2[:head]
            self._head = 0

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Full ring state as plain Python values (checkpointable)."""
        return {
            "max_period": self.max_period,
            "times": list(self._times),
            "s1": list(self._s1),
            "s2": list(self._s2),
            "head": self._head,
            "evicted": self._evicted,
            "n": self._n,
            "last_time": self._last_time,
            "s1_last": self._s1_last,
            "s2_last": self._s2_last,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot`, replacing all current state."""
        self.max_period = state["max_period"]
        self._times = list(state["times"])
        self._s1 = list(state["s1"])
        self._s2 = list(state["s2"])
        self._head = state["head"]
        self._evicted = state["evicted"]
        self._n = state["n"]
        self._last_time = state["last_time"]
        self._s1_last = state["s1_last"]
        self._s2_last = state["s2_last"]


class RouteLengthRing:
    """Windowed mean hop count with the batch path's carry-forward.

    Mirrors the ``average_route_length`` column of
    :func:`repro.features.topology.topology_features`: a running float
    prefix over the hop counts (identical to the batch ``cumsum``), a
    per-window ``(prefix[hi] - prefix[lo]) / count`` mean, and the
    previous window's value carried into sample-free windows.
    """

    __slots__ = ("max_period", "_times", "_prefix", "_head", "_evicted",
                 "_n", "_prefix_last", "_evicted_prefix", "_carry")

    def __init__(self, max_period: float):
        self.max_period = float(max_period)
        self._times: list[float] = []
        self._prefix: list[float] = []  # prefix value *after* each sample
        self._head = 0
        self._evicted = 0
        self._n = 0
        self._prefix_last = 0.0
        self._evicted_prefix = 0.0      # prefix value after the last evicted sample
        self._carry = 0.0               # previous window's average (starts at 0)

    def push(self, t: float, hops: int) -> None:
        """Append one (time, hop count) route-use sample."""
        t = float(t)
        if self._n and t < self._times[-1]:
            raise ValueError(
                f"sample time {t} precedes previous sample {self._times[-1]}"
            )
        self._prefix_last = self._prefix_last + float(hops)
        self._times.append(t)
        self._prefix.append(self._prefix_last)
        self._n += 1

    def average(self, tick: float, period: float) -> float:
        """Mean hop count in the window; carries forward when empty."""
        lo = self._evicted - self._head + bisect_right(
            self._times, tick - period, self._head
        )
        count = self._n - lo
        if count > 0:
            if lo == self._evicted:
                prefix_lo = self._evicted_prefix
            else:
                prefix_lo = self._prefix[lo - 1 - self._evicted + self._head]
            self._carry = (self._prefix_last - prefix_lo) / count
        return self._carry

    def evict_before(self, tick: float) -> None:
        """Drop samples older than any future window can reach."""
        threshold = tick - self.max_period
        head, times = self._head, self._times
        end = len(times)
        while head < end and times[head] <= threshold:
            head += 1
        if head > self._head:
            self._evicted += head - self._head
            self._evicted_prefix = self._prefix[head - 1]
            self._head = head
        if head >= _COMPACT_THRESHOLD and head * 2 >= len(times):
            # Keep the newest sample's slot even when it is evicted: push
            # orders new samples against ``_times[-1]``.
            cut = min(head, end - 1)
            del self._times[:cut]
            del self._prefix[:cut]
            self._head = head - cut

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Full ring state as plain Python values (checkpointable)."""
        return {
            "max_period": self.max_period,
            "times": list(self._times),
            "prefix": list(self._prefix),
            "head": self._head,
            "evicted": self._evicted,
            "n": self._n,
            "prefix_last": self._prefix_last,
            "evicted_prefix": self._evicted_prefix,
            "carry": self._carry,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot`, replacing all current state."""
        self.max_period = state["max_period"]
        self._times = list(state["times"])
        self._prefix = list(state["prefix"])
        self._head = state["head"]
        self._evicted = state["evicted"]
        self._n = state["n"]
        self._prefix_last = state["prefix_last"]
        self._evicted_prefix = state["evicted_prefix"]
        self._carry = state["carry"]
