"""Host-speed probe: turn wall-clock intervals into reference-speed seconds.

The benchmark runs on a shared virtual machine whose speed is not
constant: the same code runs at full speed for a few seconds, then about
1.5x slower for a few seconds to a minute, as other tenants load the
physical cores.  No hypervisor counter (steal time, CPU time) shows it,
so a 15 s run's plain wall-clock median moves by 10-45 % from run to
run, whichever statistic is taken.

:class:`SpeedProbe` measures the host's speed while the workload runs.
Every :data:`INTERVAL_S` of wall time ``SIGALRM`` interrupts the
workload and the handler times :func:`probe_work`, a fixed piece of
object, dict and small-array numpy work written in ``bench/`` (so no
change to the program under test can alter it).  The ratio
:data:`REFERENCE_PROBE_S` / (probe duration) is the host's speed at that
moment relative to the reference host at full speed.
:meth:`SpeedProbe.normalize` charges each interval of wall time at the
speed of the probes around it, which gives the seconds the interval
would have taken on the reference host at full speed; the probes' own
time inside the interval is taken out first.

The probe's slowdown is not exactly the workload's (code mixes suffer
differently), so normalised times keep a few percent of the host's
noise instead of all of it; see ``bench/README.md``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Wall seconds between probes.
INTERVAL_S = 0.05
#: Probes this many seconds either side of an interval also count for it,
#: so that a request shorter than :data:`INTERVAL_S` has a probe.
MARGIN_S = 0.05
#: Seconds :func:`probe_work` takes on the reference host (2-CPU x86_64
#: virtual machine, Python 3.11, numpy 2.4) at full speed: the 5th
#: percentile of its duration over ten minutes of benchmark runs.
REFERENCE_PROBE_S = 1.2e-4


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = key * 0.5


_CELLS = [_Cell(i) for i in range(512)]
_WEIGHTS = np.random.default_rng(1).random(140)
_BINS = np.arange(140) % 7


def probe_work() -> float:
    """The fixed probe: attribute and dict traffic, then small numpy calls."""
    table: dict[int, float] = {}
    acc = 0.0
    for cell in _CELLS:
        table[cell.key & 63] = cell.value
        acc += cell.value
    for cell in _CELLS:
        acc += table[cell.key & 63]
    for _ in range(40):
        acc += float(np.bincount(_BINS, weights=_WEIGHTS).sum())
    return acc


class SpeedProbe:
    """Context manager timing :func:`probe_work` every :data:`INTERVAL_S`.

    Only the main thread may enter it (``SIGALRM``).  Python runs the
    handler between bytecodes, so a probe is late by at most one native
    call; the probe times only itself, so lateness does not bias it.
    """

    def __init__(self):
        #: ``perf_counter`` at the start and end of every handler call.
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: Seconds of the timed :func:`probe_work` of every call.
        self.durations: list[float] = []
        self._previous = None

    def _handle(self, signum, frame) -> None:
        # The first call brings the probe's code and data back into the
        # caches the workload evicted, so that the timed second call
        # measures the host rather than the workload's memory footprint.
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        probe_work()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t2 - t1)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, t0, t1) -> np.ndarray:
        """Reference-speed seconds of the wall intervals ``[t0, t1]``.

        ``t0`` and ``t1`` are ``time.perf_counter()`` readings (scalars or
        arrays of equal shape).  Each interval loses the probes that
        started inside it and is scaled by the mean speed of the probes
        that started within :data:`MARGIN_S` of it, or of the nearest
        earlier probe when none did.
        """
        if not self.starts:
            raise ValueError("no probe ran; the interval cannot be normalised")
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        starts = np.asarray(self.starts)
        inside = np.concatenate([[0.0], np.cumsum(np.asarray(self.ends) - starts)])
        speeds = np.concatenate([[0.0], np.cumsum(REFERENCE_PROBE_S / np.asarray(self.durations))])

        first, last = np.searchsorted(starts, t0), np.searchsorted(starts, t1)
        lo = np.searchsorted(starts, t0 - MARGIN_S)
        hi = np.searchsorted(starts, t1 + MARGIN_S)
        empty = hi == lo
        lo = np.where(empty, np.clip(lo - 1, 0, len(starts) - 1), lo)
        hi = np.where(empty, lo + 1, hi)
        busy = (t1 - t0) - (inside[last] - inside[first])
        return busy * (speeds[hi] - speeds[lo]) / (hi - lo)
