"""Incremental Feature Set I + II extraction from a live event stream.

A :class:`StreamingExtractor` is a *window tap*: bound to the monitor
node's :class:`~repro.simulation.stats.NodeStats` it consumes packet,
route-event and route-length events as they are logged, receives each
sampling tick from the scenario clock, and emits one :class:`WindowRow`
per closed window — the same ``(8 + 132)``-column vector the batch
:func:`repro.features.extraction.extract_features` computes from the
finished trace, **bit-identically** (see :mod:`repro.stream.ring` for the
arithmetic argument).

Window-close semantics: the paper's windows are half-open intervals
``(t - period, t]``, so events stamped *exactly* ``t`` belong to the
window ending at ``t`` — including events the simulator happens to
process after the tick callback in the same instant.  The extractor
therefore holds a tick *pending* until the stream proves time has moved
past it (the first event or tick strictly later than ``t``), then
finalises the row.  At most one window rides pending at a time in live
operation, and :meth:`finish` flushes the last one at trace end — a
window is never emitted early and never reordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.features.topology import TOPOLOGY_FEATURE_NAMES
from repro.features.traffic import (
    DEFAULT_SAMPLING_PERIODS,
    TrafficFeatureSpec,
    _CONTROL_TYPES,
    traffic_feature_grid,
)
from repro.simulation.packet import Direction, PacketType
from repro.simulation.stats import NodeStats, RouteEventKind
from repro.stream.ring import EventRing, RouteLengthRing

_DIRECTION_BY_VALUE = {int(d): d.name.lower() for d in Direction}
_NAMED_TYPES = {
    int(PacketType.DATA): "data",
    int(PacketType.RREQ): "rreq",
    int(PacketType.RREP): "rrep",
    int(PacketType.RERR): "rerr",
    int(PacketType.HELLO): "hello",
}
_CONTROL_VALUES = frozenset(int(pt) for pt in _CONTROL_TYPES)

_ROUTE_KIND_ORDER = (
    RouteEventKind.ADD,
    RouteEventKind.REMOVAL,
    RouteEventKind.FIND,
    RouteEventKind.NOTICE,
    RouteEventKind.REPAIR,
)


@dataclass(frozen=True)
class WindowRow:
    """One closed sampling window at the monitor node.

    ``features`` is the full Feature Set I + II vector in the exact column
    order of the batch extractor; ``index`` counts emitted rows (warmup
    windows are suppressed, matching the batch ``warmup`` filter).
    """

    index: int
    time: float
    monitor: int
    features: np.ndarray


class StreamingExtractor:
    """Window tap computing the paper's feature vector per closed window.

    Parameters
    ----------
    monitor:
        Node whose local stream is analysed.
    periods:
        Feature Set II sampling periods (paper: 5 s, 1 min, 15 min).
    sampling_period:
        The tick spacing / Feature Set I window (paper: 5 s); must match
        the scenario's ``sampling_period``.
    warmup:
        Suppress rows for windows ending before this time (the batch
        ``warmup`` filter); internal state still advances through them.
    on_row:
        Callback invoked with each emitted :class:`WindowRow` — wire an
        :class:`~repro.stream.detector.OnlineDetector` here.
    keep_rows:
        Also accumulate emitted rows on ``self.rows`` (default True;
        disable for unbounded deployments).
    """

    def __init__(
        self,
        monitor: int = 0,
        periods: tuple[float, ...] = DEFAULT_SAMPLING_PERIODS,
        sampling_period: float = 5.0,
        warmup: float = 0.0,
        on_row: Callable[[WindowRow], None] | None = None,
        keep_rows: bool = True,
    ):
        if monitor < 0:
            raise ValueError(f"monitor must be >= 0, got {monitor}")
        periods = tuple(periods)
        if not periods:
            raise ValueError("need at least one sampling period")
        # Negated comparisons, so NaN fails them too.
        if not all(0 < p < math.inf for p in periods):
            raise ValueError(f"periods must be positive and finite, got {periods!r}")
        if not 0 < sampling_period < math.inf:
            raise ValueError(
                f"sampling_period must be positive and finite, got {sampling_period!r}"
            )
        if not 0 <= warmup < math.inf:
            raise ValueError(f"warmup must be non-negative and finite, got {warmup!r}")
        self.monitor = monitor
        self.periods = tuple(float(p) for p in periods)
        self.sampling_period = float(sampling_period)
        self.warmup = float(warmup)
        self.on_row = on_row
        self.keep_rows = keep_rows
        self.rows: list[WindowRow] = []

        self._specs: list[TrafficFeatureSpec] = traffic_feature_grid(self.periods)
        self.feature_names: list[str] = list(TOPOLOGY_FEATURE_NAMES) + [
            spec.name for spec in self._specs
        ]
        max_period = max(self.periods)
        #: One ring per Table 5 (packet type, direction) combo.
        self._traffic: dict[tuple[str, str], EventRing] = {
            key: EventRing(max_period)
            for key in {(s.packet_type, s.direction) for s in self._specs}
        }
        #: Query plan: (ring, period, is_std) per traffic column, in order.
        self._traffic_plan = [
            (self._traffic[(s.packet_type, s.direction)], s.period, s.measure != "count")
            for s in self._specs
        ]
        self._route = {
            int(kind): EventRing(self.sampling_period) for kind in _ROUTE_KIND_ORDER
        }
        self._route_length = RouteLengthRing(self.sampling_period)

        self._pending: tuple[float, float] | None = None  # (tick, speed)
        self._last_event_time = float("-inf")
        self._emitted = 0
        self._windows_closed = 0
        self._stats: NodeStats | None = None

    # ------------------------------------------------------------------
    # Scenario-tap protocol
    # ------------------------------------------------------------------
    def bind(self, stats: NodeStats) -> None:
        """Subscribe to a node's live trace log.

        Atomic: every validation runs before any state changes, so a
        rejected bind leaves neither ``self._stats`` set nor a listener
        subscribed on the :class:`NodeStats`.
        """
        if self._stats is not None:
            raise RuntimeError("extractor is already bound to a NodeStats")
        if stats.node_id != self.monitor:
            raise ValueError(
                f"extractor monitors node {self.monitor}, got stats for "
                f"node {stats.node_id}"
            )
        stats.subscribe(self)
        self._stats = stats

    def unbind(self) -> None:
        """Detach from the bound node (e.g. after :meth:`finish`).

        Idempotent, and tolerant of a listener list the stats object
        rebuilt (e.g. after pickling): both sides end up detached.
        """
        stats, self._stats = self._stats, None
        if stats is not None:
            try:
                stats.unsubscribe(self)
            except ValueError:
                pass  # listener list was already rebuilt without us

    def on_tick(self, time: float, speed: float) -> None:
        """The scenario clock crossed a sampling instant."""
        t = float(time)
        if self._last_event_time > t:
            raise ValueError(
                f"tick at {t} arrived after an event at {self._last_event_time}"
            )
        self._advance_to(t)
        if self._pending is not None:
            raise ValueError(
                f"tick at {t} arrived while tick {self._pending[0]} is pending"
            )
        self._pending = (t, float(speed))

    def finish(self) -> None:
        """Trace end: flush the last pending window."""
        if self._pending is not None:
            self._close_window(*self._pending)
            self._pending = None

    # ------------------------------------------------------------------
    # NodeStats-listener protocol
    # ------------------------------------------------------------------
    def _ingest(self, time: float) -> None:
        """Common per-event bookkeeping: ordering + pending-tick closure."""
        self._advance_to(time)
        self._last_event_time = time

    def on_packet(self, time: float, ptype: PacketType, direction: Direction) -> None:
        """One packet event at the monitor, live from the recorder."""
        self._ingest(time)
        pt, dr = int(ptype), int(direction)
        dir_name = _DIRECTION_BY_VALUE[dr]
        if pt == int(PacketType.DATA):
            # The encapsulation fold: in-transit data activity counts as
            # "route (all)" only; end-to-end data keeps its own stream.
            if dr in (int(Direction.FORWARDED), int(Direction.DROPPED)):
                self._traffic[("route_all", dir_name)].push(time)
            else:
                self._traffic[("data", dir_name)].push(time)
            return
        if pt in _CONTROL_VALUES:
            self._traffic[("route_all", dir_name)].push(time)
        name = _NAMED_TYPES.get(pt)
        if name is not None:
            self._traffic[(name, dir_name)].push(time)

    def on_route_event(self, time: float, kind: RouteEventKind) -> None:
        """One route-fabric event (Feature Set I), live from the recorder."""
        self._ingest(time)
        self._route[int(kind)].push(time)

    def on_route_length(self, time: float, hops: int) -> None:
        """One route-use hop-count sample, live from the recorder."""
        self._ingest(time)
        self._route_length.push(time, hops)

    # ------------------------------------------------------------------
    # Window assembly
    # ------------------------------------------------------------------
    def _advance_to(self, time: float) -> None:
        """Anything strictly later than a pending tick closes its window."""
        if self._pending is not None and time > self._pending[0]:
            self._close_window(*self._pending)
            self._pending = None

    def _close_window(self, tick: float, speed: float) -> None:
        """Compute and emit the feature row for the window ending at ``tick``."""
        period = self.sampling_period
        values = np.empty(len(self.feature_names), dtype=float)
        # Feature Set I: velocity, five event counts, total change, length.
        values[0] = speed
        add = self._route[int(RouteEventKind.ADD)].count(tick, period)
        removal = self._route[int(RouteEventKind.REMOVAL)].count(tick, period)
        values[1] = add
        values[2] = removal
        values[3] = self._route[int(RouteEventKind.FIND)].count(tick, period)
        values[4] = self._route[int(RouteEventKind.NOTICE)].count(tick, period)
        values[5] = self._route[int(RouteEventKind.REPAIR)].count(tick, period)
        values[6] = add + removal
        values[7] = self._route_length.average(tick, period)
        # Feature Set II: the Table 5 grid, in spec order.
        for j, (ring, p, is_std) in enumerate(self._traffic_plan, start=8):
            values[j] = ring.iat_std(tick, p) if is_std else ring.count(tick, p)

        for ring in self._traffic.values():
            ring.evict_before(tick)
        for ring in self._route.values():
            ring.evict_before(tick)
        self._route_length.evict_before(tick)

        self._windows_closed += 1
        if tick < self.warmup:
            return
        row = WindowRow(
            index=self._emitted, time=tick, monitor=self.monitor, features=values
        )
        self._emitted += 1
        if self.keep_rows:
            self.rows.append(row)
        if self.on_row is not None:
            self.on_row(row)

    # ------------------------------------------------------------------
    # Batch views (for equivalence checks and small offline jobs)
    # ------------------------------------------------------------------
    @property
    def n_windows(self) -> int:
        """Windows closed so far (including warmup-suppressed ones)."""
        return self._windows_closed

    def to_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack the retained rows into ``(X, times)`` arrays.

        Requires ``keep_rows=True``; the stacked ``X`` is bit-identical
        to the batch extractor's matrix for the same trace and knobs.
        """
        if not self.keep_rows:
            raise RuntimeError("rows were not retained (keep_rows=False)")
        if not self.rows:
            n = len(self.feature_names)
            return np.empty((0, n), dtype=float), np.empty(0, dtype=float)
        X = np.vstack([row.features for row in self.rows])
        times = np.array([row.time for row in self.rows], dtype=float)
        return X, times

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Full mutable extraction state (rings, pending tick, counters).

        The construction knobs (monitor, periods, warmup, ...) are *not*
        captured: restore targets an extractor built with the same knobs,
        which :meth:`restore` verifies structurally.
        """
        return {
            "traffic": {k: r.snapshot() for k, r in self._traffic.items()},
            "route": {k: r.snapshot() for k, r in self._route.items()},
            "route_length": self._route_length.snapshot(),
            "pending": self._pending,
            "last_event_time": self._last_event_time,
            "emitted": self._emitted,
            "windows_closed": self._windows_closed,
            "rows": list(self.rows),
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot` taken from a same-shaped extractor."""
        if set(state["traffic"]) != set(self._traffic) or \
                set(state["route"]) != set(self._route):
            raise ValueError(
                "snapshot does not match this extractor's ring layout "
                "(different periods or feature grid)"
            )
        for key, ring_state in state["traffic"].items():
            self._traffic[key].restore(ring_state)
        for key, ring_state in state["route"].items():
            self._route[key].restore(ring_state)
        self._route_length.restore(state["route_length"])
        self._pending = state["pending"]
        self._last_event_time = state["last_event_time"]
        self._emitted = state["emitted"]
        self._windows_closed = state["windows_closed"]
        self.rows = list(state["rows"])


def extractor_for_config(
    config,
    monitor: int = 0,
    periods: Sequence[float] = DEFAULT_SAMPLING_PERIODS,
    warmup: float = 0.0,
    on_row: Callable[[WindowRow], None] | None = None,
    keep_rows: bool = True,
) -> StreamingExtractor:
    """A :class:`StreamingExtractor` matched to a scenario's clock."""
    return StreamingExtractor(
        monitor=monitor,
        periods=tuple(periods),
        sampling_period=config.sampling_period,
        warmup=warmup,
        on_row=on_row,
        keep_rows=keep_rows,
    )
