"""Feature Set II: traffic-related features (paper Table 5).

A traffic feature is the vector ``<packet type, flow direction, sampling
period, statistics measure>``:

* packet types — data, route (all), ROUTE REQUEST, ROUTE REPLY,
  ROUTE ERROR, HELLO (6 values);
* flow directions — received, sent, forwarded, dropped (4 values);
* sampling periods — 5 s, 60 s and 900 s (short- and long-term patterns);
* measures — packet count, and standard deviation of inter-packet
  intervals.

The combinations (data, forwarded) and (data, dropped) are excluded: MANET
routing protocols encapsulate data packets in transit, so — as the paper
puts it — "all activities (including forwarding and dropping) during the
transmission process only involve route packets".  Accordingly the
extractor *folds* in-transit data events into the "route (all)" aggregate.
Total: (6 x 4 - 2) x 3 x 2 = **132 features**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.simulation.packet import Direction, PacketType
from repro.simulation.stats import NodeStats

PACKET_TYPE_NAMES = ["data", "route_all", "rreq", "rrep", "rerr", "hello"]
DIRECTION_NAMES = ["received", "sent", "forwarded", "dropped"]
MEASURE_NAMES = ["count", "iat_std"]
DEFAULT_SAMPLING_PERIODS = (5.0, 60.0, 900.0)

#: (packet type, direction) pairs excluded per the encapsulation argument.
EXCLUDED_COMBOS = {("data", "forwarded"), ("data", "dropped")}

_CONTROL_TYPES = (
    PacketType.RREQ,
    PacketType.RREP,
    PacketType.RERR,
    PacketType.HELLO,
    PacketType.TC,  # OLSR extension traffic counts as "route (all)"
)
_TYPE_NAME_TO_ENUM = {
    "data": PacketType.DATA,
    "rreq": PacketType.RREQ,
    "rrep": PacketType.RREP,
    "rerr": PacketType.RERR,
    "hello": PacketType.HELLO,
}


@dataclass(frozen=True)
class TrafficFeatureSpec:
    """One cell of the Table 5 grid.

    ``encode()`` returns the paper's numeric encoding, e.g. the standard
    deviation of inter-packet intervals of received ROUTE REQUEST packets
    every 5 seconds is ``<2, 0, 0, 1>``.
    """

    packet_type: str
    direction: str
    period: float
    measure: str

    @property
    def name(self) -> str:
        period = int(self.period) if self.period == int(self.period) else self.period
        return f"{self.packet_type}_{self.direction}_{period}s_{self.measure}"

    def encode(self, periods: tuple[float, ...] = DEFAULT_SAMPLING_PERIODS) -> tuple[int, int, int, int]:
        """The paper's numeric 4-tuple encoding of this feature."""
        return (
            PACKET_TYPE_NAMES.index(self.packet_type),
            DIRECTION_NAMES.index(self.direction),
            periods.index(self.period),
            MEASURE_NAMES.index(self.measure),
        )


def validate_periods(periods: Sequence[float]) -> tuple[float, ...]:
    """Check Feature Set II sampling periods: at least one, each
    positive and finite."""
    periods = tuple(periods)
    if not periods:
        raise ValueError("periods must name at least one sampling period")
    # Negated comparison, so NaN fails it too.
    if not all(0 < p < math.inf for p in periods):
        raise ValueError(f"periods must be positive and finite, got {periods!r}")
    return tuple(float(p) for p in periods)


def traffic_feature_grid(
    periods: tuple[float, ...] = DEFAULT_SAMPLING_PERIODS,
) -> list[TrafficFeatureSpec]:
    """Enumerate the full Table 5 grid (132 specs for the default periods)."""
    specs = []
    for ptype in PACKET_TYPE_NAMES:
        for direction in DIRECTION_NAMES:
            if (ptype, direction) in EXCLUDED_COMBOS:
                continue
            for period in periods:
                for measure in MEASURE_NAMES:
                    specs.append(TrafficFeatureSpec(ptype, direction, period, measure))
    return specs


def _event_times(stats: NodeStats, type_name: str, direction: str) -> np.ndarray:
    """Merged, sorted event-time stream for one (type, direction) combo.

    ``route_all`` aggregates every control type, and — for the forwarded
    and dropped directions — the in-transit data events as well (the
    encapsulation fold described in the module docstring).
    """
    dr = Direction[direction.upper()]
    if type_name != "route_all":
        pt = _TYPE_NAME_TO_ENUM[type_name]
        return np.asarray(stats.packet_times[(int(pt), int(dr))], dtype=float)
    streams = [
        np.asarray(stats.packet_times[(int(pt), int(dr))], dtype=float)
        for pt in _CONTROL_TYPES
    ]
    if direction in ("forwarded", "dropped"):
        streams.append(
            np.asarray(stats.packet_times[(int(PacketType.DATA), int(dr))], dtype=float)
        )
    merged = np.concatenate(streams) if streams else np.empty(0)
    merged.sort(kind="mergesort")
    return merged


def _window_counts(times: np.ndarray, ticks: np.ndarray, period: float) -> np.ndarray:
    """Event count inside each half-open window ``(tick - period, tick]``."""
    lo = np.searchsorted(times, ticks - period, side="right")
    hi = np.searchsorted(times, ticks, side="right")
    return (hi - lo).astype(float)


def _window_iat_std(times: np.ndarray, ticks: np.ndarray, period: float) -> np.ndarray:
    """Std of inter-packet intervals inside each window.

    Uses prefix sums over the interval sequence so the whole tick series is
    computed in O(n log n) regardless of window width.  Windows with fewer
    than three events (fewer than two intervals) yield 0.
    """
    n = len(times)
    out = np.zeros(len(ticks))
    if n < 3:
        return out
    diffs = np.diff(times)
    s1 = np.concatenate(([0.0], np.cumsum(diffs)))
    s2 = np.concatenate(([0.0], np.cumsum(diffs * diffs)))
    lo = np.searchsorted(times, ticks - period, side="right")
    hi = np.searchsorted(times, ticks, side="right")
    # Intervals fully inside window [lo, hi): diffs[lo .. hi-2].
    n_int = hi - 1 - lo
    mask = n_int >= 2
    if not mask.any():
        return out
    lo_m, hi_m, k = lo[mask], hi[mask], n_int[mask].astype(float)
    total = s1[hi_m - 1] - s1[lo_m]
    total_sq = s2[hi_m - 1] - s2[lo_m]
    mean = total / k
    var = np.maximum(total_sq / k - mean * mean, 0.0)
    out[mask] = np.sqrt(var)
    return out


def traffic_features(
    stats: NodeStats,
    tick_times: np.ndarray,
    periods: tuple[float, ...] = DEFAULT_SAMPLING_PERIODS,
) -> tuple[np.ndarray, list[TrafficFeatureSpec]]:
    """Compute the Feature Set II matrix for one monitor node.

    Returns ``(X, specs)`` where ``X[k, j]`` is feature ``specs[j]``
    evaluated at the window ending at ``tick_times[k]``.
    """
    ticks = np.asarray(tick_times, dtype=float)
    specs = traffic_feature_grid(periods)
    columns = []
    # Compute the merged stream once per (type, direction) and reuse it for
    # every (period, measure) cell.
    stream_cache: dict[tuple[str, str], np.ndarray] = {}
    for spec in specs:
        key = (spec.packet_type, spec.direction)
        if key not in stream_cache:
            stream_cache[key] = _event_times(stats, *key)
        times = stream_cache[key]
        if spec.measure == "count":
            columns.append(_window_counts(times, ticks, spec.period))
        else:
            columns.append(_window_iat_std(times, ticks, spec.period))
    X = np.column_stack(columns) if columns else np.empty((len(ticks), 0))
    return X, specs
