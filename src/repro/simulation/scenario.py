"""Scenario assembly and execution — the ns-2 script layer.

:class:`ScenarioConfig` captures the paper's §4.1 parameter selection
(1000 m × 1000 m random way-point field, up to 100 connections at rate
0.25 pkt/s, 10 s pause time, 20 m/s maximum speed, statistics logged every
5 s) with everything overridable so tests and benchmarks can scale down.

:func:`run_scenario` builds the full stack — kernel, mobility, medium,
per-node protocol instances, traffic agents, attack sessions — runs it, and
returns a :class:`SimulationTrace` bundling the per-node trace logs, the
velocity samples and the attack ground truth.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.simulation.engine import Simulator
from repro.simulation.medium import WirelessMedium
from repro.simulation.mobility import MIN_SPEED, RandomWaypointMobility
from repro.simulation.node import Node
from repro.simulation.stats import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.attacks.base import Attack


@dataclass
class ScenarioConfig:
    """Parameters of one simulated MANET scenario (paper §4.1 defaults).

    ``duration`` defaults to a laptop-friendly 1000 s rather than the
    paper's 10 000 s; all detection logic is duration-agnostic.
    """

    protocol: str = "aodv"          #: "aodv" or "dsr"
    transport: str = "udp"          #: "udp" (CBR) or "tcp"
    n_nodes: int = 20
    area: tuple[float, float] = (1000.0, 1000.0)
    duration: float = 1000.0
    max_connections: int = 100
    traffic_rate: float = 0.25      #: packets per second per CBR flow
    packet_size: int = 512
    pause_time: float = 10.0
    max_speed: float = 20.0
    tx_range: float = 250.0
    loss_rate: float = 0.0
    seed: int = 1
    #: Separate seed for the connection pattern (ns-2 keeps scenario and
    #: connection files independent).  None = derive from ``seed``, giving
    #: every run its own traffic; fixing it across runs varies only
    #: mobility, which is what makes normal profiles transfer between a
    #: training trace and evaluation traces.
    traffic_seed: int | None = None
    sampling_period: float = 5.0    #: paper: route statistics every 5 s
    traffic_start_window: float = 180.0
    tcp_app_rate: float = 2.0       #: per-flow application rate for TCP flows

    def __post_init__(self) -> None:
        if self.protocol not in ("aodv", "dsr", "olsr"):
            raise ValueError(f"unknown protocol: {self.protocol!r}")
        if self.transport not in ("udp", "tcp"):
            raise ValueError(f"unknown transport: {self.transport!r}")
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        # Negated comparisons, so NaN fails them too.
        if len(self.area) != 2 or not all(0 < side < math.inf for side in self.area):
            raise ValueError(f"area must be a pair of positive, finite sides, got {self.area!r}")
        for name in ("duration", "tx_range", "traffic_rate", "sampling_period",
                     "tcp_app_rate"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("pause_time", "traffic_start_window"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
        for name, low in (("max_connections", 0), ("packet_size", 1)):
            value = getattr(self, name)
            if not value >= low:
                raise ValueError(f"{name} must be at least {low}, got {value!r}")
        if not MIN_SPEED <= self.max_speed < math.inf:
            raise ValueError(
                f"max_speed must be finite and at least the mobility model's "
                f"{MIN_SPEED} m/s minimum, got {self.max_speed!r}"
            )
        if not 0 <= self.loss_rate <= 1:
            raise ValueError(f"loss_rate must lie in [0, 1], got {self.loss_rate!r}")


@dataclass
class SimulationTrace:
    """Everything one simulation run produced.

    Attributes
    ----------
    recorder:
        Per-node trace logs (packet/route event streams).
    tick_times:
        Sampling instants (every ``sampling_period``; the feature windows
        end at these times).
    speeds:
        ``speeds[k][node]`` — scalar node velocity at ``tick_times[k]``
        (the *absolute velocity* feature is read from here).
    attack_intervals:
        Merged ground-truth intrusion intervals.
    """

    config: ScenarioConfig
    recorder: TraceRecorder
    tick_times: list[float]
    speeds: list[list[float]]
    attack_intervals: list[tuple[float, float]] = field(default_factory=list)
    data_originated: int = 0
    data_delivered: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.recorder)

    def delivery_ratio(self) -> float:
        """Fraction of originated data packets that reached a destination."""
        if self.data_originated == 0:
            return 0.0
        return self.data_delivered / self.data_originated

    def is_attack_time(self, t: float) -> bool:
        """Ground-truth label for an instant."""
        return any(s <= t < e for s, e in self.attack_intervals)

    def window_labels(self, policy: str = "session") -> list[bool]:
        """Ground-truth label per sampling window.

        Policies:

        * ``"session"`` — a window ``(t - sampling_period, t]`` is
          intrusive when it overlaps an active attack session;
        * ``"post_attack"`` — every window from the first session start
          onward is intrusive.  This reflects the paper's §4.2
          observation that the implemented intrusions are not self-healed
          (the black hole's maximum sequence number is never displaced),
          so "there is no way to figure out exactly when the intrusion
          actions have ended and the observed anomalies are just the
          lasting damages".
        """
        period = self.config.sampling_period
        if policy == "post_attack" and self.attack_intervals:
            first = self.attack_intervals[0][0]
            return [t > first for t in self.tick_times]
        if policy not in ("session", "post_attack"):
            raise ValueError(f"unknown label policy: {policy!r}")
        labels = []
        for t in self.tick_times:
            start, end = t - period, t
            labels.append(
                any(s < end and e > start for s, e in self.attack_intervals)
            )
        return labels


def trace_fingerprint(trace: SimulationTrace) -> str:
    """Digest of everything observable about a trace, bit for bit.

    Serializes every per-node packet/route event stream, the sampling
    ticks, the velocity samples, the attack ground truth and the
    delivery counters, and hashes the pickle.  Two runs agree on this
    digest iff they produced byte-identical traces; the benchmark
    harnesses record and compare it.  The pickle keys the recorder's
    dicts by ``IntEnum`` members, whose pickled form differs between
    Python releases, so the tier-1 golden digests
    (``tests/simulation/test_trace_golden.py``) hash an int-keyed form of
    the same content instead.
    """
    recorder_state = [
        (node.packet_times, node.route_times, node.route_length_samples)
        for node in trace.recorder.nodes
    ]
    payload = pickle.dumps((
        recorder_state,
        trace.tick_times,
        trace.speeds,
        trace.attack_intervals,
        trace.data_originated,
        trace.data_delivered,
    ))
    return hashlib.sha256(payload).hexdigest()


def build_protocol(node: Node, config: ScenarioConfig):
    """Instantiate the configured routing protocol on a node."""
    # Imported here to keep repro.simulation importable without repro.routing.
    from repro.routing.aodv import AodvProtocol
    from repro.routing.dsr import DsrProtocol
    from repro.routing.olsr import OlsrProtocol

    if config.protocol == "aodv":
        return AodvProtocol(node)
    if config.protocol == "olsr":
        return OlsrProtocol(node)
    return DsrProtocol(node)


def run_scenario(
    config: ScenarioConfig,
    attacks: Sequence["Attack"] = (),
    taps: Sequence = (),
) -> SimulationTrace:
    """Run one complete MANET scenario and return its trace.

    ``taps`` are live window observers (e.g.
    :class:`repro.stream.StreamingExtractor`): each exposes a ``monitor``
    node id plus ``bind(stats)``, ``on_tick(time, speed)`` and
    ``finish()``.  A tap is bound to its monitor's
    :class:`~repro.simulation.stats.NodeStats` before the run, receives
    every sampling tick as the clock crosses it (the same instant the
    batch trace records it), and is finalised when the run ends.  Taps
    are pure observers — a run with taps produces a bit-identical
    :class:`SimulationTrace` to the same run without them.
    """
    from repro.attacks.base import merge_intervals
    from repro.traffic.cbr import CbrSink, CbrSource
    from repro.traffic.connections import generate_connections
    from repro.traffic.tcp import TcpSink, TcpSource

    sim = Simulator(seed=config.seed)
    mobility = RandomWaypointMobility(
        n_nodes=config.n_nodes,
        area=config.area,
        max_speed=config.max_speed,
        pause_time=config.pause_time,
        rng=sim.rng,
    )
    medium = WirelessMedium(
        sim, mobility, tx_range=config.tx_range, loss_rate=config.loss_rate
    )
    recorder = TraceRecorder(config.n_nodes)
    nodes = [Node(i, sim, medium, recorder[i]) for i in range(config.n_nodes)]
    for node in nodes:
        build_protocol(node, config)

    import random as _random

    traffic_rng = (
        sim.rng
        if config.traffic_seed is None
        else _random.Random(config.traffic_seed)
    )
    connections = generate_connections(
        config.n_nodes,
        config.max_connections,
        traffic_rng,
        start_window=min(config.traffic_start_window, config.duration / 2),
    )
    for conn in connections:
        if config.transport == "udp":
            CbrSource(
                nodes[conn.src],
                conn.dst,
                conn.flow_id,
                rate=config.traffic_rate,
                packet_size=config.packet_size,
                start=conn.start,
                stop=config.duration,
            )
            CbrSink(nodes[conn.dst], conn.flow_id)
        else:
            TcpSource(
                nodes[conn.src],
                conn.dst,
                conn.flow_id,
                packet_size=config.packet_size,
                start=conn.start,
                stop=config.duration,
                app_rate=config.tcp_app_rate,
            )
            TcpSink(nodes[conn.dst], conn.src, conn.flow_id)

    for attack in attacks:
        attack.install(sim, nodes)

    taps = list(taps)
    for tap in taps:
        if not 0 <= tap.monitor < config.n_nodes:
            raise ValueError(f"tap monitor {tap.monitor} out of range")
        tap.bind(recorder[tap.monitor])

    tick_times: list[float] = []
    speeds: list[list[float]] = []

    def sample_tick() -> None:
        t = sim.now
        tick_times.append(t)
        # Vectorized; value- and RNG-draw-identical to per-node speed().
        row = mobility.speeds_at(t)
        speeds.append(row)
        for tap in taps:
            tap.on_tick(t, row[tap.monitor])
        if t + config.sampling_period <= config.duration:
            sim.schedule(config.sampling_period, sample_tick)

    sim.schedule_at(config.sampling_period, sample_tick)
    sim.run(until=config.duration)
    for tap in taps:
        tap.finish()

    intervals = merge_intervals(
        [iv for attack in attacks for iv in attack.sessions]
    )
    return SimulationTrace(
        config=config,
        recorder=recorder,
        tick_times=tick_times,
        speeds=speeds,
        attack_intervals=intervals,
        data_originated=sum(n.data_originated for n in nodes),
        data_delivered=sum(n.data_delivered for n in nodes),
    )
