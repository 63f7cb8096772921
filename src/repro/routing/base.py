"""Shared routing-protocol machinery.

:class:`RoutingProtocol` defines the contract the :class:`~repro.simulation.
node.Node` expects, plus the trace-logging helpers both AODV and DSR use so
that route-fabric events land in the stats streams consumed by Feature Set I.

:class:`PacketBuffer` is the send buffer both protocols use to hold data
packets while a route discovery for their destination is in flight.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict

from repro.simulation.node import Node
from repro.simulation.packet import Direction, Packet, PacketType
from repro.simulation.stats import RouteEventKind


class PacketBuffer:
    """Bounded per-destination buffer for packets awaiting a route.

    Overflow evicts the oldest packet for that destination (returned to the
    caller so it can be logged as dropped).
    """

    def __init__(self, max_per_dest: int = 64):
        self.max_per_dest = max_per_dest
        self._buffers: OrderedDict[int, list[Packet]] = OrderedDict()

    def add(self, dest: int, packet: Packet) -> Packet | None:
        """Buffer a packet; return the evicted packet on overflow, else None."""
        queue = self._buffers.setdefault(dest, [])
        queue.append(packet)
        if len(queue) > self.max_per_dest:
            return queue.pop(0)
        return None

    def pop_all(self, dest: int) -> list[Packet]:
        """Remove and return all packets buffered for ``dest``."""
        return self._buffers.pop(dest, [])

    def pending(self, dest: int) -> int:
        """Number of packets currently buffered for ``dest``."""
        return len(self._buffers.get(dest, []))

    def destinations(self) -> list[int]:
        """Destinations that currently have buffered packets."""
        return list(self._buffers.keys())

    def __len__(self) -> int:
        return sum(len(q) for q in self._buffers.values())


class RoutingProtocol(ABC):
    """Base class for MANET routing protocols.

    Subclasses implement :meth:`send_data` (originate or locally deliver a
    data packet) and :meth:`handle_packet` (process a packet arriving from
    the medium).  :meth:`handle_overhear` is optional and only meaningful
    for protocols that learn from promiscuous traffic (DSR).

    Each protocol publishes one handler per packet type as
    ``typed_handlers`` at the end of its ``__init__`` (then calls
    ``node.refresh_dispatch()``); ``handle_packet`` dispatches through
    that same map, and the medium's broadcast fan-out binds the
    type-specific handler once per batch (see DESIGN.md §Routing
    handlers).
    """

    name: str = "base"

    #: Packet-type -> handler map for the medium's typed fan-out dispatch
    #: (published by each protocol's ``__init__``).
    typed_handlers: dict | None = None

    def __init__(self, node: Node):
        self.node = node
        self.sim = node.sim
        self.stats = node.stats
        # Plain attributes / pre-bound methods: these sit on every
        # per-packet path, so skip the property and double lookups.
        self.node_id = node.node_id
        self._stats_log_packet = node.stats.log_packet
        self._stats_log_route_event = node.stats.log_route_event
        node.set_routing(self)

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    @abstractmethod
    def send_data(self, packet: Packet) -> None:
        """Originate a data packet from this node (or deliver to self)."""

    @abstractmethod
    def handle_packet(self, packet: Packet, from_id: int) -> None:
        """Process a packet received from neighbor ``from_id``."""

    def handle_overhear(self, packet: Packet, from_id: int) -> None:
        """Process a promiscuously overheard packet (default: ignore)."""

    # ------------------------------------------------------------------
    # Duplicate-flood filter
    # ------------------------------------------------------------------
    # AODV and DSR both discard repeat copies of a flood via a seen set
    # keyed by (origin, flood id), stored as a dict of per-origin dicts
    # keyed by the (small-int) flood id, so the hot membership test never
    # allocates or hashes a tuple.  ``_seen_count`` tracks the total number
    # of pairs for the >512 purge trigger.  Protocols using this interface
    # initialise ``_seen_by_origin`` and ``_seen_count`` in ``__init__``;
    # their RREQ handlers inline the mark/test pair.

    _seen_by_origin: dict  # origin -> {flood id: first-seen time}
    _seen_count: int

    def _seen_mark(self, origin: int, rreq_id: int, now: float) -> None:
        """Record one (origin, rreq_id) as seen."""
        d = self._seen_by_origin.get(origin)
        if d is None:
            self._seen_by_origin[origin] = {rreq_id: now}
            self._seen_count += 1
        elif rreq_id not in d:
            d[rreq_id] = now
            self._seen_count += 1
        else:
            d[rreq_id] = now

    def _seen_has(self, origin: int, rreq_id: int) -> bool:
        """Whether (origin, rreq_id) has been seen."""
        d = self._seen_by_origin.get(origin)
        return d is not None and rreq_id in d

    def _seen_size(self) -> int:
        """Number of remembered (origin, rreq_id) pairs."""
        return self._seen_count

    def _seen_prune(self, now: float) -> None:
        """Once more than 512 pairs are remembered, forget those older than 30 s."""
        if self._seen_count > 512:
            horizon = now - 30.0
            seen = self._seen_by_origin
            total = 0
            for origin, d in list(seen.items()):
                kept = {k: t for k, t in d.items() if t >= horizon}
                if kept:
                    seen[origin] = kept
                    total += len(kept)
                else:
                    del seen[origin]
            self._seen_count = total

    # ------------------------------------------------------------------
    # Trace-logging helpers
    # ------------------------------------------------------------------
    def log_packet(self, ptype: PacketType, direction: Direction) -> None:
        """Record a packet event in this node's trace."""
        self._stats_log_packet(self.sim.now, ptype, direction)

    def log_route_event(self, kind: RouteEventKind) -> None:
        """Record a route-fabric event in this node's trace."""
        self._stats_log_route_event(self.sim.now, kind)

    def log_route_length(self, hops: int) -> None:
        """Record the hop count of a route being used for data."""
        self.stats.log_route_length(self.sim.now, hops)

    def log_drop(self, packet: Packet) -> None:
        """Log a packet discarded at this node."""
        self._stats_log_packet(self.sim.now, packet.ptype, Direction.DROPPED)
