"""A mobile node: the junction between medium, routing, traffic and attacks.

The node itself is thin.  It owns no protocol logic — it wires the wireless
medium to a routing protocol instance, demultiplexes delivered data packets
to traffic agents, and exposes the two hooks the attack modules use:

* ``drop_filter`` — a predicate consulted by the routing protocol before
  relaying a packet; packet-dropping attacks (and a black hole's absorb
  phase) install one on the compromised node;
* direct access to ``self.routing`` — black hole scripts call into the
  protocol to emit forged control messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.simulation.engine import Simulator
from repro.simulation.medium import FailureCallback, WirelessMedium
from repro.simulation.packet import Direction, Packet, PacketType
from repro.simulation.stats import NodeStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.base import RoutingProtocol


class TrafficAgent(Protocol):
    """What the node expects from a traffic agent (see ``repro.traffic``)."""

    def on_receive(self, packet: Packet) -> None:
        """Handle a data packet delivered for this agent's flow."""


DropFilter = Callable[[Packet], bool]


class Node:
    """One mobile host with its protocol stack."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        medium: WirelessMedium,
        stats: NodeStats,
        promiscuous: bool = False,
    ):
        self.node_id = node_id
        self.sim = sim
        self.medium = medium
        self.stats = stats
        self._promiscuous = bool(promiscuous)
        self.routing: "RoutingProtocol | None" = None
        self.agents: dict[int, TrafficAgent] = {}
        self.drop_filter: DropFilter | None = None
        self.data_delivered = 0
        self.data_originated = 0
        medium.attach(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def promiscuous(self) -> bool:
        """Whether this node taps unicasts it overhears (DSR sets this)."""
        return self._promiscuous

    @promiscuous.setter
    def promiscuous(self, value: bool) -> None:
        self._promiscuous = bool(value)
        # Keep the medium's listener registry in sync so unicast delivery
        # can skip the bystander sweep when nobody is listening.
        nodes = self.medium.nodes
        if self.node_id < len(nodes) and nodes[self.node_id] is self:
            self.medium._note_promiscuous(self.node_id, self._promiscuous)

    def set_routing(self, protocol: "RoutingProtocol") -> None:
        """Install the routing protocol (exactly once)."""
        if self.routing is not None:
            raise RuntimeError(f"node {self.node_id} already has a routing protocol")
        self.routing = protocol
        self.refresh_dispatch()

    def refresh_dispatch(self) -> None:
        """(Re-)point the medium's dispatch tables at the protocol handlers.

        Called on protocol install and again once the protocol has
        published its ``typed_handlers`` (at the end of its own
        ``__init__``, after ``set_routing``).  Delivery then skips the
        on_receive/on_overhear trampolines, and broadcast fan-out binds
        per-packet-type handlers from ``typed_handlers``.
        """
        protocol = self.routing
        if protocol is None:
            return
        nodes = self.medium.nodes
        if self.node_id < len(nodes) and nodes[self.node_id] is self:
            self.medium._note_handlers(
                self.node_id,
                protocol.handle_packet,
                protocol.handle_overhear,
                protocol.typed_handlers,
            )

    def register_agent(self, flow_id: int, agent: TrafficAgent) -> None:
        """Register a traffic agent to receive data packets for ``flow_id``."""
        self.agents[flow_id] = agent

    # ------------------------------------------------------------------
    # Position (convenience passthroughs)
    # ------------------------------------------------------------------
    @property
    def position(self) -> tuple[float, float]:
        return self.medium.mobility.position(self.node_id, self.sim.now)

    @property
    def speed(self) -> float:
        return self.medium.mobility.speed(self.node_id, self.sim.now)

    # ------------------------------------------------------------------
    # Transmit API used by the routing protocol
    # ------------------------------------------------------------------
    def broadcast(self, packet: Packet) -> bool:
        """Transmit to all neighbours (returns False on queue drop)."""
        return self.medium.broadcast(self.node_id, packet)

    def unicast(self, packet: Packet, next_hop: int, on_fail: FailureCallback | None = None) -> bool:
        """Transmit to one neighbour with link-failure feedback."""
        return self.medium.unicast(self.node_id, packet, next_hop, on_fail)

    # ------------------------------------------------------------------
    # Traffic API
    # ------------------------------------------------------------------
    def send_data(
        self,
        dest: int,
        size: int = 512,
        flow_id: int | None = None,
        info: dict | None = None,
    ) -> None:
        """Originate a data packet (called by traffic agents).

        ``info`` carries transport-level header fields (e.g. TCP sequence
        numbers); routing protocols add their own keys alongside.
        """
        if self.routing is None:
            raise RuntimeError(f"node {self.node_id} has no routing protocol")
        packet = Packet(
            ptype=PacketType.DATA,
            origin=self.node_id,
            dest=dest,
            size=size,
            flow_id=flow_id,
            info=dict(info) if info else {},
        )
        self.data_originated += 1
        self.stats.log_packet(self.sim.now, PacketType.DATA, Direction.SENT)
        self.routing.send_data(packet)

    def deliver(self, packet: Packet) -> None:
        """Data packet reached its final destination (called by routing)."""
        self.data_delivered += 1
        self.stats.log_packet(self.sim.now, PacketType.DATA, Direction.RECEIVED)
        if packet.flow_id is not None:
            agent = self.agents.get(packet.flow_id)
            if agent is not None:
                agent.on_receive(packet)

    # ------------------------------------------------------------------
    # Medium callbacks
    # ------------------------------------------------------------------
    def on_receive(self, packet: Packet, from_id: int) -> None:
        """Medium callback: hand an arriving packet to the routing layer."""
        if self.routing is not None:
            self.routing.handle_packet(packet, from_id)

    def on_overhear(self, packet: Packet, from_id: int) -> None:
        """Medium callback: promiscuous tap of a bystander transmission."""
        if self.routing is not None:
            self.routing.handle_overhear(packet, from_id)

    # ------------------------------------------------------------------
    # Attack hook
    # ------------------------------------------------------------------
    def should_drop(self, packet: Packet) -> bool:
        """Consulted by the routing protocol before relaying ``packet``."""
        return self.drop_filter is not None and self.drop_filter(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id})"
