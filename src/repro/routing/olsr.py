"""Optimized Link State Routing (OLSR) — proactive-protocol extension.

The paper's §2 names OLSR (Clausen et al. 2001) as the other family of
MANET routing protocols ("There are other MANET routing protocols such as
ZRP, OLSR, etc.") but evaluates only the on-demand ones implemented in
ns-2.  This module implements a compact OLSR (RFC 3626 core) so the
cross-feature framework can be exercised on *proactive* routing traffic,
whose statistics look completely different from AODV/DSR: periodic HELLO
and TC floods instead of on-demand request/reply bursts.

Implemented machinery:

* **neighbor sensing** — periodic HELLOs carrying the sender's neighbor
  list give every node its symmetric 1-hop and 2-hop neighborhoods;
* **multipoint relays (MPR)** — each node greedily selects a minimal
  subset of neighbors covering its whole 2-hop neighborhood; HELLOs
  announce the selection, so nodes know their *MPR selectors*;
* **topology control (TC)** — nodes with MPR selectors periodically
  originate TC messages advertising them, flooded through the MPR
  backbone only (the OLSR optimization), with duplicate suppression;
* **route calculation** — shortest paths (BFS) over the link state
  assembled from neighbors, 2-hop sets and TC topology tuples; the
  routing table is recomputed on timer and table diffs are logged as the
  paper's route add / removal events.

Unlike AODV, OLSR has no destination sequence numbers: forged topology
(see :meth:`OlsrProtocol.forge_tc_advert`) only holds while the attacker
keeps advertising, after which the entries expire — the network
*self-heals*, a qualitative contrast to the paper's AODV observation
worth seeing in the benchmarks.
"""

from __future__ import annotations

from collections import deque

from repro.routing.base import RoutingProtocol
from repro.simulation.node import Node
from repro.simulation.packet import BROADCAST, Direction, Packet, PacketType
from repro.simulation.stats import RouteEventKind


class OlsrProtocol(RoutingProtocol):
    """OLSR routing agent for one node."""

    name = "olsr"

    def __init__(
        self,
        node: Node,
        hello_interval: float = 2.0,
        tc_interval: float = 5.0,
        neighbor_hold: float = 6.0,
        topology_hold: float = 16.0,
        route_interval: float = 1.0,
    ):
        super().__init__(node)
        self.hello_interval = hello_interval
        self.tc_interval = tc_interval
        self.neighbor_hold = neighbor_hold
        self.topology_hold = topology_hold
        self.route_interval = route_interval

        #: symmetric 1-hop neighbors -> hold-time expiry
        self.neighbors: dict[int, float] = {}
        #: neighbor -> (its reported neighbor set, expiry)
        self.two_hop: dict[int, tuple[frozenset[int], float]] = {}
        #: our chosen multipoint relays
        self.mpr_set: frozenset[int] = frozenset()
        #: nodes that chose us as their MPR -> expiry
        self.mpr_selectors: dict[int, float] = {}
        #: (advertising node, advertised destination) -> expiry
        self.topology: dict[tuple[int, int], float] = {}
        #: computed routing table: dest -> (next_hop, hops)
        self.routes: dict[int, tuple[int, int]] = {}
        self.tc_seq = 0
        self._forged_tc_seq = 1 << 20
        self._seen_tc: dict[tuple[int, int], float] = {}
        # Packet-type dispatch table.  OLSR has no RREQ/RREP/RERR; foreign
        # packet types are ignored.  handle_packet is pure dispatch, so
        # broadcast fan-out binds these methods directly.
        self.typed_handlers = {
            PacketType.DATA: self._handle_data,
            PacketType.HELLO: self._handle_hello,
            PacketType.TC: self._handle_tc,
        }
        node.refresh_dispatch()

        rng = self.sim.rng
        self.sim.schedule(rng.uniform(0, hello_interval), self._hello_tick)
        self.sim.schedule(rng.uniform(0, tc_interval), self._tc_tick)
        self.sim.schedule(rng.uniform(0, route_interval), self._route_tick)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send_data(self, packet: Packet) -> None:
        if packet.dest == self.node_id:
            self.node.deliver(packet)
            return
        route = self.routes.get(packet.dest)
        if route is None:
            self.log_drop(packet)  # proactive: no route means unreachable now
            return
        self.log_route_event(RouteEventKind.FIND)
        self.log_route_length(route[1])
        if not self.node.unicast(packet, route[0], self._on_link_fail):
            self.log_drop(packet)

    def _handle_data(self, packet: Packet, from_id: int) -> None:
        if self.node.should_drop(packet):
            return  # malicious silent drop
        if packet.dest == self.node_id:
            self.node.deliver(packet)
            return
        packet.ttl -= 1
        packet.hops += 1
        if packet.ttl <= 0:
            self.log_drop(packet)
            return
        route = self.routes.get(packet.dest)
        if route is None:
            self.log_drop(packet)
            return
        self.log_packet(PacketType.DATA, Direction.FORWARDED)
        if not self.node.unicast(packet, route[0], self._on_link_fail):
            self.log_drop(packet)

    def _on_link_fail(self, packet: Packet, next_hop: int) -> None:
        """MAC feedback beat the hold timers: drop the neighbor now."""
        if next_hop in self.neighbors:
            del self.neighbors[next_hop]
            self.two_hop.pop(next_hop, None)
            self.log_route_event(RouteEventKind.REPAIR)
            self._recompute_routes()
        route = self.routes.get(packet.dest)
        if route is not None and route[0] != next_hop and packet.ttl > 0:
            self.node.unicast(packet, route[0], self._on_link_fail)
        else:
            self.log_drop(packet)

    # ------------------------------------------------------------------
    # Neighbor sensing + MPR selection
    # ------------------------------------------------------------------
    def _hello_tick(self) -> None:
        self._expire_state()
        self._select_mprs()
        packet = Packet(
            ptype=PacketType.HELLO,
            origin=self.node_id,
            dest=BROADCAST,
            size=32 + 4 * len(self.neighbors),
            ttl=1,
            info={
                "neighbors": sorted(self.neighbors),
                "mprs": sorted(self.mpr_set),
            },
        )
        self.log_packet(PacketType.HELLO, Direction.SENT)
        self.node.broadcast(packet)
        self.sim.schedule(self.hello_interval, self._hello_tick)

    def _handle_hello(self, packet: Packet, from_id: int) -> None:
        self.log_packet(PacketType.HELLO, Direction.RECEIVED)
        now = self.sim.now
        self.neighbors[from_id] = now + self.neighbor_hold
        self.two_hop[from_id] = (
            frozenset(packet.info["neighbors"]) - {self.node_id},
            now + self.neighbor_hold,
        )
        if self.node_id in packet.info["mprs"]:
            self.mpr_selectors[from_id] = now + self.neighbor_hold
        else:
            self.mpr_selectors.pop(from_id, None)

    def _select_mprs(self) -> None:
        """Greedy minimal cover of the 2-hop neighborhood (RFC 3626 §8.3)."""
        uncovered: set[int] = set()
        coverage: dict[int, set[int]] = {}
        for neighbor, (their_neighbors, _) in self.two_hop.items():
            if neighbor not in self.neighbors:
                continue
            reach = their_neighbors - set(self.neighbors) - {self.node_id}
            coverage[neighbor] = set(reach)
            uncovered |= reach
        chosen: set[int] = set()
        while uncovered:
            best = max(coverage, key=lambda n: len(coverage[n] & uncovered))
            gain = coverage[best] & uncovered
            if not gain:
                break
            chosen.add(best)
            uncovered -= gain
        self.mpr_set = frozenset(chosen)

    # ------------------------------------------------------------------
    # Topology control flooding
    # ------------------------------------------------------------------
    def _tc_tick(self) -> None:
        if self.mpr_selectors:
            self.tc_seq += 1
            packet = Packet(
                ptype=PacketType.TC,
                origin=self.node_id,
                dest=BROADCAST,
                size=32 + 4 * len(self.mpr_selectors),
                ttl=16,
                info={
                    "tc_seq": self.tc_seq,
                    "advertised": sorted(self.mpr_selectors),
                },
            )
            self._seen_tc[(self.node_id, self.tc_seq)] = self.sim.now
            self.log_packet(PacketType.TC, Direction.SENT)
            self.node.broadcast(packet)
        self.sim.schedule(self.tc_interval, self._tc_tick)

    def _handle_tc(self, packet: Packet, from_id: int) -> None:
        self.log_packet(PacketType.TC, Direction.RECEIVED)
        info = packet.info
        key = (packet.origin, info["tc_seq"])
        if key in self._seen_tc:
            return
        self._seen_tc[key] = self.sim.now
        expiry = self.sim.now + self.topology_hold
        for dest in info["advertised"]:
            if dest != self.node_id:
                self.topology[(packet.origin, dest)] = expiry
        # MPR forwarding: only relays selected by the *sender* re-flood.
        if from_id in self.mpr_selectors and packet.ttl > 1:
            relay = packet.copy()
            relay.ttl -= 1
            relay.hops += 1
            self.log_packet(PacketType.TC, Direction.FORWARDED)
            self.node.broadcast(relay)

    # ------------------------------------------------------------------
    # Route calculation
    # ------------------------------------------------------------------
    def _route_tick(self) -> None:
        self._expire_state()
        self._recompute_routes()
        if len(self._seen_tc) > 512:
            horizon = self.sim.now - 60.0
            self._seen_tc = {k: t for k, t in self._seen_tc.items() if t >= horizon}
        self.sim.schedule(self.route_interval, self._route_tick)

    def _expire_state(self) -> None:
        now = self.sim.now
        self.neighbors = {n: e for n, e in self.neighbors.items() if e > now}
        self.two_hop = {
            n: v for n, v in self.two_hop.items()
            if v[1] > now and n in self.neighbors
        }
        self.mpr_selectors = {n: e for n, e in self.mpr_selectors.items() if e > now}
        self.topology = {k: e for k, e in self.topology.items() if e > now}

    def _recompute_routes(self) -> None:
        """BFS over the assembled link state; diff-log table changes."""
        graph: dict[int, set[int]] = {self.node_id: set(self.neighbors)}
        for neighbor, (their_neighbors, _) in self.two_hop.items():
            graph.setdefault(neighbor, set()).update(their_neighbors)
        for (advertiser, dest) in self.topology:
            graph.setdefault(advertiser, set()).add(dest)
            graph.setdefault(dest, set()).add(advertiser)

        new_routes: dict[int, tuple[int, int]] = {}
        queue = deque()
        for neighbor in self.neighbors:
            new_routes[neighbor] = (neighbor, 1)
            queue.append(neighbor)
        while queue:
            current = queue.popleft()
            next_hop, hops = new_routes[current]
            for peer in graph.get(current, ()):
                if peer == self.node_id or peer in new_routes:
                    continue
                new_routes[peer] = (next_hop, hops + 1)
                queue.append(peer)

        for dest in new_routes:
            if dest not in self.routes:
                self.log_route_event(RouteEventKind.ADD)
        for dest in self.routes:
            if dest not in new_routes:
                self.log_route_event(RouteEventKind.REMOVAL)
        self.routes = new_routes

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, from_id: int) -> None:
        handler = self.typed_handlers.get(packet.ptype)
        if handler is not None:
            handler(packet, from_id)

    # ------------------------------------------------------------------
    # Attack surface (called only by repro.attacks)
    # ------------------------------------------------------------------
    def forge_tc_advert(self, victims: list[int]) -> Packet:
        """A forged TC claiming every victim is our MPR selector.

        Receivers install topology tuples ``(attacker, victim)`` for all
        victims, so shortest-path calculation bends routes toward the
        attacker.  There is no sequence-number freshness to poison —
        unlike the paper's AODV black hole, the damage *expires* with the
        topology hold time once the attacker stops advertising.
        """
        self._forged_tc_seq += 1
        return Packet(
            ptype=PacketType.TC,
            origin=self.node_id,
            dest=BROADCAST,
            size=32 + 4 * len(victims),
            ttl=16,
            info={"tc_seq": self._forged_tc_seq, "advertised": sorted(victims)},
        )

    def forge_route_advert(self, victim: int) -> Packet:
        """Single-victim forged advert (the generic black-hole hook)."""
        return self.forge_tc_advert([victim])
