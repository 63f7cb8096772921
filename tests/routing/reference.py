"""Reference routing protocols: the oracle for the shipped packet handlers.

The shipped AODV and DSR protocols run their hot packet types through
flattened closures published as ``typed_handlers`` (see
``AodvProtocol._install_handlers``), keep the duplicate-RREQ filter as
per-origin dicts and skip purge ticks that provably do nothing.  The
subclasses here undo all three, carrying the plain handler bodies those
optimizations replaced:

* one method per packet type behind a ``_dispatch`` map, and no
  ``typed_handlers`` — so the medium hands every delivery to
  ``handle_packet``;
* the seen set as one dict keyed by the ``(origin, rreq_id)`` tuple;
* a purge tick that walks the whole route table / cache every time.

Everything else (route table updates, discovery, replies, maintenance) is
inherited, so a difference between a reference stack and a shipped stack
is a difference in exactly these paths.  Both run on the same kernel and
medium; ``tests/routing/test_routing_fast_property.py`` compares them.
"""

from __future__ import annotations

from repro.routing.aodv import AodvProtocol
from repro.routing.dsr import DsrProtocol
from repro.simulation.packet import Direction, Packet, PacketType
from repro.simulation.stats import RouteEventKind


class _TupleSeen:
    """Duplicate-RREQ filter as one dict keyed by ``(origin, rreq_id)``."""

    _seen_rreqs: dict[tuple[int, int], float]

    def _seen_mark(self, origin: int, rreq_id: int, now: float) -> None:
        self._seen_rreqs[(origin, rreq_id)] = now

    def _seen_has(self, origin: int, rreq_id: int) -> bool:
        return (origin, rreq_id) in self._seen_rreqs

    def _seen_size(self) -> int:
        return len(self._seen_rreqs)

    def _seen_prune(self, now: float) -> None:
        if len(self._seen_rreqs) > 512:
            horizon = now - 30.0
            self._seen_rreqs = {
                k: t for k, t in self._seen_rreqs.items() if t >= horizon
            }


class ReferenceAodv(_TupleSeen, AodvProtocol):
    """AODV with one plain method per packet type."""

    def __init__(self, node, **kwargs):
        self._seen_rreqs = {}
        super().__init__(node, **kwargs)

    def _install_handlers(self) -> None:
        self._dispatch = {
            PacketType.DATA: self._handle_data,
            PacketType.RREQ: self._handle_rreq,
            PacketType.RREP: self._handle_rrep,
            PacketType.RERR: self._handle_rerr,
            PacketType.HELLO: self._handle_hello,
        }

    def handle_packet(self, packet: Packet, from_id: int) -> None:
        self._last_heard[from_id] = self.sim.now
        handler = self._dispatch.get(packet.ptype)
        if handler is not None:
            handler(packet, from_id)

    def _handle_data(self, packet: Packet, from_id: int) -> None:
        if self.node.should_drop(packet):
            return  # malicious silent drop — no trace at the attacker
        if packet.dest == self.node_id:
            self.node.deliver(packet)
            return
        packet.ttl -= 1
        packet.hops += 1
        if packet.ttl <= 0:
            self.log_drop(packet)
            return
        entry = self._valid_route(packet.dest)
        if entry is None:
            self.log_drop(packet)
            self._send_rerr([packet.dest])
            return
        self.log_packet(PacketType.DATA, Direction.FORWARDED)
        self._refresh(packet.origin)
        self._transmit_data(packet, entry)

    def _handle_rreq(self, packet: Packet, from_id: int) -> None:
        self._rreq_recv.append(self.sim.now)
        info = packet.info
        origin, rreq_id = packet.origin, info["rreq_id"]
        self._update_route(origin, from_id, packet.hops + 1, info["origin_seq"])
        if self._seen_has(origin, rreq_id):
            return
        self._seen_mark(origin, rreq_id, self.sim.now)

        if origin == self.node_id:
            return  # our own request echoed back (or forged in our name)

        target = info["target"]
        if target == self.node_id:
            if info["target_seq"] == self.seq + 1:
                self.seq += 1
            self._send_rrep(origin, target, dest_seq=self.seq, dest_hops=0)
            return
        entry = self._valid_route(target)
        if (
            not info.get("destination_only", False)
            and entry is not None
            and entry.seq >= info["target_seq"]
        ):
            self.log_route_event(RouteEventKind.FIND)
            self._send_rrep(origin, target, dest_seq=entry.seq, dest_hops=entry.hops)
            return
        if packet.ttl <= 1:
            return
        relay = packet.copy()
        relay.ttl -= 1
        relay.hops += 1
        self._stats_log_packet(self.sim.now, PacketType.RREQ, Direction.FORWARDED)
        self.node.broadcast(relay)

    def _handle_rerr(self, packet: Packet, from_id: int) -> None:
        self._rerr_recv.append(self.sim.now)
        announcer = packet.origin
        invalidated = []
        for dest, seq in packet.info["unreachable"]:
            entry = self.table.get(dest)
            if entry is not None and entry.valid and entry.next_hop == announcer:
                self._invalidate(entry)
                invalidated.append((dest, entry.seq))
        if invalidated:
            self._relay_rerr(packet, invalidated)

    def _handle_hello(self, packet: Packet, from_id: int) -> None:
        self._hello_recv.append(self.sim.now)
        self._update_route(from_id, from_id, 1, packet.info["seq"])

    def _purge_tick(self) -> None:
        now = self.sim.now
        for entry in list(self.table.values()):
            if entry.valid and entry.expires <= now:
                self._invalidate(entry)
            elif not entry.valid and entry.expires <= now - 3 * self.active_route_timeout:
                del self.table[entry.dest]
        self._seen_prune(now)
        self.sim.schedule(self.purge_interval, self._purge_tick)


class ReferenceDsr(_TupleSeen, DsrProtocol):
    """DSR with one plain method per packet type."""

    def __init__(self, node, **kwargs):
        self._seen_rreqs = {}
        super().__init__(node, **kwargs)

    def _install_handlers(self) -> None:
        self._dispatch = {
            PacketType.DATA: self._handle_data,
            PacketType.RREQ: self._handle_rreq,
            PacketType.RREP: self._handle_rrep,
            PacketType.RERR: self._handle_rerr,
        }

    def handle_packet(self, packet: Packet, from_id: int) -> None:
        handler = self._dispatch.get(packet.ptype)
        if handler is not None:
            handler(packet, from_id)

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
        relay = packet.copy()
        relay.info["sr_index"] += 1
        sr = relay.info["sr"]
        if relay.info["sr_index"] + 1 >= len(sr):
            self.log_drop(packet)  # malformed source route
            return
        self.log_packet(PacketType.DATA, Direction.FORWARDED)
        self._relay_source_routed(relay)

    def _handle_rreq(self, packet: Packet, from_id: int) -> None:
        self._rreq_recv.append(self.sim.now)
        info = packet.info
        origin, rreq_id, target = packet.origin, info["rreq_id"], info["target"]
        accumulated = info["route"]
        self._learn_path(origin, tuple(reversed(accumulated)), RouteEventKind.ADD)
        if self._seen_has(origin, rreq_id):
            return
        self._seen_mark(origin, rreq_id, self.sim.now)
        if self.node_id in accumulated:
            return  # already on the record: a loop

        if target == self.node_id:
            full_path = [*accumulated, self.node_id]
            self._send_rrep(origin, target, full_path)
            return
        if self.gratuitous_replies:
            cached = self.cache.get(target, self.sim.now)
            if cached is not None and not (set(cached) & set(accumulated)) and self.node_id not in cached:
                self.log_route_event(RouteEventKind.FIND)
                full_path = [*accumulated, self.node_id, *cached]
                self._send_rrep(origin, target, full_path)
                return
        if packet.ttl <= 1:
            return
        relay = packet.copy()
        relay.ttl -= 1
        relay.hops += 1
        relay.info["route"] = [*accumulated, self.node_id]
        self.log_packet(PacketType.RREQ, Direction.FORWARDED)
        self.node.broadcast(relay)

    def _purge_tick(self) -> None:
        now = self.sim.now
        removed, _ = self.cache.purge(now)
        for _ in range(removed):
            self.log_route_event(RouteEventKind.REMOVAL)
        self._seen_prune(now)
        self.sim.schedule(self.purge_interval, self._purge_tick)
