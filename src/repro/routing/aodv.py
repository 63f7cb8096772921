"""Ad-hoc On-demand Distance Vector routing (AODV).

A from-scratch implementation of the protocol as the paper uses it
(Perkins & Royer 1999, as implemented in ns-2):

* per-destination route table entries ``(next hop, hop count, destination
  sequence number, lifetime)``;
* reactive route discovery — RREQ floods answered by RREPs from the
  destination or from intermediate nodes holding a fresh-enough route;
* route maintenance — HELLO-based neighbor liveness, RERR propagation and
  local repair on link failure;
* freshness ordering by destination sequence number, then hop count.

The sequence-number ordering is exactly what the paper's black-hole script
abuses: a forged advertisement carrying the maximum sequence number wins
against every legitimate route and — as the paper observes — is never
displaced afterwards.  :meth:`AodvProtocol.forge_route_advert` builds that
forged RREQ; only the attack modules call it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.routing.base import PacketBuffer, RoutingProtocol
from repro.simulation.node import Node
from repro.simulation.packet import BROADCAST, Direction, Packet, PacketType
from repro.simulation.stats import RouteEventKind

AODV_MAX_SEQ = 2**32 - 1
"""Maximum destination sequence number — the black-hole attack's weapon."""


@dataclass(slots=True)
class AodvRouteEntry:
    """One row of the AODV route table."""

    dest: int
    next_hop: int
    hops: int
    seq: int
    expires: float
    valid: bool = True

    def fresher_than(self, seq: int, hops: int) -> bool:
        """RFC 3561 §6.2 ordering: higher seq wins, then lower hop count.

        Sequence comparison applies even to invalidated entries — a node
        must never accept stale routing information.  This destination-
        sequence memory is the mechanism the black-hole attack turns into
        permanent damage: a poisoned maximum sequence number rejects every
        legitimate update forever (the paper's §4.2 observation that the
        network "never rectifies" after the attack).
        """
        if self.seq != seq:
            return self.seq > seq
        if not self.valid:
            return False
        return self.hops <= hops


class AodvProtocol(RoutingProtocol):
    """AODV routing agent for one node."""

    name = "aodv"

    def __init__(
        self,
        node: Node,
        hello_interval: float = 1.0,
        allowed_hello_loss: int = 3,
        active_route_timeout: float = 10.0,
        rreq_timeout: float = 1.0,
        rreq_retries: int = 2,
        net_ttl: int = 16,
        purge_interval: float = 1.0,
    ):
        super().__init__(node)
        self.hello_interval = hello_interval
        self.allowed_hello_loss = allowed_hello_loss
        self.active_route_timeout = active_route_timeout
        self.rreq_timeout = rreq_timeout
        self.rreq_retries = rreq_retries
        self.net_ttl = net_ttl
        self.purge_interval = purge_interval

        self.table: dict[int, AodvRouteEntry] = {}
        #: Destination-sequence memory that outlives purged table entries
        #: (ns-2 behaviour; see :meth:`AodvRouteEntry.fresher_than`).
        self._seq_memory: dict[int, int] = {}
        self.seq = 0
        self.rreq_id = 0
        self._forged_rreq_id = 1 << 20  # distinct id space for forged adverts
        #: Duplicate-RREQ filter (see RoutingProtocol._seen_mark).
        self._seen_by_origin: dict[int, dict[int, float]] = {}
        self._seen_count = 0
        #: Earliest simulation time the next purge scan could have any
        #: effect (-inf forces the first scan).
        self._purge_deadline = float("-inf")
        self._buffer = PacketBuffer()
        self._pending: dict[int, int] = {}  # dest -> retries used
        self._last_heard: dict[int, float] = {}
        # Flood-volume logging channels: these three sites fire once per
        # delivered broadcast copy, so they bypass the log_packet frame
        # (see NodeStats.packet_channel — listener semantics preserved).
        packet_channel = node.stats.packet_channel
        self._rreq_recv = packet_channel(PacketType.RREQ, Direction.RECEIVED)
        self._rerr_recv = packet_channel(PacketType.RERR, Direction.RECEIVED)
        self._hello_recv = packet_channel(PacketType.HELLO, Direction.RECEIVED)

        # Periodic machinery: jittered starts avoid network-wide phase lock.
        self.sim.schedule(self.sim.rng.uniform(0, hello_interval), self._hello_tick)
        self.sim.schedule(self.sim.rng.uniform(0, purge_interval), self._purge_tick)

        self._install_handlers()

    # ------------------------------------------------------------------
    # Route table
    # ------------------------------------------------------------------
    def _update_route(self, dest: int, next_hop: int, hops: int, seq: int) -> bool:
        """Install a route if it is fresher than what the table holds.

        Returns True when the table changed; a genuinely *new* (or revived)
        route is logged as a route-add event for Feature Set I.
        """
        if dest == self.node_id:
            return False
        expires = self.sim.now + self.active_route_timeout
        table = self.table
        entry = table.get(dest)
        was_valid = False
        if entry is not None:
            # Inlined AodvRouteEntry.fresher_than (see its docstring for
            # the RFC 3561 §6.2 ordering this implements).
            eseq = entry.seq
            was_valid = entry.valid
            if (eseq > seq) if eseq != seq else (was_valid and entry.hops <= hops):
                if was_valid and entry.expires < expires:
                    entry.expires = expires
                return False
        memory = self._seq_memory
        known = memory.get(dest, -1)
        if known > seq:
            return False  # stale information: a purged entry knew better
        table[dest] = AodvRouteEntry(dest, next_hop, hops, seq, expires)
        if known < seq:
            memory[dest] = seq
        if not was_valid:
            self.log_route_event(RouteEventKind.ADD)
        return True

    def _valid_route(self, dest: int) -> AodvRouteEntry | None:
        entry = self.table.get(dest)
        if entry is not None and entry.valid and entry.expires > self.sim.now:
            return entry
        return None

    def _invalidate(self, entry: AodvRouteEntry) -> None:
        if entry.valid:
            entry.valid = False
            entry.seq += 1  # RFC: increment on invalidation
            self._seq_memory[entry.dest] = max(
                self._seq_memory.get(entry.dest, -1), entry.seq
            )
            self.log_route_event(RouteEventKind.REMOVAL)

    def _refresh(self, dest: int) -> None:
        entry = self.table.get(dest)
        if entry is not None and entry.valid:
            entry.expires = max(entry.expires, self.sim.now + self.active_route_timeout)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send_data(self, packet: Packet) -> None:
        if packet.dest == self.node_id:
            self.node.deliver(packet)
            return
        entry = self._valid_route(packet.dest)
        if entry is not None:
            self.log_route_event(RouteEventKind.FIND)
            self._transmit_data(packet, entry)
            return
        evicted = self._buffer.add(packet.dest, packet)
        if evicted is not None:
            self.log_drop(evicted)
        if packet.dest not in self._pending:
            self._start_discovery(packet.dest)

    def _transmit_data(self, packet: Packet, entry: AodvRouteEntry) -> None:
        self.log_route_length(entry.hops)
        self._refresh(entry.dest)
        if not self.node.unicast(packet, entry.next_hop, self._on_data_link_fail):
            self.log_drop(packet)  # interface-queue overflow

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------
    def _start_discovery(self, dest: int, retries_used: int = 0) -> None:
        self._pending[dest] = retries_used
        self.seq += 1
        self.rreq_id += 1
        entry = self.table.get(dest)
        # Request at least the remembered sequence number so the
        # destination catches its own counter up (RFC 3561 §6.6.1) and its
        # reply is not rejected as stale by our own sequence memory.
        known_seq = max(
            entry.seq if entry is not None else 0,
            self._seq_memory.get(dest, 0),
        )
        packet = Packet(
            ptype=PacketType.RREQ,
            origin=self.node_id,
            dest=BROADCAST,
            size=48,
            ttl=self.net_ttl,
            info={
                "rreq_id": self.rreq_id,
                "origin_seq": self.seq,
                "target": dest,
                "target_seq": known_seq,
            },
        )
        self._seen_mark(self.node_id, self.rreq_id, self.sim.now)
        self.log_packet(PacketType.RREQ, Direction.SENT)
        self.node.broadcast(packet)
        self.sim.schedule(self.rreq_timeout, self._discovery_timeout, dest, retries_used)

    def _discovery_timeout(self, dest: int, retries_used: int) -> None:
        if dest not in self._pending or self._pending[dest] != retries_used:
            return  # discovery already completed or superseded
        if self._valid_route(dest) is not None:
            self._discovery_succeeded(dest)
            return
        if retries_used < self.rreq_retries:
            self._start_discovery(dest, retries_used + 1)
            return
        del self._pending[dest]
        for packet in self._buffer.pop_all(dest):
            self.log_drop(packet)
        # Discovery (or local repair) ultimately failed: tell the
        # neighbourhood the destination is unreachable (RFC 3561 §6.12).
        self._send_rerr([dest])

    def _discovery_succeeded(self, dest: int) -> None:
        self._pending.pop(dest, None)
        entry = self._valid_route(dest)
        for packet in self._buffer.pop_all(dest):
            if entry is not None:
                self._transmit_data(packet, entry)
            else:  # route vanished between checks
                self.log_drop(packet)

    def _rreq_fresh(self, packet: Packet, from_id: int, origin: int, info: dict) -> None:
        """First-seen RREQ continuation (the RREQ handler's cold tail).

        The handler has already logged the receive, refreshed the reverse
        route and marked the request as seen.
        """
        if origin == self.node_id:
            return  # our own request echoed back (or forged in our name)

        target = info["target"]
        if target == self.node_id:
            # RFC 3561 §6.6.1: increment own sequence number only when the
            # request asks for exactly own+1 — never jump to an arbitrary
            # requested value.  This is why a forged maximum sequence
            # number is never "caught up to" and the poisoning persists.
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
            # Intermediate reply from the route table — a cache hit.
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

    def _send_rrep(self, origin: int, target: int, dest_seq: int, dest_hops: int) -> None:
        reverse = self._valid_route(origin)
        if reverse is None:
            return  # reverse path already gone; originator will retry
        packet = Packet(
            ptype=PacketType.RREP,
            origin=self.node_id,
            dest=origin,
            size=44,
            ttl=self.net_ttl,
            info={"target": target, "dest_seq": dest_seq, "hop_count": dest_hops},
        )
        self.log_packet(PacketType.RREP, Direction.SENT)
        self.node.unicast(packet, reverse.next_hop, self._on_control_link_fail)

    def _handle_rrep(self, packet: Packet, from_id: int) -> None:
        """RREP body (the RREP handler adds only the liveness update)."""
        info = packet.info
        info["hop_count"] += 1
        self._update_route(info["target"], from_id, info["hop_count"], info["dest_seq"])
        if packet.dest == self.node_id:
            self.log_packet(PacketType.RREP, Direction.RECEIVED)
            if info["target"] in self._pending:
                self._discovery_succeeded(info["target"])
            return
        reverse = self._valid_route(packet.dest)
        if reverse is None:
            self.log_drop(packet)
            return
        self.log_packet(PacketType.RREP, Direction.FORWARDED)
        self.node.unicast(packet, reverse.next_hop, self._on_control_link_fail)

    # ------------------------------------------------------------------
    # Route maintenance
    # ------------------------------------------------------------------
    def _on_data_link_fail(self, packet: Packet, next_hop: int) -> None:
        """A data transmission to ``next_hop`` got no MAC acknowledgement."""
        broken = self._break_link(next_hop)
        if packet.dest == self.node_id:
            return
        # Local repair: hold the packet and re-discover its destination.
        self.log_route_event(RouteEventKind.REPAIR)
        evicted = self._buffer.add(packet.dest, packet)
        if evicted is not None:
            self.log_drop(evicted)
        if packet.dest not in self._pending:
            self._start_discovery(packet.dest)
        others = [d for d in broken if d != packet.dest]
        if others:
            self._send_rerr(others)

    def _on_control_link_fail(self, packet: Packet, next_hop: int) -> None:
        self._break_link(next_hop)
        self.log_drop(packet)

    def _break_link(self, next_hop: int) -> list[int]:
        """Invalidate every route using ``next_hop``; return their dests."""
        broken = []
        for entry in self.table.values():
            if entry.valid and entry.next_hop == next_hop:
                self._invalidate(entry)
                broken.append(entry.dest)
        self._last_heard.pop(next_hop, None)
        return broken

    def _send_rerr(self, dests: list[int]) -> None:
        unreachable = []
        for dest in dests:
            entry = self.table.get(dest)
            unreachable.append((dest, entry.seq if entry is not None else 0))
        packet = Packet(
            ptype=PacketType.RERR,
            origin=self.node_id,
            dest=BROADCAST,
            size=32,
            ttl=1,
            info={"unreachable": unreachable},
        )
        self.log_packet(PacketType.RERR, Direction.SENT)
        self.node.broadcast(packet)

    def _relay_rerr(self, packet: Packet, invalidated: list[tuple[int, int]]) -> None:
        """Re-originate an RERR whose unreachable list invalidated routes."""
        relay = packet.copy()
        relay.origin = self.node_id  # propagation is re-originated
        relay.info["unreachable"] = invalidated
        self.log_packet(PacketType.RERR, Direction.FORWARDED)
        self.node.broadcast(relay)

    # ------------------------------------------------------------------
    # HELLO / periodic machinery
    # ------------------------------------------------------------------
    def _hello_tick(self) -> None:
        now = self.sim.now
        if any(e.valid for e in self.table.values()):
            packet = Packet(
                ptype=PacketType.HELLO,
                origin=self.node_id,
                dest=BROADCAST,
                size=32,
                ttl=1,
                info={"seq": self.seq},
            )
            self.log_packet(PacketType.HELLO, Direction.SENT)
            self.node.broadcast(packet)
        # Neighbor liveness: silence beyond the allowance breaks the link.
        deadline = now - self.allowed_hello_loss * self.hello_interval
        for neighbor, last in list(self._last_heard.items()):
            if last < deadline:
                broken = self._break_link(neighbor)
                if broken:
                    self._send_rerr(broken)
        self.sim.schedule(self.hello_interval, self._hello_tick)

    def _purge_tick(self) -> None:
        now = self.sim.now
        if now >= self._purge_deadline:
            # Scan with a deadline watermark: a scan can only act on an
            # entry at its expiry (valid: invalidate) or expiry + 3*ART
            # (invalid: delete), and between scans those action times only
            # move later — refreshes and invalidations raise them, and any
            # entry installed after a scan at t_s expires no earlier than
            # t_s + ART.  So ticks before min(action times, t_s + ART) are
            # provably no-ops, and skipping them gives the same trace as
            # walking the whole table every tick.
            art = self.active_route_timeout
            hold = 3 * art
            deadline = now + art
            for entry in list(self.table.values()):
                if entry.valid:
                    if entry.expires <= now:
                        self._invalidate(entry)
                        t = entry.expires + hold
                    else:
                        t = entry.expires
                elif entry.expires <= now - hold:
                    del self.table[entry.dest]
                    continue
                else:
                    t = entry.expires + hold
                if t < deadline:
                    deadline = t
            self._purge_deadline = deadline
        self._seen_prune(now)
        self.sim.schedule(self.purge_interval, self._purge_tick)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, from_id: int) -> None:
        handler = self.typed_handlers.get(packet.ptype)
        if handler is not None:
            handler(packet, from_id)
        else:
            # Unknown type: still record the sender's liveness.
            self._last_heard[from_id] = self.sim.now

    def _install_handlers(self) -> None:
        """Build and publish the per-packet-type handlers.

        Each handler records the sender's liveness first, then runs its
        packet type's decisions in a single Python frame: hot state (route
        table, sequence memory, per-origin seen dicts, stats channels,
        timeouts) is bound once as closure locals, and the handler delegates
        to the cold helpers (:meth:`_rreq_fresh`, :meth:`_handle_rrep`,
        :meth:`_relay_rerr`, :meth:`_transmit_data`, ...) as soon as a packet
        stops being a cheap case.  The map is published as
        ``typed_handlers`` so broadcast fan-out binds the type-specific
        handler per batch instead of re-dispatching per delivery.  The
        tests-only reference protocol (``tests/routing/reference.py``)
        carries the plain method bodies these handlers must match.
        """
        sim = self.sim
        node = self.node
        node_id = self.node_id
        table = self.table
        table_get = table.get
        memory = self._seq_memory
        memory_get = memory.get
        last_heard = self._last_heard
        seen = self._seen_by_origin
        seen_get = seen.get
        rreq_chan = self._rreq_recv
        rerr_chan = self._rerr_recv
        hello_chan = self._hello_recv
        art = self.active_route_timeout
        entry_cls = AodvRouteEntry
        log_route_event = self.log_route_event
        log_drop = self.log_drop
        log_packet = self.log_packet
        deliver = node.deliver
        invalidate = self._invalidate
        transmit = self._transmit_data
        rreq_fresh = self._rreq_fresh
        rrep_body = self._handle_rrep
        ADD = RouteEventKind.ADD
        DATA = PacketType.DATA
        FORWARDED = Direction.FORWARDED

        def handle_rreq(packet: Packet, from_id: int) -> None:
            now = sim.now
            last_heard[from_id] = now
            rreq_chan.append(now)
            info = packet.info
            origin = packet.origin
            if origin != node_id:
                # Reverse route toward the originator (possibly forged — the
                # table cannot tell, which is exactly the black hole's
                # lever).  Inlined _update_route(origin, from_id,
                # packet.hops + 1, info["origin_seq"]): same decisions, same
                # float values.
                seq = info["origin_seq"]
                entry = table_get(origin)
                if entry is not None:
                    eseq = entry.seq
                    was_valid = entry.valid
                    if (
                        (eseq > seq)
                        if eseq != seq
                        else (was_valid and entry.hops <= packet.hops + 1)
                    ):
                        if was_valid:
                            expires = now + art
                            if entry.expires < expires:
                                entry.expires = expires
                    else:
                        known = memory_get(origin, -1)
                        if known <= seq:
                            table[origin] = entry_cls(
                                origin, from_id, packet.hops + 1, seq, now + art
                            )
                            if known < seq:
                                memory[origin] = seq
                            if not was_valid:
                                log_route_event(ADD)
                else:
                    known = memory_get(origin, -1)
                    if known <= seq:
                        table[origin] = entry_cls(
                            origin, from_id, packet.hops + 1, seq, now + art
                        )
                        if known < seq:
                            memory[origin] = seq
                        log_route_event(ADD)
            rreq_id = info["rreq_id"]
            d = seen_get(origin)
            if d is None:
                seen[origin] = {rreq_id: now}
                self._seen_count += 1
            elif rreq_id in d:
                return  # duplicate flood copy: discarded right here
            else:
                d[rreq_id] = now
                self._seen_count += 1
            rreq_fresh(packet, from_id, origin, info)

        def handle_hello(packet: Packet, from_id: int) -> None:
            now = sim.now
            last_heard[from_id] = now
            hello_chan.append(now)
            if from_id == node_id:
                return
            # Inlined _update_route(from_id, from_id, 1, info["seq"]).
            seq = packet.info["seq"]
            entry = table_get(from_id)
            if entry is not None:
                eseq = entry.seq
                was_valid = entry.valid
                if (eseq > seq) if eseq != seq else (was_valid and entry.hops <= 1):
                    if was_valid:
                        expires = now + art
                        if entry.expires < expires:
                            entry.expires = expires
                    return
            else:
                was_valid = False
            known = memory_get(from_id, -1)
            if known > seq:
                return
            table[from_id] = entry_cls(from_id, from_id, 1, seq, now + art)
            if known < seq:
                memory[from_id] = seq
            if not was_valid:
                log_route_event(ADD)

        def handle_rerr(packet: Packet, from_id: int) -> None:
            now = sim.now
            last_heard[from_id] = now
            rerr_chan.append(now)
            # Routes are invalidated when their next hop is the node
            # *announcing* the error — the packet's origin, i.e. its
            # network-layer source.  For honest RERRs that is also the
            # link-layer sender; the distinction is exactly what identity
            # impersonation forges (§2.3: addresses "are easy to be forged
            # ... if the underlying communication channel is not
            # encrypted").
            announcer = packet.origin
            invalidated = None
            for dest, _seq in packet.info["unreachable"]:
                entry = table_get(dest)
                if entry is not None and entry.valid and entry.next_hop == announcer:
                    invalidate(entry)
                    if invalidated is None:
                        invalidated = [(dest, entry.seq)]
                    else:
                        invalidated.append((dest, entry.seq))
            if invalidated:
                self._relay_rerr(packet, invalidated)

        def handle_data(packet: Packet, from_id: int) -> None:
            now = sim.now
            last_heard[from_id] = now
            drop_filter = node.drop_filter
            if drop_filter is not None and drop_filter(packet):
                return  # malicious silent drop — no trace at the attacker
            if packet.dest == node_id:
                deliver(packet)
                return
            packet.ttl -= 1
            packet.hops += 1
            if packet.ttl <= 0:
                log_drop(packet)
                return
            entry = table_get(packet.dest)
            if entry is None or not entry.valid or entry.expires <= now:
                log_drop(packet)
                self._send_rerr([packet.dest])
                return
            log_packet(DATA, FORWARDED)
            # Inlined _refresh(packet.origin).
            oentry = table_get(packet.origin)
            if oentry is not None and oentry.valid:
                expires = now + art
                if oentry.expires < expires:
                    oentry.expires = expires
            transmit(packet, entry)

        def handle_rrep(packet: Packet, from_id: int) -> None:
            last_heard[from_id] = sim.now
            rrep_body(packet, from_id)

        self.typed_handlers = {
            PacketType.RREQ: handle_rreq,
            PacketType.HELLO: handle_hello,
            PacketType.RERR: handle_rerr,
            PacketType.DATA: handle_data,
            PacketType.RREP: handle_rrep,
        }
        node.refresh_dispatch()

    # ------------------------------------------------------------------
    # Attack surface (called only by repro.attacks)
    # ------------------------------------------------------------------
    def forge_route_advert(self, victim: int) -> Packet:
        """Build the black-hole forged RREQ of §4.1 / Table 6.

        The bogus request names ``victim`` as both source and target,
        carries the maximum allowed sequence number and claims this node is
        the victim's immediate neighbor (``hops=1``).  Every node processing
        it installs a maximum-freshness reverse route to ``victim`` through
        the attacker — a route no legitimate update can ever displace.

        The *requested* sequence number is also the maximum, so no
        intermediate node can answer from its table and suppress the
        rebroadcast: the forged request floods the whole network, exactly
        the flooding overhead (and network-wide poisoning) the paper
        describes.
        """
        self._forged_rreq_id += 1
        return Packet(
            ptype=PacketType.RREQ,
            origin=victim,
            dest=BROADCAST,
            size=48,
            ttl=self.net_ttl,
            hops=1,
            info={
                "rreq_id": self._forged_rreq_id,
                "origin_seq": AODV_MAX_SEQ,
                "target": victim,
                "target_seq": AODV_MAX_SEQ,
                # RFC 3561 'D' flag: only the destination may answer.  For
                # the attacker this guarantees the forged request floods
                # the whole network instead of being answered (and
                # suppressed) one hop away by freshly poisoned tables.
                "destination_only": True,
            },
        )
