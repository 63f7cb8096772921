"""Dynamic Source Routing (DSR).

A from-scratch implementation of the protocol as the paper uses it
(Johnson & Maltz 1996, as implemented in ns-2):

* **source routing** — the originator puts the full path in the packet
  header; intermediate nodes relay along it;
* **route cache** — multiple paths per destination, learned from route
  discovery, from forwarding RREPs, and *promiscuously* from overheard
  source-routed packets (the paper's *route notice count* feature);
* **route discovery** — RREQ floods accumulating the traversed path,
  answered by the target or gratuitously from an intermediate cache;
* **route maintenance** — per-hop MAC feedback; on a broken link the
  detecting node sends a ROUTE ERROR back to the source and tries to
  *salvage* the packet with an alternative cached path (the paper's
  *route repair count*).

The cache prefers shorter paths and has no freshness ordering — which is
both why DSR copes well with mobility (many alternatives) and why the
paper's forged two-hop routes poison it so effectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.routing.base import PacketBuffer, RoutingProtocol
from repro.simulation.node import Node
from repro.simulation.packet import BROADCAST, Direction, Packet, PacketType
from repro.simulation.stats import RouteEventKind


@dataclass(slots=True)
class _CachedPath:
    """A cached path: hops from (but excluding) the owner, ending at dest."""

    path: tuple[int, ...]
    expires: float


class RouteCache:
    """DSR route cache: a few alternative paths per destination.

    Paths are stored from the owner's perspective — a tuple of node ids the
    packet will visit, ending at the destination and excluding ``owner``
    itself.  Lookup returns the shortest unexpired path.
    """

    def __init__(self, owner: int, max_paths_per_dest: int = 3, path_ttl: float = 30.0):
        self.owner = owner
        self.max_paths_per_dest = max_paths_per_dest
        self.path_ttl = path_ttl
        self._paths: dict[int, list[_CachedPath]] = {}

    def add(self, dest: int, path: tuple[int, ...], now: float) -> bool:
        """Cache a path; returns True if it was not already cached."""
        if not path or path[-1] != dest:
            raise ValueError(f"path must end at dest {dest}: {path}")
        entries = self._paths.setdefault(dest, [])
        for cached in entries:
            if cached.path == path:
                cached.expires = now + self.path_ttl
                return False
        entries.append(_CachedPath(path, now + self.path_ttl))
        if len(entries) > self.max_paths_per_dest:
            # Evict the longest path (ties: the stalest).
            entries.sort(key=lambda c: (len(c.path), c.expires))
            del entries[self.max_paths_per_dest :]
        return True

    def get(self, dest: int, now: float) -> tuple[int, ...] | None:
        """Shortest unexpired path to ``dest``, or None."""
        entries = self._paths.get(dest)
        if not entries:
            return None
        best = None
        for cached in entries:
            if cached.expires > now and (best is None or len(cached.path) < len(best)):
                best = cached.path
        return best

    def remove_link(self, a: int, b: int) -> int:
        """Drop every cached path traversing link ``a -> b``; return count."""
        removed = 0
        for dest, entries in self._paths.items():
            keep = []
            for cached in entries:
                full = (self.owner, *cached.path)
                broken = any(
                    full[i] == a and full[i + 1] == b for i in range(len(full) - 1)
                )
                if broken:
                    removed += 1
                else:
                    keep.append(cached)
            self._paths[dest] = keep
        return removed

    def purge(self, now: float) -> tuple[int, float]:
        """Drop expired paths.

        Returns how many were removed and the earliest expiry among the
        paths that survive (``inf`` when none do).
        """
        removed = 0
        earliest = math.inf
        paths = self._paths
        for dest, entries in paths.items():
            keep = [c for c in entries if c.expires > now]
            removed += len(entries) - len(keep)
            paths[dest] = keep
            for cached in keep:
                if cached.expires < earliest:
                    earliest = cached.expires
        return removed, earliest

    def __len__(self) -> int:
        return sum(len(v) for v in self._paths.values())


class DsrProtocol(RoutingProtocol):
    """DSR routing agent for one node."""

    name = "dsr"

    def __init__(
        self,
        node: Node,
        rreq_timeout: float = 1.0,
        rreq_retries: int = 2,
        net_ttl: int = 16,
        cache_ttl: float = 30.0,
        max_salvage: int = 1,
        gratuitous_replies: bool = True,
        purge_interval: float = 1.0,
    ):
        super().__init__(node)
        node.promiscuous = True  # DSR taps the channel to learn routes
        self.rreq_timeout = rreq_timeout
        self.rreq_retries = rreq_retries
        self.net_ttl = net_ttl
        self.max_salvage = max_salvage
        self.gratuitous_replies = gratuitous_replies
        self.purge_interval = purge_interval

        self.cache = RouteCache(owner=node.node_id, path_ttl=cache_ttl)
        self.rreq_id = 0
        self._forged_rreq_id = 1 << 20
        # Duplicate-RREQ filter (see RoutingProtocol._seen_mark).
        self._seen_by_origin: dict[int, dict[int, float]] = {}
        self._seen_count = 0
        #: Earliest simulation time the next cache purge could remove a
        #: path (-inf forces the first scan).
        self._purge_deadline = float("-inf")
        self._buffer = PacketBuffer()
        self._pending: dict[int, int] = {}
        # Flood hot path: RREQ copies arrive once per neighbor per flood,
        # so that one site logs through a channel (C-level append).
        self._rreq_recv = node.stats.packet_channel(
            PacketType.RREQ, Direction.RECEIVED
        )
        self.sim.schedule(self.sim.rng.uniform(0, purge_interval), self._purge_tick)

        self._install_handlers()

    # ------------------------------------------------------------------
    # Cache bookkeeping with Feature Set I logging
    # ------------------------------------------------------------------
    def _learn_path(self, dest: int, path: tuple[int, ...], kind: RouteEventKind) -> None:
        """Cache a path and log it as the given route event if it is new."""
        if dest == self.node_id or not path:
            return
        if len(set(path)) != len(path) or self.node_id in path:
            return  # looping path — never cache
        if self.cache.add(dest, path, self.sim.now):
            self.log_route_event(kind)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send_data(self, packet: Packet) -> None:
        if packet.dest == self.node_id:
            self.node.deliver(packet)
            return
        path = self.cache.get(packet.dest, self.sim.now)
        if path is not None:
            self.log_route_event(RouteEventKind.FIND)
            self._originate_on_path(packet, path)
            return
        evicted = self._buffer.add(packet.dest, packet)
        if evicted is not None:
            self.log_drop(evicted)
        if packet.dest not in self._pending:
            self._start_discovery(packet.dest)

    def _originate_on_path(self, packet: Packet, path: tuple[int, ...]) -> None:
        packet.info["sr"] = [self.node_id, *path]
        packet.info["sr_index"] = 0
        packet.info.setdefault("salvaged", 0)
        self.log_route_length(len(path))
        self._relay_source_routed(packet)

    def _relay_source_routed(self, packet: Packet) -> None:
        """Transmit a source-routed packet to its next hop."""
        sr = packet.info["sr"]
        index = packet.info["sr_index"]
        next_hop = sr[index + 1]
        on_fail = (
            self._on_data_link_fail
            if packet.ptype == PacketType.DATA
            else self._on_control_link_fail
        )
        if not self.node.unicast(packet, next_hop, on_fail):
            self.log_drop(packet)  # interface-queue overflow

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------
    def _start_discovery(self, dest: int, retries_used: int = 0) -> None:
        self._pending[dest] = retries_used
        self.rreq_id += 1
        packet = Packet(
            ptype=PacketType.RREQ,
            origin=self.node_id,
            dest=BROADCAST,
            size=48,
            ttl=self.net_ttl,
            info={"rreq_id": self.rreq_id, "target": dest, "route": [self.node_id]},
        )
        self._seen_mark(self.node_id, self.rreq_id, self.sim.now)
        self.log_packet(PacketType.RREQ, Direction.SENT)
        self.node.broadcast(packet)
        self.sim.schedule(self.rreq_timeout, self._discovery_timeout, dest, retries_used)

    def _discovery_timeout(self, dest: int, retries_used: int) -> None:
        if dest not in self._pending or self._pending[dest] != retries_used:
            return
        if self.cache.get(dest, self.sim.now) is not None:
            self._discovery_succeeded(dest)
            return
        if retries_used < self.rreq_retries:
            self._start_discovery(dest, retries_used + 1)
            return
        del self._pending[dest]
        for packet in self._buffer.pop_all(dest):
            self.log_drop(packet)

    def _discovery_succeeded(self, dest: int) -> None:
        self._pending.pop(dest, None)
        path = self.cache.get(dest, self.sim.now)
        for packet in self._buffer.pop_all(dest):
            if path is not None:
                self._originate_on_path(packet, path)
            else:
                self.log_drop(packet)

    def _rreq_fresh(
        self, packet: Packet, origin: int, info: dict, accumulated: list[int]
    ) -> None:
        """First-copy RREQ continuation (the RREQ handler's cold tail).

        Everything past the duplicate/loop discards: answer as the target,
        answer gratuitously from the cache, or rebroadcast with this node
        appended to the route record.
        """
        target = info["target"]
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

    def _send_rrep(self, origin: int, target: int, full_path: list[int]) -> None:
        """Reply with the discovered path, source-routed back to ``origin``.

        ``full_path`` runs origin -> ... -> this node [-> ... -> target].
        """
        my_pos = full_path.index(self.node_id)
        back = list(reversed(full_path[: my_pos + 1]))  # me -> ... -> origin
        packet = Packet(
            ptype=PacketType.RREP,
            origin=self.node_id,
            dest=origin,
            size=44 + 4 * len(full_path),
            ttl=self.net_ttl,
            info={"target": target, "route": list(full_path), "sr": back, "sr_index": 0},
        )
        self.log_packet(PacketType.RREP, Direction.SENT)
        self._relay_source_routed(packet)

    def _handle_rrep(self, packet: Packet, from_id: int) -> None:
        info = packet.info
        route = info["route"]
        target = info["target"]
        if packet.dest == self.node_id:
            self.log_packet(PacketType.RREP, Direction.RECEIVED)
            try:
                my_pos = route.index(self.node_id)
            except ValueError:
                return  # malformed
            self._learn_path(target, tuple(route[my_pos + 1 :]), RouteEventKind.ADD)
            if target in self._pending:
                self._discovery_succeeded(target)
            return
        # Intermediate RREP forwarder: learn the downstream part too.
        if self.node_id in route:
            my_pos = route.index(self.node_id)
            self._learn_path(target, tuple(route[my_pos + 1 :]), RouteEventKind.ADD)
        relay = packet.copy()
        relay.ttl -= 1
        relay.hops += 1
        if relay.ttl <= 0:
            self.log_drop(packet)
            return
        relay.info["sr_index"] += 1
        if relay.info["sr_index"] + 1 >= len(relay.info["sr"]):
            self.log_drop(packet)
            return
        self.log_packet(PacketType.RREP, Direction.FORWARDED)
        self._relay_source_routed(relay)

    # ------------------------------------------------------------------
    # Route maintenance
    # ------------------------------------------------------------------
    def _on_data_link_fail(self, packet: Packet, next_hop: int) -> None:
        removed = self.cache.remove_link(self.node_id, next_hop)
        for _ in range(removed):
            self.log_route_event(RouteEventKind.REMOVAL)
        sr = packet.info["sr"]
        origin = sr[0]
        if origin != self.node_id:
            self._send_rerr(packet, next_hop)
        # Salvage: try an alternative cached path to the destination.
        if packet.info.get("salvaged", 0) < self.max_salvage:
            alt = self.cache.get(packet.dest, self.sim.now)
            if alt is not None and next_hop != alt[0]:
                self.log_route_event(RouteEventKind.REPAIR)
                salvaged = packet.copy()
                salvaged.info["salvaged"] = packet.info.get("salvaged", 0) + 1
                salvaged.info["sr"] = [self.node_id, *alt]
                salvaged.info["sr_index"] = 0
                self._relay_source_routed(salvaged)
                return
        if origin == self.node_id:
            # Source with no alternative: re-discover, holding the packet.
            self.log_route_event(RouteEventKind.REPAIR)
            evicted = self._buffer.add(packet.dest, packet)
            if evicted is not None:
                self.log_drop(evicted)
            if packet.dest not in self._pending:
                self._start_discovery(packet.dest)
            return
        self.log_drop(packet)

    def _on_control_link_fail(self, packet: Packet, next_hop: int) -> None:
        removed = self.cache.remove_link(self.node_id, next_hop)
        for _ in range(removed):
            self.log_route_event(RouteEventKind.REMOVAL)
        self.log_drop(packet)

    def _send_rerr(self, failed_packet: Packet, broken_next_hop: int) -> None:
        """Tell the packet's source that the link to ``broken_next_hop`` died."""
        sr = failed_packet.info["sr"]
        index = failed_packet.info["sr_index"]
        back = list(reversed(sr[: index + 1]))  # me -> ... -> origin
        if len(back) < 2:
            return
        packet = Packet(
            ptype=PacketType.RERR,
            origin=self.node_id,
            dest=sr[0],
            size=32,
            ttl=self.net_ttl,
            info={"broken": (self.node_id, broken_next_hop), "sr": back, "sr_index": 0},
        )
        self.log_packet(PacketType.RERR, Direction.SENT)
        self._relay_source_routed(packet)

    def _handle_rerr(self, packet: Packet, from_id: int) -> None:
        a, b = packet.info["broken"]
        removed = self.cache.remove_link(a, b)
        for _ in range(removed):
            self.log_route_event(RouteEventKind.REMOVAL)
        if packet.dest in (self.node_id, BROADCAST):
            # Addressed to us, or a one-hop advisory broadcast: terminal.
            self.log_packet(PacketType.RERR, Direction.RECEIVED)
            return
        relay = packet.copy()
        relay.ttl -= 1
        relay.hops += 1
        if relay.ttl <= 0:
            self.log_drop(packet)
            return
        relay.info["sr_index"] += 1
        if relay.info["sr_index"] + 1 >= len(relay.info["sr"]):
            self.log_drop(packet)
            return
        self.log_packet(PacketType.RERR, Direction.FORWARDED)
        self._relay_source_routed(relay)

    # ------------------------------------------------------------------
    # Promiscuous learning — the *route notice count* feature
    # ------------------------------------------------------------------
    def handle_overhear(self, packet: Packet, from_id: int) -> None:
        sr = packet.info.get("sr")
        if not sr or self.node_id in sr:
            return
        try:
            pos = sr.index(from_id)
        except ValueError:
            return
        # from_id is in range of us, so [from_id, ...rest of the path] is a
        # usable path from here to the packet's final source-route hop.
        path = tuple(sr[pos:])
        if len(path) >= 2:
            self._learn_path(path[-1], path, RouteEventKind.NOTICE)

    # ------------------------------------------------------------------
    # Periodic machinery
    # ------------------------------------------------------------------
    def _purge_tick(self) -> None:
        now = self.sim.now
        if now >= self._purge_deadline:
            # A purge only removes paths with expires <= now, and between
            # scans a path's expiry only moves up (cache.add refreshes;
            # new paths expire a full TTL out; remove_link only deletes).
            # So the minimum expiry seen at a scan bounds the next tick
            # that could do anything, and earlier ticks skip bit-identically.
            removed, earliest = self.cache.purge(now)
            self._purge_deadline = min(earliest, now + self.cache.path_ttl)
            for _ in range(removed):
                self.log_route_event(RouteEventKind.REMOVAL)
        self._seen_prune(now)
        self.sim.schedule(self.purge_interval, self._purge_tick)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, from_id: int) -> None:
        handler = self.typed_handlers.get(packet.ptype)
        if handler is not None:
            handler(packet, from_id)

    def _install_handlers(self) -> None:
        """Build and publish the per-packet-type handlers.

        Mirrors :meth:`AodvProtocol._install_handlers`: the RREQ and DATA
        handlers — the two types that arrive once per neighbor per flood /
        per hop — run their cheap-discard decisions in one Python frame
        with hot state bound as closure locals, delegating to the cold
        helpers (:meth:`_rreq_fresh`, link-failure maintenance) the moment
        a packet stops being cheap.  RREP and RERR are plain methods.
        """
        sim = self.sim
        node = self.node
        node_id = self.node_id
        seen = self._seen_by_origin
        rreq_chan = self._rreq_recv
        cache_paths = self.cache._paths
        path_ttl = self.cache.path_ttl
        max_paths = self.cache.max_paths_per_dest
        path_cls = _CachedPath
        evict_key = lambda c: (len(c.path), c.expires)  # noqa: E731
        log_route_event = self.log_route_event
        log_packet = self.log_packet
        log_drop = self.log_drop
        deliver = node.deliver
        unicast = node.unicast
        on_data_fail = self._on_data_link_fail
        rreq_fresh = self._rreq_fresh
        ADD = RouteEventKind.ADD
        DATA = PacketType.DATA
        FORWARDED = Direction.FORWARDED

        def handle_rreq(packet: Packet, from_id: int) -> None:
            now = sim.now
            rreq_chan.append(now)
            info = packet.info
            origin = packet.origin
            accumulated = info["route"]
            # The accumulated record, reversed, is a path back to the
            # originator.  This is the mechanism the DSR black-hole script
            # exploits with a forged one-hop record: the reversed bogus path
            # (2 hops, through the attacker) out-competes longer legitimate
            # paths in the cache.
            # Inlined _learn_path(origin, reversed record, ADD) — including
            # the cache.add dedup/refresh/evict scan, so duplicate flood
            # copies (which still refresh the cached back-path) stay in
            # this frame.
            if origin != node_id and accumulated:
                path = tuple(reversed(accumulated))
                if len(set(path)) == len(path) and node_id not in path:
                    entries = cache_paths.get(origin)
                    if entries is None:
                        cache_paths[origin] = [path_cls(path, now + path_ttl)]
                        log_route_event(ADD)
                    else:
                        for cached in entries:
                            if cached.path == path:
                                cached.expires = now + path_ttl
                                break
                        else:
                            entries.append(path_cls(path, now + path_ttl))
                            if len(entries) > max_paths:
                                entries.sort(key=evict_key)
                                del entries[max_paths:]
                            log_route_event(ADD)
            rreq_id = info["rreq_id"]
            d = seen.get(origin)
            if d is None:
                seen[origin] = {rreq_id: now}
                self._seen_count += 1
            elif rreq_id in d:
                return  # duplicate flood copy: discarded right here
            else:
                d[rreq_id] = now
                self._seen_count += 1
            if node_id in accumulated:
                return  # already on the record: a loop
            rreq_fresh(packet, origin, info, accumulated)

        def handle_data(packet: Packet, from_id: int) -> None:
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
            relay = packet.copy()
            relay_info = relay.info
            index = relay_info["sr_index"] + 1
            relay_info["sr_index"] = index
            sr = relay_info["sr"]
            if index + 1 >= len(sr):
                log_drop(packet)  # malformed source route
                return
            log_packet(DATA, FORWARDED)
            # Inlined _relay_source_routed for a DATA relay.
            if not unicast(relay, sr[index + 1], on_data_fail):
                log_drop(relay)  # interface-queue overflow
            return

        self.typed_handlers = {
            PacketType.DATA: handle_data,
            PacketType.RREQ: handle_rreq,
            PacketType.RREP: self._handle_rrep,
            PacketType.RERR: self._handle_rerr,
        }
        node.refresh_dispatch()

    # ------------------------------------------------------------------
    # Attack surface (called only by repro.attacks)
    # ------------------------------------------------------------------
    def forge_route_advert(self, victim: int) -> Packet:
        """Build the black-hole forged RREQ of §4.1 / Table 6 for DSR.

        The bogus request claims ``victim`` originated it and that this
        node forwarded it as the victim's immediate neighbor (route record
        ``[victim, attacker]``).  Every node processing the flood caches
        the reversed record — a two-hop path to the victim through the
        attacker that out-competes longer legitimate paths.

        The requested destination is "selected" (paper §4.1) — the
        poisoning works through the route record alone — and the attacker
        selects one no node can answer from its cache, so no gratuitous
        reply suppresses the rebroadcast and the request floods the whole
        network.
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
                "target": (1 << 16) + victim,  # a destination that cannot exist
                "route": [victim, self.node_id],
            },
        )
