"""Shared wireless medium: unit-disc connectivity, serialization, loss.

The model is deliberately simple — the paper's detector consumes traffic
*statistics*, not radio physics — but keeps the properties that shape those
statistics:

* **unit-disc connectivity** — nodes hear each other iff within
  ``tx_range`` metres (ns-2's default 250 m two-ray-ground range);
* **transmission serialization** — each node owns a half-duplex transmitter;
  back-to-back sends queue behind each other and overflow drops occur under
  congestion (this is what makes an update-storm attack visible);
* **per-delivery jitter** — a small random delay de-synchronizes broadcast
  storms, standing in for CSMA backoff;
* **link failure detection** — a failed unicast (receiver out of range or a
  random loss on every retry) invokes the sender's failure callback after a
  retry delay, standing in for missing 802.11 ACKs.  This is what triggers
  route maintenance in AODV and DSR;
* **promiscuous overhearing** — nodes in range of a unicast they are not
  party to can tap it, which DSR's route-cache eavesdropping (the paper's
  *route notice count* feature) relies on.

Connectivity queries go through a
:class:`~repro.simulation.spatial.SpatialNeighborIndex` (grid-pruned
candidates + exact unit-disc post-filter) at every network size and on
partially attached stacks; the answers, their order and the shared-RNG
draws they cause are those of a naive ascending scan — see DESIGN.md
§Performance for the invariants.

Promiscuous taps on a unicast first replay a naive bystander sweep's only
side effect — lazily advancing every attached node's mobility, which
consumes shared-RNG waypoint draws — with ``position(sender)`` plus one
ascending ``advance_all``, and stop there whenever no node listens (every
AODV and OLSR scenario), so traces stay bit-identical.

Broadcast delivery folds a transmission's whole fan-out into one kernel
delivery batch (:meth:`~repro.simulation.engine.Simulator.schedule_batch`,
see DESIGN.md §Event kernel): all loss and jitter draws happen in a single
pass in ascending receiver order, one engine seq is reserved per surviving
receiver (the seqs one event per receiver would have allocated), arrivals
are sorted, and each entry carries the receiver's pre-bound protocol
handler so the kernel dispatches deliveries inline for as long as the
batch's next entry is globally next in ``(time, seq)`` order — pushing the
batch back on the queue whenever any other event interleaves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.simulation.engine import Simulator
from repro.simulation.mobility import RandomWaypointMobility
from repro.simulation.packet import Packet
from repro.simulation.spatial import SpatialNeighborIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.node import Node

FailureCallback = Callable[[Packet, int], None]


class WirelessMedium:
    """The shared radio channel connecting all nodes.

    Parameters
    ----------
    sim, mobility:
        The event kernel and the mobility model giving node positions.
    tx_range:
        Transmission/interference radius in metres.
    bandwidth_bps:
        Link rate used to serialize transmissions (2 Mb/s, the classic
        802.11 figure used in the ns-2 MANET studies).
    mac_overhead:
        Fixed per-transmission time covering MAC framing and backoff.
    loss_rate:
        Independent per-delivery loss probability.
    max_queue_delay:
        A transmission that would have to wait longer than this in the
        interface queue is dropped (congestion drop).
    retry_delay:
        Time after which a failed unicast is reported to the sender.
    """

    def __init__(
        self,
        sim: Simulator,
        mobility: RandomWaypointMobility,
        tx_range: float = 250.0,
        bandwidth_bps: float = 2e6,
        mac_overhead: float = 0.0008,
        loss_rate: float = 0.0,
        max_queue_delay: float = 0.5,
        retry_delay: float = 0.05,
    ):
        self.sim = sim
        self.mobility = mobility
        self.tx_range = tx_range
        self.bandwidth_bps = bandwidth_bps
        self.mac_overhead = mac_overhead
        self.loss_rate = loss_rate
        self.max_queue_delay = max_queue_delay
        self.retry_delay = retry_delay
        self.nodes: list["Node"] = []
        self._busy_until: list[float] = []
        self._promiscuous: set[int] = set()
        self.index = SpatialNeighborIndex(mobility, tx_range)
        # Per-node dispatch tables: medium delivery jumps straight to the
        # routing protocol's handler once one is installed (see
        # Node.set_routing), skipping the on_receive trampoline.
        self._handlers: list[Callable[[Packet, int], None]] = []
        self._overhear_handlers: list[Callable[[Packet, int], None]] = []
        # Typed dispatch: per-node {ptype: handler} maps published by the
        # routing protocols (see RoutingProtocol.typed_handlers), and the
        # per-ptype rows derived from them.  A broadcast fan-out knows its
        # packet type once, so each batch entry can bind the receiver's
        # type-specific handler instead of re-dispatching per delivery.
        # A node without a typed map (no protocol yet, or a protocol that
        # publishes none) gets its generic receive handler in every row.
        self._typed_handlers: list[dict | None] = []
        self._typed_rows: dict[int, list[Callable[[Packet, int], None]]] = {}
        self._tx_times: dict[int, float] = {}
        # Counters for tests / diagnostics.
        self.congestion_drops = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    def attach(self, node: "Node") -> None:
        """Register a node; ids must be attached in order 0..n-1."""
        if node.node_id != len(self.nodes):
            raise ValueError(
                f"nodes must be attached in id order: got {node.node_id}, "
                f"expected {len(self.nodes)}"
            )
        self.nodes.append(node)
        self._busy_until.append(0.0)
        self._handlers.append(node.on_receive)
        self._overhear_handlers.append(node.on_overhear)
        self._typed_handlers.append(None)
        self._typed_rows.clear()
        if node.promiscuous:
            self._note_promiscuous(node.node_id, True)

    def _note_promiscuous(self, node_id: int, enabled: bool) -> None:
        """Keep the promiscuous-listener registry in sync (see ``Node``)."""
        if enabled:
            self._promiscuous.add(node_id)
        else:
            self._promiscuous.discard(node_id)

    def _note_handlers(
        self,
        node_id: int,
        receive: Callable[[Packet, int], None],
        overhear: Callable[[Packet, int], None],
        typed: dict | None = None,
    ) -> None:
        """Point the dispatch tables at the node's installed protocol."""
        self._handlers[node_id] = receive
        self._overhear_handlers[node_id] = overhear
        self._typed_handlers[node_id] = typed
        self._typed_rows.clear()

    def _typed_row(self, ptype: int) -> list[Callable[[Packet, int], None]]:
        """Per-receiver handler row for one packet type (built lazily).

        Row ``i`` is node ``i``'s typed handler for ``ptype`` when its
        protocol published one, else its generic receive handler.  Rows are
        invalidated whenever a node attaches or swaps handlers.
        """
        row = [
            typed[ptype] if typed is not None and ptype in typed else generic
            for typed, generic in zip(self._typed_handlers, self._handlers)
        ]
        self._typed_rows[ptype] = row
        return row

    def in_range(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` can currently hear each other."""
        return self.mobility.distance(a, b, self.sim.now) <= self.tx_range

    def neighbors(self, node_id: int) -> list[int]:
        """Ids of all attached nodes currently within range of ``node_id``."""
        return self.index.neighbors(node_id, self.sim.now, len(self.nodes))

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _tx_time(self, packet: Packet) -> float:
        # Memoized by size: the arithmetic is deterministic, so the cached
        # float is bit-identical to recomputing it.
        tx = self._tx_times.get(packet.size)
        if tx is None:
            tx = packet.size * 8.0 / self.bandwidth_bps + self.mac_overhead
            self._tx_times[packet.size] = tx
        return tx

    def _acquire_transmitter(self, sender: int, tx_time: float) -> float | None:
        """Reserve the sender's transmitter; return the airtime start.

        Returns ``None`` (congestion drop) when the interface queue is too
        long.  ``tx_time`` is computed once per transmission by the caller
        and shared with the arrival schedule.
        """
        now = self.sim.now
        start = max(now, self._busy_until[sender])
        if start - now > self.max_queue_delay:
            self.congestion_drops += 1
            return None
        self._busy_until[sender] = start + tx_time
        return start

    def broadcast(self, sender: int, packet: Packet) -> bool:
        """Transmit to every node currently in range.

        Returns False if the transmission was dropped at the interface
        queue.  Individual receivers may still miss the packet through
        ``loss_rate``.
        """
        tx_time = self._tx_time(packet)
        start = self._acquire_transmitter(sender, tx_time)
        if start is None:
            return False
        self.sim.schedule_at(start + tx_time, self._fan_out, sender, packet)
        return True

    def _fan_out(self, sender: int, packet: Packet) -> None:
        """Batched fan-out: all draws in one pass, one queued batch.

        Per receiver, in ascending id order: an optional loss draw, then a
        jitter draw (``now + 0.002 * random()``, bit-identical to
        ``now + rng.uniform(0.0, 0.002)``).  One engine seq is reserved per
        surviving receiver — precisely the seqs one ``schedule`` call per
        receiver would consume — so the batch entries carry the same global
        ``(time, seq)`` keys either way.  Entries hold the receiver's
        pre-bound handler; the kernel dispatches them (see
        :meth:`Simulator.schedule_batch`).
        """
        receivers = self.neighbors(sender)
        if not receivers:
            return
        sim = self.sim
        rng_random = sim.rng.random
        now = sim.now
        loss = self.loss_rate
        # Receiver pre-classification: the packet type is fixed for the
        # whole fan-out, so resolve each receiver's type-specific handler
        # here — per batch, not per delivery.
        ptype = packet.ptype
        handlers = self._typed_rows.get(ptype)
        if handlers is None:
            handlers = self._typed_row(ptype)
        seq = sim._seq
        if loss:
            entries = []
            for receiver in receivers:
                if rng_random() < loss:
                    continue
                entries.append((now + 0.002 * rng_random(), seq, handlers[receiver]))
                seq += 1
            sim._seq = seq
            if not entries:
                return
        else:
            # Lossless fast form: the comprehension draws one jitter per
            # receiver in the same ascending order as the loop above.
            entries = [
                (now + 0.002 * rng_random(), s, handlers[receiver])
                for s, receiver in enumerate(receivers, seq)
            ]
            sim._seq = seq + len(receivers)
        # Counted at fan-out (diagnostic only): every entry is a delivery.
        self.delivered += len(entries)
        entries.sort()
        sim.schedule_batch(entries, packet, sender)

    def unicast(
        self,
        sender: int,
        packet: Packet,
        next_hop: int,
        on_fail: FailureCallback | None = None,
    ) -> bool:
        """Transmit to one specific neighbor with link-failure feedback.

        If the receiver is out of range at delivery time (or the delivery
        is lost), ``on_fail(packet, next_hop)`` fires after ``retry_delay``
        — the MAC-feedback signal AODV and DSR route maintenance rely on.

        Returns False on an interface-queue drop (``on_fail`` is *not*
        invoked in that case; the caller already knows).
        """
        tx_time = self._tx_time(packet)
        start = self._acquire_transmitter(sender, tx_time)
        if start is None:
            return False
        self.sim.schedule_at(
            start + tx_time, self._deliver_unicast, sender, packet, next_hop, on_fail
        )
        return True

    def _deliver_unicast(
        self,
        sender: int,
        packet: Packet,
        next_hop: int,
        on_fail: FailureCallback | None,
    ) -> None:
        rng = self.sim.rng
        ok = (
            0 <= next_hop < len(self.nodes)
            and self.in_range(sender, next_hop)
            and not (self.loss_rate and rng.random() < self.loss_rate)
        )
        if ok:
            # Bit-identical jitter: uniform(0, b) == b * random().
            self.sim.schedule(
                0.001 * rng.random(), self._hand_off, next_hop, packet, sender
            )
            self._deliver_taps(sender, packet, next_hop, rng)
        elif on_fail is not None:
            self.sim.schedule(self.retry_delay, on_fail, packet, next_hop)

    def _deliver_taps(self, sender: int, packet: Packet, next_hop: int, rng) -> None:
        """Promiscuous taps: bystanders in range overhear the exchange.

        First the draw-order replay of a naive bystander sweep: the sender,
        then every attached node in ascending id order, is advanced to
        now (lazy advances consume shared-RNG waypoint draws).  When no
        node listens promiscuously (AODV and OLSR scenarios) that is all.
        Otherwise the listeners in the sender's grid block — a superset of
        those in range; DSR marks *every* node promiscuous, so the block
        is what keeps taps sub-O(N) — bar the sender and the next hop pass
        the exact unit-disc filter in ascending id order, and each one
        left gets its overhear handler scheduled with one jitter draw.
        """
        t = self.sim.now
        mobility = self.mobility
        n = len(self.nodes)
        x, y = mobility.position(sender, t)
        mobility.advance_all(t, n)
        listening = self._promiscuous
        if not listening:
            return
        ids = [
            b for b in self.index.block(x, y, t, n)
            if b in listening and b != next_hop
        ]
        overhear = self._overhear_handlers
        schedule = self.sim.schedule
        for bystander in mobility.within(ids, x, y, t, self.tx_range, sender):
            schedule(0.001 * rng.random(), overhear[bystander], packet, sender)

    def _hand_off(self, receiver: int, packet: Packet, sender: int) -> None:
        """Unicast hand-off: straight to the dispatch-table handler."""
        self.delivered += 1
        self._handlers[receiver](packet, sender)
