"""Shared harness for routing-protocol unit tests.

Builds small static topologies (no mobility) so route discovery, data
forwarding, maintenance and attacks can be asserted deterministically.
"""

from __future__ import annotations

from repro.routing.aodv import AodvProtocol
from repro.routing.dsr import DsrProtocol
from repro.simulation.engine import Simulator
from repro.simulation.medium import WirelessMedium
from repro.simulation.mobility import StaticMobility
from repro.simulation.node import Node
from repro.simulation.packet import Direction, PacketType
from repro.simulation.stats import TraceRecorder


class Net:
    """A static test network with one routing protocol on every node.

    ``protocol`` is ``"aodv"``, ``"dsr"`` or a protocol class (e.g. a
    reference stack from :mod:`tests.routing.reference`).
    """

    def __init__(self, positions, protocol="aodv", tx_range=250.0, seed=0, **proto_kwargs):
        self.sim = Simulator(seed=seed)
        self.mobility = StaticMobility(list(positions))
        self.medium = WirelessMedium(self.sim, self.mobility, tx_range=tx_range)
        self.recorder = TraceRecorder(len(positions))
        self.nodes = [
            Node(i, self.sim, self.medium, self.recorder[i])
            for i in range(len(positions))
        ]
        if isinstance(protocol, type):
            cls = protocol
        else:
            cls = AodvProtocol if protocol == "aodv" else DsrProtocol
        self.protocols = [cls(node, **proto_kwargs) for node in self.nodes]

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def send(self, src: int, dst: int, size: int = 512) -> None:
        self.nodes[src].send_data(dst, size=size)

    def delivered(self, node: int) -> int:
        return self.nodes[node].data_delivered

    def stats(self, node: int):
        return self.recorder[node]


def line(n: int, spacing: float = 200.0, **kwargs) -> Net:
    """A chain 0 - 1 - ... - n-1 where only adjacent nodes are in range."""
    return Net([(i * spacing, 0.0) for i in range(n)], **kwargs)


def sent_count(net: Net, node: int, ptype: PacketType) -> int:
    return net.stats(node).packet_count(ptype, Direction.SENT)


def received_count(net: Net, node: int, ptype: PacketType) -> int:
    return net.stats(node).packet_count(ptype, Direction.RECEIVED)
