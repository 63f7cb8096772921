"""Unit tests for the wireless medium."""

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.medium import WirelessMedium
from repro.simulation.mobility import StaticMobility
from repro.simulation.packet import Packet, PacketType
from repro.simulation.stats import NodeStats


class RecordingNode:
    """A minimal medium-compatible node that records deliveries."""

    def __init__(self, node_id, medium, promiscuous=False):
        self.node_id = node_id
        self.promiscuous = promiscuous
        self.received = []
        self.overheard = []
        medium.attach(self)

    def on_receive(self, packet, from_id):
        self.received.append((packet, from_id))

    def on_overhear(self, packet, from_id):
        self.overheard.append((packet, from_id))


def build(positions, promiscuous=(), **medium_kwargs):
    sim = Simulator(seed=0)
    mobility = StaticMobility(positions)
    medium = WirelessMedium(sim, mobility, tx_range=250.0, **medium_kwargs)
    nodes = [
        RecordingNode(i, medium, promiscuous=(i in promiscuous))
        for i in range(len(positions))
    ]
    return sim, medium, nodes


def data_packet(origin=0, dest=1):
    return Packet(ptype=PacketType.DATA, origin=origin, dest=dest, size=100)


class TestRemovedKeywords:
    """The kernel's bucket-lane width, the medium's index snapshot
    lifetime and its scan-or-index choice are no longer options."""

    def test_simulator_lane_quantum(self):
        with pytest.raises(TypeError):
            Simulator(lane_quantum=0.004)

    def test_medium_rebuild_quantum(self):
        with pytest.raises(TypeError):
            build([(0, 0), (100, 0)], rebuild_quantum=0.25)

    def test_medium_use_index(self):
        for use_index in (None, False, True):
            with pytest.raises(TypeError):
                build([(0, 0), (100, 0)], use_index=use_index)


class TestConnectivity:
    def test_neighbors_within_range(self):
        sim, medium, nodes = build([(0, 0), (100, 0), (600, 0)])
        assert medium.neighbors(0) == [1]
        assert medium.neighbors(1) == [0]
        assert medium.neighbors(2) == []

    def test_in_range_boundary(self):
        sim, medium, nodes = build([(0, 0), (250, 0), (250.1, 0)])
        assert medium.in_range(0, 1)
        assert not medium.in_range(0, 2)

    def test_attach_out_of_order_rejected(self):
        sim = Simulator()
        medium = WirelessMedium(sim, StaticMobility([(0, 0), (1, 0)]))

        class Fake:
            node_id = 5
            promiscuous = False

        with pytest.raises(ValueError):
            medium.attach(Fake())


class TestBroadcast:
    def test_broadcast_reaches_all_in_range(self):
        sim, medium, nodes = build([(0, 0), (100, 0), (200, 0), (600, 0)])
        medium.broadcast(0, data_packet())
        sim.run()
        assert len(nodes[1].received) == 1
        assert len(nodes[2].received) == 1
        assert len(nodes[3].received) == 0

    def test_sender_does_not_receive_own_broadcast(self):
        sim, medium, nodes = build([(0, 0), (100, 0)])
        medium.broadcast(0, data_packet())
        sim.run()
        assert nodes[0].received == []

    def test_broadcast_carries_sender_id(self):
        sim, medium, nodes = build([(0, 0), (100, 0)])
        medium.broadcast(0, data_packet())
        sim.run()
        assert nodes[1].received[0][1] == 0

    def test_total_loss_suppresses_delivery(self):
        sim, medium, nodes = build([(0, 0), (100, 0)], loss_rate=1.0)
        medium.broadcast(0, data_packet())
        sim.run()
        assert nodes[1].received == []


class TestUnicast:
    def test_unicast_delivers_to_target_only(self):
        sim, medium, nodes = build([(0, 0), (100, 0), (150, 0)])
        medium.unicast(0, data_packet(), 1)
        sim.run()
        assert len(nodes[1].received) == 1
        assert nodes[2].received == []

    def test_unicast_out_of_range_invokes_on_fail(self):
        sim, medium, nodes = build([(0, 0), (600, 0)])
        failures = []
        medium.unicast(0, data_packet(), 1, on_fail=lambda p, nh: failures.append(nh))
        sim.run()
        assert failures == [1]
        assert nodes[1].received == []

    def test_unicast_success_does_not_invoke_on_fail(self):
        sim, medium, nodes = build([(0, 0), (100, 0)])
        failures = []
        medium.unicast(0, data_packet(), 1, on_fail=lambda p, nh: failures.append(nh))
        sim.run()
        assert failures == []

    def test_failure_checked_at_delivery_time(self):
        """A receiver that moves away during queueing is a link failure."""
        sim = Simulator(seed=0)
        mobility = StaticMobility([(0, 0), (100, 0)])
        medium = WirelessMedium(sim, mobility)
        nodes = [RecordingNode(i, medium) for i in range(2)]
        failures = []
        medium.unicast(0, data_packet(), 1, on_fail=lambda p, nh: failures.append(nh))
        mobility.move(1, (900.0, 900.0))  # move before the airtime completes
        sim.run()
        assert failures == [1]

    def test_promiscuous_bystander_overhears_unicast(self):
        sim, medium, nodes = build([(0, 0), (100, 0), (50, 50)], promiscuous={2})
        medium.unicast(0, data_packet(), 1)
        sim.run()
        assert len(nodes[2].overheard) == 1
        assert nodes[2].received == []

    def test_non_promiscuous_bystander_does_not_overhear(self):
        sim, medium, nodes = build([(0, 0), (100, 0), (50, 50)])
        medium.unicast(0, data_packet(), 1)
        sim.run()
        assert nodes[2].overheard == []


class TestSerialization:
    def test_transmissions_serialize_on_one_interface(self):
        sim, medium, nodes = build([(0, 0), (100, 0)])
        n = 5
        for _ in range(n):
            medium.unicast(0, data_packet(), 1)
        sim.run()
        assert len(nodes[1].received) == n
        # Serialized transmissions cannot finish faster than n * tx_time.
        assert sim.now >= n * medium._tx_time(data_packet()) * 0.9

    def test_queue_overflow_drops(self):
        sim, medium, nodes = build([(0, 0), (100, 0)], max_queue_delay=0.001)
        sent = sum(medium.broadcast(0, data_packet()) for _ in range(100))
        sim.run()
        assert medium.congestion_drops > 0
        assert sent < 100
        assert len(nodes[1].received) == sent
