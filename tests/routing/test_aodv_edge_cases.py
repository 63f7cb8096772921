"""AODV edge cases: buffering, TTL, discovery retries, RREQ dedup."""

import pytest

from repro.simulation.packet import Direction, Packet, PacketType
from repro.simulation.stats import RouteEventKind

from tests.routing.helpers import Net, line, received_count, sent_count
from tests.routing.reference import ReferenceAodv


class TestBuffering:
    def test_packets_buffered_during_discovery_all_delivered(self):
        net = line(3)
        for _ in range(5):
            net.send(0, 2)  # all sent before any route exists
        net.run(10.0)
        assert net.delivered(2) == 5

    def test_buffer_overflow_drops_oldest(self):
        net = Net([(0, 0), (200, 0), (10_000, 0)])  # dest unreachable
        proto = net.protocols[0]
        for _ in range(proto._buffer.max_per_dest + 10):
            net.send(0, 2)
        net.run(20.0)
        drops = net.stats(0).packet_count(PacketType.DATA, Direction.DROPPED)
        assert drops == proto._buffer.max_per_dest + 10


class TestDiscoveryRetries:
    def test_retries_then_gives_up(self):
        net = Net([(0, 0), (10_000, 0)])
        net.send(0, 1)
        net.run(30.0)
        # Initial attempt + rreq_retries retries.
        expected = 1 + net.protocols[0].rreq_retries
        assert sent_count(net, 0, PacketType.RREQ) == expected

    def test_failed_discovery_announces_unreachable(self):
        net = Net([(0, 0), (200, 0), (10_000, 0)])
        net.send(0, 2)
        net.run(30.0)
        assert sent_count(net, 0, PacketType.RERR) >= 1

    def test_no_duplicate_discovery_for_same_dest(self):
        net = line(3)
        net.send(0, 2)
        net.send(0, 2)  # while the first discovery is pending
        net.run(0.1)
        assert sent_count(net, 0, PacketType.RREQ) == 1


class TestDedupAndTtl:
    def test_rreq_processed_once_per_id(self):
        net = line(3)
        net.send(0, 2)
        net.run(10.0)
        # Node 1 hears node 0's RREQ and possibly echoes of its own
        # rebroadcast, but forwards each discovery only once.
        assert net.stats(1).packet_count(PacketType.RREQ, Direction.FORWARDED) <= \
            sent_count(net, 0, PacketType.RREQ)

    def test_data_ttl_expiry_dropped(self):
        net = line(3)
        net.send(0, 2)
        net.run(5.0)  # routes established
        packet = Packet(ptype=PacketType.DATA, origin=0, dest=2, ttl=1)
        # Inject at node 1 with ttl about to expire.
        net.protocols[1].handle_packet(packet, from_id=0)
        net.run(1.0)
        assert net.stats(1).packet_count(PacketType.DATA, Direction.DROPPED) >= 1

    @pytest.mark.parametrize("shipped", [False, True])
    def test_seen_rreq_cache_pruned(self, shipped):
        """Both seen stores forget ancient entries once >512 accumulate.

        ``shipped=False`` runs the reference stack's tuple-keyed store.
        """
        net = line(2, protocol="aodv" if shipped else ReferenceAodv)
        proto = net.protocols[0]
        for i in range(600):
            proto._seen_mark(99, i, -1.0)  # strictly older than any purge horizon
        assert proto._seen_size() == 600
        assert proto._seen_has(99, 0)
        # Outlast the 30 s forget horizon, then guarantee one more
        # purge tick fires past it.
        net.run(31.0 + proto.purge_interval)
        assert proto._seen_size() < 600
        assert not proto._seen_has(99, 0)


class TestRouteRefresh:
    def test_active_route_stays_alive_under_traffic(self):
        net = line(3)
        for k in range(20):
            net.send(0, 2)
            net.run(5.0)
        # Steady traffic: the route is refreshed, not rediscovered.
        assert sent_count(net, 0, PacketType.RREQ) <= 2
        assert net.delivered(2) == 20

    def test_idle_route_expires(self):
        net = line(3)
        net.send(0, 2)
        net.run(5.0)
        proto = net.protocols[0]
        assert proto._valid_route(2) is not None
        net.run(3 * proto.active_route_timeout)
        assert proto._valid_route(2) is None
