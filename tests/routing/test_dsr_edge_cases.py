"""DSR edge cases: buffering, retries, salvage limits, cache hygiene."""

import pytest

from repro.simulation.packet import Direction, Packet, PacketType
from repro.simulation.stats import RouteEventKind

from tests.routing.helpers import Net, line, sent_count
from tests.routing.reference import ReferenceDsr


class TestBuffering:
    def test_packets_buffered_during_discovery_all_delivered(self):
        net = line(3, protocol="dsr")
        for _ in range(5):
            net.send(0, 2)
        net.run(10.0)
        assert net.delivered(2) == 5

    def test_buffer_overflow_drops_oldest(self):
        net = Net([(0, 0), (200, 0), (10_000, 0)], protocol="dsr")
        proto = net.protocols[0]
        for _ in range(proto._buffer.max_per_dest + 10):
            net.send(0, 2)
        net.run(20.0)
        drops = net.stats(0).packet_count(PacketType.DATA, Direction.DROPPED)
        assert drops == proto._buffer.max_per_dest + 10


class TestDiscoveryRetries:
    def test_retries_then_gives_up(self):
        net = Net([(0, 0), (10_000, 0)], protocol="dsr")
        net.send(0, 1)
        net.run(30.0)
        expected = 1 + net.protocols[0].rreq_retries
        assert sent_count(net, 0, PacketType.RREQ) == expected

    def test_no_duplicate_discovery_for_same_dest(self):
        net = line(3, protocol="dsr")
        net.send(0, 2)
        net.send(0, 2)
        net.run(0.1)
        assert sent_count(net, 0, PacketType.RREQ) == 1


class TestSalvageLimits:
    def test_salvage_count_bounded(self):
        """A packet is salvaged at most ``max_salvage`` times."""
        net = line(3, protocol="dsr")
        proto = net.protocols[1]
        packet = Packet(ptype=PacketType.DATA, origin=0, dest=2,
                        info={"sr": [0, 1, 2], "sr_index": 1,
                              "salvaged": proto.max_salvage})
        # Simulate a link failure at node 1 with the salvage budget spent.
        proto.cache.add(2, (2,), net.sim.now)
        proto._on_data_link_fail(packet, next_hop=2)
        net.run(1.0)
        assert net.stats(1).packet_count(PacketType.DATA, Direction.DROPPED) >= 1

    def test_source_rediscovers_when_no_alternative(self):
        net = line(3, protocol="dsr")
        net.send(0, 2)
        net.run(5.0)
        rreqs_before = sent_count(net, 0, PacketType.RREQ)
        net.mobility.move(1, (10_000.0, 0.0))  # relay gone
        net.send(0, 2)
        net.run(10.0)
        assert sent_count(net, 0, PacketType.RREQ) > rreqs_before


class TestCacheHygiene:
    def test_looping_paths_never_cached(self):
        net = line(3, protocol="dsr")
        proto = net.protocols[0]
        proto._learn_path(2, (1, 1, 2), RouteEventKind.ADD)   # duplicate node
        proto._learn_path(2, (0, 1, 2), RouteEventKind.ADD)   # contains self
        assert proto.cache.get(2, net.sim.now) is None

    def test_cache_purge_logs_removals(self):
        net = line(3, protocol="dsr", cache_ttl=5.0)
        net.send(0, 2)
        net.run(4.0)
        assert net.protocols[0].cache.get(2, net.sim.now) is not None
        net.run(20.0)  # idle past the TTL; purge task runs every second
        assert net.protocols[0].cache.get(2, net.sim.now) is None
        assert net.stats(0).route_event_count(RouteEventKind.REMOVAL) >= 1

    @pytest.mark.parametrize("shipped", [False, True])
    def test_seen_rreq_cache_pruned(self, shipped):
        """Both seen stores forget ancient entries once >512 accumulate.

        ``shipped=False`` runs the reference stack's tuple-keyed store.
        """
        net = line(2, protocol="dsr" if shipped else ReferenceDsr)
        proto = net.protocols[0]
        for i in range(600):
            proto._seen_mark(99, i, -1.0)
        assert proto._seen_size() == 600
        assert proto._seen_has(99, 0)
        # Outlast the 30 s forget horizon, then guarantee one more
        # purge tick fires past it.
        net.run(31.0 + proto.purge_interval)
        assert proto._seen_size() < 600
        assert not proto._seen_has(99, 0)


class TestGratuitousReplies:
    """Exercised via a directly injected RREQ: in a live network the
    promiscuous cache usually pre-empts the discovery entirely (sources
    overhear routes before they ever need to flood)."""

    @staticmethod
    def _fabricated_rreq(rreq_id):
        from repro.simulation.packet import BROADCAST
        return Packet(
            ptype=PacketType.RREQ, origin=0, dest=BROADCAST, ttl=16,
            info={"rreq_id": rreq_id, "target": 3, "route": [0]},
        )

    def test_cached_intermediate_answers_discovery(self):
        net = line(4, protocol="dsr")
        net.send(1, 3)  # warm node 1's cache with a route to 3
        net.run(5.0)
        assert net.protocols[1].cache.get(3, net.sim.now) is not None
        finds_before = net.stats(1).route_event_count(RouteEventKind.FIND)
        net.protocols[1].handle_packet(self._fabricated_rreq(777), from_id=0)
        net.run(2.0)
        assert sent_count(net, 1, PacketType.RREP) >= 1
        assert net.stats(1).route_event_count(RouteEventKind.FIND) > finds_before

    def test_gratuitous_replies_can_be_disabled(self):
        net = line(4, protocol="dsr", gratuitous_replies=False)
        net.send(1, 3)
        net.run(5.0)
        net.protocols[1].handle_packet(self._fabricated_rreq(778), from_id=0)
        net.run(2.0)
        # Node 1 relays the discovery instead of answering from cache.
        assert sent_count(net, 1, PacketType.RREP) == 0
        assert net.stats(1).packet_count(PacketType.RREQ, Direction.FORWARDED) >= 1
