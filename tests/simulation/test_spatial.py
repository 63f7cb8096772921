"""Unit tests for the spatial neighbor index.

The grid is the medium's only neighbor path, with a hard contract: every
query answers exactly what the naive O(N) scan answers, in the same order,
while consuming the same shared-RNG draw sequence.  The scan survives as
the oracle :func:`tests.simulation.reference.scan_neighbors`; these tests
pin the contract piece by piece on twin stacks, and
``test_trace_golden.py`` checks it end to end.
"""

import math
import random

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.medium import WirelessMedium
from repro.simulation.mobility import RandomWaypointMobility, StaticMobility
from repro.simulation.node import Node
from repro.simulation.packet import Packet, PacketType
from repro.simulation.spatial import SpatialNeighborIndex
from repro.simulation.stats import TraceRecorder
from tests.simulation.reference import scan_neighbors


def build_stack(n_nodes, seed, attached=None, promiscuous=False):
    """A seeded stack; ``attached < n_nodes`` leaves the tail unattached."""
    attached = n_nodes if attached is None else attached
    sim = Simulator(seed=seed)
    mobility = RandomWaypointMobility(n_nodes=n_nodes, rng=sim.rng)
    medium = WirelessMedium(sim, mobility)
    recorder = TraceRecorder(attached)
    for i in range(attached):
        Node(i, sim, medium, recorder[i], promiscuous=promiscuous)
    return sim, mobility, medium


def query_stream(n_queries, n_nodes, seed, max_step=0.4):
    """Increasing query times with a random querying node each."""
    workload = random.Random(seed)
    t = 0.0
    for _ in range(n_queries):
        t += workload.uniform(0.005, max_step)
        yield t, workload.randrange(n_nodes)


class TestVectorizedPositions:
    """``speeds_at``: the all-nodes read of the sampling ticks."""

    def test_speeds_at_matches_scalar(self):
        mobility = RandomWaypointMobility(n_nodes=15, rng=random.Random(5))
        for t in (0.0, 8.0, 30.0, 120.0):
            speeds = mobility.speeds_at(t)
            assert speeds == [mobility.speed(i, t) for i in range(15)]


class TestIndexVsNaiveScan:
    def test_neighbors_identical_over_time(self):
        """Same seed, same query stream: identical neighbor lists."""
        sim_a, _, medium_a = build_stack(40, seed=9)
        sim_b, _, medium_b = build_stack(40, seed=9)
        for t, node in query_stream(400, 40, seed=123):
            sim_a.now = sim_b.now = t
            assert medium_a.neighbors(node) == scan_neighbors(medium_b, node)

    def test_rng_stream_stays_aligned(self):
        """The grid must consume the scan's shared-RNG draw sequence."""
        sim_a, _, medium_a = build_stack(25, seed=4)
        sim_b, _, medium_b = build_stack(25, seed=4)
        t = 0.0
        for step in range(200):
            t += 0.31
            sim_a.now = sim_b.now = t
            medium_a.neighbors(step % 25)
            scan_neighbors(medium_b, step % 25)
            assert sim_a.rng.getstate() == sim_b.rng.getstate(), f"step {step}"

    @pytest.mark.parametrize(
        "n_nodes, attached",
        [(5, 5), (20, 20), (47, 47), (48, 48), (120, 120), (40, 17)],
        ids=["5", "20", "47", "48", "120", "17of40"],
    )
    def test_matches_the_scan_at_every_size(self, n_nodes, attached):
        """Lists and RNG state equal the oracle's after every query, on
        both sides of the retired 48-node cutoff and on a partial stack."""
        sim_a, mob_a, medium_a = build_stack(n_nodes, seed=n_nodes, attached=attached)
        sim_b, mob_b, medium_b = build_stack(n_nodes, seed=n_nodes, attached=attached)
        for t, node in query_stream(300, attached, seed=attached):
            sim_a.now = sim_b.now = t
            assert medium_a.neighbors(node) == scan_neighbors(medium_b, node), t
            assert sim_a.rng.getstate() == sim_b.rng.getstate(), t
        # Unattached nodes are never advanced.
        assert mob_a._pause[attached:] == mob_b._pause[attached:]

    @pytest.mark.parametrize("n_nodes", [20, 120])
    def test_taps_match_the_scan_sweep(self, n_nodes):
        """All-promiscuous stacks: the same bystanders, in the same order,
        with the same jitter draws as the oracle's full neighbor sweep."""
        sim_a, _, medium_a = build_stack(n_nodes, seed=3, promiscuous=True)
        sim_b, _, medium_b = build_stack(n_nodes, seed=3, promiscuous=True)
        packet = Packet(PacketType.DATA, origin=0, dest=1, size=512)
        pick = random.Random(n_nodes)
        for t, sender in query_stream(200, n_nodes, seed=7):
            next_hop = pick.randrange(n_nodes)
            sim_a.now = sim_b.now = t
            sim_a._heap.clear()
            medium_a._deliver_taps(sender, packet, next_hop, sim_a.rng)
            tapped = [
                (time, event.callback.__self__.node_id)
                for time, _, event in sorted(sim_a._heap, key=lambda e: e[1])
            ]
            expected = [
                (t + 0.001 * sim_b.rng.random(), b)
                for b in scan_neighbors(medium_b, sender)
                if b != next_hop and medium_b.nodes[b].promiscuous
            ]
            assert tapped == expected, t
            assert sim_a.rng.getstate() == sim_b.rng.getstate(), t

    def test_in_range_parity(self):
        sim, _, medium = build_stack(12, seed=2)
        sim.now = 42.0
        for a in range(12):
            in_range = scan_neighbors(medium, a)
            for b in range(12):
                if b != a:
                    assert medium.in_range(a, b) == (b in in_range)


class TestFilterInRange:
    def test_boundary_exactness(self):
        """Candidates on the disc boundary use the literal hypot test."""
        positions = [(0.0, 0.0), (250.0, 0.0), (250.0000001, 0.0), (176.7766952966369, 176.7766952966369)]
        mobility = StaticMobility(positions)
        kept = mobility.within([1, 2, 3], 0.0, 0.0, 0.0, 250.0, skip=0)
        expected = [
            i for i in (1, 2, 3)
            if math.hypot(positions[i][0], positions[i][1]) <= 250.0
        ]
        assert kept == expected

    def test_preserves_id_order(self):
        mobility = StaticMobility([(0.0, 0.0)] + [(float(i), 0.0) for i in range(1, 9)])
        assert mobility.within([3, 1, 7, 2], 0.0, 0.0, 0.0, 250.0, skip=0) == [3, 1, 7, 2]
        assert mobility.within([3, 1, 7, 2], 0.0, 0.0, 0.0, 250.0, skip=7) == [3, 1, 2]


class TestRebuildPolicy:
    def test_lazy_rebuild_on_quantum(self):
        mobility = RandomWaypointMobility(n_nodes=10, rng=random.Random(8))
        index = SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=1.0)
        index.neighbors(0, 0.0, 10)
        index.neighbors(1, 0.5, 10)
        assert index.rebuilds == 1  # within the quantum: snapshot reused
        index.neighbors(2, 1.6, 10)
        assert index.rebuilds == 2

    def test_version_bump_invalidates(self):
        """A teleport must invalidate the snapshot immediately."""
        mobility = StaticMobility([(0.0, 0.0), (100.0, 0.0), (600.0, 0.0)])
        index = SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=10.0)
        assert index.neighbors(0, 0.0, 3) == [1]
        mobility.move(2, (50.0, 0.0))
        assert index.neighbors(0, 0.1, 3) == [1, 2]

    def test_attached_count_change_invalidates(self):
        """A node attached mid-snapshot is a candidate from the next query."""
        mobility = StaticMobility([(0.0, 0.0), (100.0, 0.0), (50.0, 0.0)])
        index = SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=10.0)
        assert index.neighbors(0, 0.0, 2) == [1]
        assert index.neighbors(0, 0.1, 3) == [1, 2]
        assert index.rebuilds == 2

    def test_cell_size_covers_drift(self):
        mobility = RandomWaypointMobility(n_nodes=5, rng=random.Random(0), max_speed=20.0)
        index = SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=0.25)
        # A cell spans range + worst-case drift, so the 3x3 query block
        # reaches one full cell beyond the centre cell.
        assert index.cell_size == pytest.approx(255.0)

    def test_rejects_bad_parameters(self):
        mobility = StaticMobility([(0.0, 0.0), (1.0, 1.0)])
        for tx_range in (0.0, math.nan):
            with pytest.raises(ValueError, match="tx_range"):
                SpatialNeighborIndex(mobility, tx_range=tx_range)
        for quantum in (-1.0, math.nan):
            with pytest.raises(ValueError, match="rebuild_quantum"):
                SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=quantum)


class TestMediumFallback:
    """The medium around its one index: partial stacks and listeners."""

    def test_partial_stack_matches_naive_scan(self):
        """Fewer attached nodes than mobility knows: the grid holds only
        the attached ids and answers what the scan answers."""
        sim_a, _, medium_a = build_stack(10, seed=0, attached=3)
        sim_b, _, medium_b = build_stack(10, seed=0, attached=3)
        for t, node in query_stream(50, 3, seed=1, max_step=40.0):
            sim_a.now = sim_b.now = t
            assert medium_a.neighbors(node) == scan_neighbors(medium_b, node)
            assert sim_a.rng.getstate() == sim_b.rng.getstate()

    def test_promiscuous_registry_tracks_setter(self):
        sim = Simulator(seed=0)
        mobility = RandomWaypointMobility(n_nodes=3, rng=sim.rng)
        medium = WirelessMedium(sim, mobility)
        recorder = TraceRecorder(3)
        nodes = [Node(i, sim, medium, recorder[i]) for i in range(3)]
        assert medium._promiscuous == set()
        nodes[1].promiscuous = True
        assert medium._promiscuous == {1}
        nodes[1].promiscuous = False
        assert medium._promiscuous == set()
