"""Unit tests for the spatial neighbor index.

The index is an optimization with a hard contract: every query answers
exactly what the naive O(N) scan answers, in the same order, while
consuming the same shared-RNG draw sequence.  These tests pin the
contract piece by piece; the 64- and 100-node cases in
``test_trace_golden.py`` check it end to end.
"""

import math
import random

import numpy as np
import pytest

from repro.simulation.engine import Simulator
from repro.simulation.medium import SMALL_N_CUTOFF, WirelessMedium
from repro.simulation.mobility import RandomWaypointMobility, StaticMobility
from repro.simulation.node import Node
from repro.simulation.spatial import SpatialNeighborIndex
from repro.simulation.stats import TraceRecorder


def build_stack(n_nodes, seed, use_index):
    sim = Simulator(seed=seed)
    mobility = RandomWaypointMobility(n_nodes=n_nodes, rng=sim.rng)
    medium = WirelessMedium(sim, mobility, use_index=use_index)
    recorder = TraceRecorder(n_nodes)
    for i in range(n_nodes):
        Node(i, sim, medium, recorder[i])
    return sim, mobility, medium


class TestVectorizedPositions:
    def test_positions_at_bit_equal_to_scalar(self):
        """The vectorized evaluator must agree with position() to the bit."""
        mobility = RandomWaypointMobility(n_nodes=40, rng=random.Random(7))
        for t in (0.0, 3.7, 12.0, 55.5, 200.25, 1000.0):
            xs, ys = mobility.positions_at(t)
            for i in range(40):
                x, y = mobility.position(i, t)
                assert xs[i] == x and ys[i] == y, f"node {i} at t={t}"

    def test_positions_of_subset(self):
        mobility = RandomWaypointMobility(n_nodes=20, rng=random.Random(3))
        t = 17.5
        mobility.advance_all(t)
        ids = np.array([2, 5, 11, 19], dtype=np.int64)
        xs, ys = mobility.positions_of(ids, t)
        for k, i in enumerate(ids):
            x, y = mobility.position(int(i), t)
            assert xs[k] == x and ys[k] == y

    def test_speeds_at_matches_scalar(self):
        mobility = RandomWaypointMobility(n_nodes=15, rng=random.Random(5))
        for t in (0.0, 8.0, 30.0, 120.0):
            speeds = mobility.speeds_at(t)
            assert speeds == [mobility.speed(i, t) for i in range(15)]

    def test_positions_cache_returns_same_arrays(self):
        mobility = RandomWaypointMobility(n_nodes=10, rng=random.Random(1))
        a = mobility.positions_at(5.0)
        b = mobility.positions_at(5.0)
        assert a[0] is b[0] and a[1] is b[1]


class TestIndexVsNaiveScan:
    def test_neighbors_identical_over_time(self):
        """Same seed, same query stream: identical neighbor lists."""
        sim_a, _, medium_a = build_stack(40, seed=9, use_index=False)
        sim_b, _, medium_b = build_stack(40, seed=9, use_index=True)
        workload = random.Random(123)
        t = 0.0
        for _ in range(400):
            t += workload.uniform(0.005, 0.4)
            node = workload.randrange(40)
            sim_a.now = sim_b.now = t
            assert medium_a.neighbors(node) == medium_b.neighbors(node)

    def test_rng_stream_stays_aligned(self):
        """Both modes must consume identical shared-RNG draw sequences."""
        sim_a, _, medium_a = build_stack(25, seed=4, use_index=False)
        sim_b, _, medium_b = build_stack(25, seed=4, use_index=True)
        t = 0.0
        for step in range(200):
            t += 0.31
            sim_a.now = sim_b.now = t
            medium_a.neighbors(step % 25)
            medium_b.neighbors(step % 25)
            assert sim_a.rng.getstate() == sim_b.rng.getstate(), f"step {step}"

    def test_in_range_parity(self):
        sim_a, mob_a, medium_a = build_stack(12, seed=2, use_index=False)
        sim_b, _, medium_b = build_stack(12, seed=2, use_index=True)
        sim_a.now = sim_b.now = 42.0
        for a in range(12):
            for b in range(12):
                assert medium_a.in_range(a, b) == medium_b.in_range(a, b)


class TestFilterInRange:
    def test_boundary_exactness(self):
        """Candidates on the disc boundary use the literal hypot test."""
        positions = [(0.0, 0.0), (250.0, 0.0), (250.0000001, 0.0), (176.7766952966369, 176.7766952966369)]
        mobility = StaticMobility(positions)
        index = SpatialNeighborIndex(mobility, tx_range=250.0)
        ids = np.arange(1, 4, dtype=np.int64)
        kept = index.filter_in_range(ids, 0.0, 0.0, 0.0).tolist()
        expected = [
            i for i in (1, 2, 3)
            if math.hypot(positions[i][0], positions[i][1]) <= 250.0
        ]
        assert kept == expected

    def test_preserves_id_order(self):
        mobility = StaticMobility([(0.0, 0.0)] + [(float(i), 0.0) for i in range(1, 9)])
        index = SpatialNeighborIndex(mobility, tx_range=250.0)
        ids = np.array([3, 1, 7, 2], dtype=np.int64)
        assert index.filter_in_range(ids, 0.0, 0.0, 0.0).tolist() == [3, 1, 7, 2]


class TestRebuildPolicy:
    def test_lazy_rebuild_on_quantum(self):
        mobility = RandomWaypointMobility(n_nodes=10, rng=random.Random(8))
        index = SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=1.0)
        index.neighbors(0, 0.0)
        index.neighbors(1, 0.5)
        assert index.rebuilds == 1  # within the quantum: snapshot reused
        index.neighbors(2, 1.6)
        assert index.rebuilds == 2

    def test_version_bump_invalidates(self):
        """A teleport must invalidate the snapshot immediately."""
        mobility = StaticMobility([(0.0, 0.0), (100.0, 0.0), (600.0, 0.0)])
        index = SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=10.0)
        assert index.neighbors(0, 0.0) == [1]
        mobility.move(2, (50.0, 0.0))
        assert index.neighbors(0, 0.1) == [1, 2]

    def test_cell_size_covers_drift(self):
        mobility = RandomWaypointMobility(n_nodes=5, rng=random.Random(0), max_speed=20.0)
        index = SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=0.25)
        # A cell spans range + worst-case drift, so the 3x3 query block
        # reaches one full cell beyond the centre cell.
        assert index.cell_size == pytest.approx(255.0)

    def test_rejects_bad_parameters(self):
        mobility = StaticMobility([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            SpatialNeighborIndex(mobility, tx_range=0.0)
        with pytest.raises(ValueError):
            SpatialNeighborIndex(mobility, tx_range=250.0, rebuild_quantum=-1.0)


class TestMediumFallback:
    def test_partial_stack_uses_naive_scan(self):
        """Fewer attached nodes than mobility knows => naive scan."""
        sim = Simulator(seed=0)
        mobility = RandomWaypointMobility(n_nodes=10, rng=sim.rng)
        medium = WirelessMedium(sim, mobility, use_index=True)
        recorder = TraceRecorder(3)
        for i in range(3):
            Node(i, sim, medium, recorder[i])
        assert not medium._index_usable()
        assert isinstance(medium.neighbors(0), list)

    def test_default_index_follows_the_cutoff(self):
        """The index is built from SMALL_N_CUTOFF nodes up, unless forced."""
        for n_nodes, expect_index in ((SMALL_N_CUTOFF - 1, False), (SMALL_N_CUTOFF, True)):
            sim = Simulator(seed=0)
            mobility = RandomWaypointMobility(n_nodes=n_nodes, rng=sim.rng)
            assert (WirelessMedium(sim, mobility).index is not None) == expect_index
            assert WirelessMedium(sim, mobility, use_index=False).index is None

    def test_promiscuous_registry_tracks_setter(self):
        sim = Simulator(seed=0)
        mobility = RandomWaypointMobility(n_nodes=3, rng=sim.rng)
        medium = WirelessMedium(sim, mobility, use_index=True)
        recorder = TraceRecorder(3)
        nodes = [Node(i, sim, medium, recorder[i]) for i in range(3)]
        assert medium._promiscuous_ids.size == 0
        nodes[1].promiscuous = True
        assert medium._promiscuous_ids.tolist() == [1]
        nodes[1].promiscuous = False
        assert medium._promiscuous_ids.size == 0
