"""Unit tests for random-waypoint mobility."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.mobility import RandomWaypointMobility, StaticMobility


@pytest.fixture
def model():
    return RandomWaypointMobility(
        n_nodes=5, area=(1000.0, 1000.0), max_speed=20.0, pause_time=10.0,
        rng=random.Random(3),
    )


class TestRandomWaypoint:
    def test_positions_stay_inside_area(self, model):
        for t in range(0, 2000, 7):
            for node in range(5):
                x, y = model.position(node, float(t))
                assert 0 <= x <= 1000
                assert 0 <= y <= 1000

    def test_speed_bounded_by_max(self, model):
        for t in range(0, 2000, 13):
            for node in range(5):
                assert 0.0 <= model.speed(node, float(t)) <= 20.0

    def test_position_continuous_over_time(self, model):
        """Displacement between close instants is bounded by max speed."""
        for node in range(5):
            prev = model.position(node, 100.0)
            for k in range(1, 50):
                t = 100.0 + 0.5 * k
                cur = model.position(node, t)
                dist = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
                assert dist <= 20.0 * 0.5 + 1e-9
                prev = cur

    def test_node_eventually_moves(self, model):
        start = model.position(0, 0.0)
        later = model.position(0, 500.0)
        assert start != later

    def test_speed_zero_while_paused(self):
        # With a huge pause time the node finishes one leg (bounded by the
        # field diagonal over the minimum speed) and then pauses forever.
        m = RandomWaypointMobility(n_nodes=1, pause_time=1e9, rng=random.Random(0))
        t_late = 2 * 1500.0 / 0.5  # diagonal / min_speed, with margin
        assert m.speed(0, t_late) == 0.0
        assert m.position(0, t_late) == m.position(0, t_late + 1000.0)

    def test_queries_must_not_go_backwards_incoherently(self, model):
        """Lazy advancement: repeated queries at the same time agree."""
        p1 = model.position(2, 300.0)
        p2 = model.position(2, 300.0)
        assert p1 == p2

    def test_distance_symmetric(self, model):
        assert model.distance(0, 1, 50.0) == pytest.approx(model.distance(1, 0, 50.0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility(n_nodes=0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(n_nodes=2, min_speed=0.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(n_nodes=2, min_speed=5.0, max_speed=1.0)
        for min_speed, max_speed in ((math.nan, math.nan), (math.nan, 20.0),
                                     (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(ValueError, match="max_speed"):
                RandomWaypointMobility(n_nodes=2, min_speed=min_speed, max_speed=max_speed)
        for pause_time in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="pause_time"):
                RandomWaypointMobility(n_nodes=2, pause_time=pause_time)


class TestStaticMobility:
    def test_positions_fixed(self):
        m = StaticMobility([(0.0, 0.0), (100.0, 0.0)])
        assert m.position(0, 0.0) == (0.0, 0.0)
        assert m.position(0, 1e6) == (0.0, 0.0)
        assert m.speed(1, 50.0) == 0.0

    def test_move_teleports(self):
        m = StaticMobility([(0.0, 0.0), (100.0, 0.0)])
        m.move(1, (500.0, 500.0))
        assert m.position(1, 0.0) == (500.0, 500.0)

    def test_distance(self):
        m = StaticMobility([(0.0, 0.0), (3.0, 4.0)])
        assert m.distance(0, 1, 0.0) == pytest.approx(5.0)

    def test_empty_positions_rejected(self):
        with pytest.raises(ValueError):
            StaticMobility([])


# ----------------------------------------------------------------------
# The exact in-range filter and the shared-RNG contract (property tests)
# ----------------------------------------------------------------------
#: Non-decreasing query times: running sums of non-negative steps (zero
#: steps repeat an instant; long steps cross several legs in one advance).
query_times = st.lists(
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False), min_size=1, max_size=25
).map(lambda steps: [sum(steps[: k + 1]) for k in range(len(steps))])


def make_model(n_nodes: int, seed: int, pause_time: float) -> RandomWaypointMobility:
    return RandomWaypointMobility(
        n_nodes=n_nodes, pause_time=pause_time, rng=random.Random(seed)
    )


class TestMobilityViews:
    @given(
        n_nodes=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        pause_time=st.sampled_from([0.0, 2.5, 10.0]),
        times=query_times,
        radius=st.floats(min_value=1.0, max_value=1500.0),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_keeps_what_the_position_scan_keeps(
        self, n_nodes, seed, pause_time, times, radius, data
    ):
        """``within`` == ``position()`` per id plus the literal hypot test.

        Besides a random radius, each instant tries a radius equal to one
        node's exact distance and the next double below it, so the
        squared-distance band and its ``math.hypot`` fallback decide.
        """
        model = make_model(n_nodes, seed, pause_time)
        for t in times:
            model.advance_all(t)
            q = data.draw(st.integers(0, n_nodes - 1), label="query")
            ids = data.draw(
                st.lists(st.integers(0, n_nodes - 1), unique=True), label="ids"
            )
            x, y = model.position(q, t)
            edge = model.distance(q, data.draw(st.integers(0, n_nodes - 1)), t)
            for r in (radius, edge, math.nextafter(edge, 0.0)):
                if r <= 0.0:
                    continue
                expected = [
                    i for i, (ox, oy) in ((i, model.position(i, t)) for i in ids)
                    if i != q and math.hypot(ox - x, oy - y) <= r
                ]
                assert model.within(ids, x, y, t, r, q) == expected

    @given(
        n_nodes=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        pause_time=st.sampled_from([0.0, 2.5, 10.0]),
        times=query_times,
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_advance_all_replays_the_naive_scan_draw_order(
        self, n_nodes, seed, pause_time, times, data
    ):
        """``position(q, t); advance_all(t, n)`` == the naive neighbour scan.

        The naive scan (``tests.simulation.reference.scan_neighbors``, the
        oracle of the medium's grid path) queries the sender ``q`` and
        then every attached node ``0..n-1`` in ascending order; ``n <
        n_nodes`` is a partially attached stack.  Both must
        leave the shared RNG and every node's motion state identical, and
        nodes ``>= n`` untouched.
        """
        n = data.draw(st.integers(1, n_nodes), label="attached")
        fast = make_model(n_nodes, seed, pause_time)
        naive = make_model(n_nodes, seed, pause_time)
        initial = (list(fast._legs), list(fast._pause))
        for t in times:
            q = data.draw(st.integers(0, n - 1), label="sender")
            fast.position(q, t)
            fast.advance_all(t, n)
            naive.position(q, t)
            for i in range(n):
                naive.position(i, t)
            assert fast._rng.getstate() == naive._rng.getstate()
            assert fast._legs == naive._legs
            assert fast._pause == naive._pause
            assert fast._legs[n:] == initial[0][n:]
            assert fast._pause[n:] == initial[1][n:]
            # A lone scalar query between sweeps leaves the cached wake
            # bound stale; the next sweep must still match.
            extra = data.draw(st.none() | st.integers(0, n - 1), label="extra")
            if extra is not None:
                assert fast.position(extra, t) == naive.position(extra, t)
