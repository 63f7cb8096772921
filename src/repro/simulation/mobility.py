"""Random-waypoint mobility model.

The paper's scenarios use ns-2's ``setdest`` random way-point model on a
1000 m x 1000 m field with a 10 s pause time and a 20 m/s maximum speed.
This module reproduces that model with *lazy* position evaluation: each node
keeps its current leg (origin, destination, speed, departure time) and is
advanced on demand, so the mobility model adds no events to the simulator
heap no matter how often positions are queried.

``speed()`` exposes the node's current scalar velocity — the paper's
*absolute velocity* feature (Feature Set I, Table 4) reads it at every
sampling tick.

Motion state is kept in two views that :meth:`~RandomWaypointMobility._advance`
(the only writer) updates together whenever a node starts a new leg:

* per node, a tuple of Python floats ``(x0, y0, x1, y1, depart, arrive)``
  beside Python-float pause-until and speed lists — what the scalar
  queries :meth:`~RandomWaypointMobility.position`,
  :meth:`~RandomWaypointMobility.speed` and
  :meth:`~RandomWaypointMobility.distance` read (one tuple unpack, no
  numpy scalars: the naive neighbour scan below the spatial-index cutoff
  calls ``position()`` for every node on every transmission);
* parallel numpy columns (struct-of-arrays), the vectorized view behind
  :meth:`~RandomWaypointMobility.positions_at` (all nodes, memoized per
  timestamp — the spatial grid rebuilds from it),
  :meth:`~RandomWaypointMobility.positions_of` (an id subset —
  neighbor-query candidates) and
  :meth:`~RandomWaypointMobility.speeds_at` (the sampling ticks).

Determinism contract
--------------------
Waypoint draws come lazily from the *shared* simulator RNG, so the byte
content of a trace depends on the exact order in which nodes are advanced.
Two invariants keep the vectorized fast paths bit-identical to the naive
per-node scans:

* :meth:`advance_all` advances stale nodes in **ascending node-id order** —
  the same order the naive ``for other in range(n)`` scans used — and
  takes an optional node count so a partially attached stack advances
  exactly the nodes such a scan would visit;
* the vectorized evaluators use the **same IEEE-754 expressions** as the
  scalar :meth:`position` (``frac = (t - depart) / (arrive - depart)``;
  ``x = x0 + frac * (x1 - x0)``), and both views hold the same doubles,
  so vectorized coordinates are bit-equal to scalar ones.
"""

from __future__ import annotations

import math
import random

import numpy as np


class RandomWaypointMobility:
    """Random-waypoint mobility for a set of nodes.

    Parameters
    ----------
    n_nodes:
        Number of nodes placed uniformly at random in the field.
    area:
        Field dimensions in metres, ``(width, height)``.
    max_speed / min_speed:
        Speeds for each leg are drawn uniformly from ``[min_speed,
        max_speed]``.  ``min_speed`` is kept strictly positive (as in
        ``setdest``) so legs always terminate.
    pause_time:
        Pause at each waypoint before choosing the next one.
    rng:
        Random source; pass the simulator's ``rng`` for reproducibility.
    """

    def __init__(
        self,
        n_nodes: int,
        area: tuple[float, float] = (1000.0, 1000.0),
        max_speed: float = 20.0,
        min_speed: float = 0.5,
        pause_time: float = 10.0,
        rng: random.Random | None = None,
    ):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError("require 0 < min_speed <= max_speed")
        self.n_nodes = n_nodes
        self.area = area
        self.max_speed = max_speed
        self.min_speed = min_speed
        self.pause_time = pause_time
        self._rng = rng if rng is not None else random.Random(0)
        # Draw order (x then y, node by node) matches the historical
        # per-node constructor so seeds reproduce identical layouts.
        self._place(
            [(self._rng.uniform(0, area[0]), self._rng.uniform(0, area[1]))
             for _ in range(n_nodes)],
            pause_until=0.0,
        )

    def _place(self, positions, pause_until: float) -> None:
        """Initial motion state: every node parked at its position.

        Each node starts on a zero-length leg ending at time 0 and pauses
        until ``pause_until`` (0 for random waypoint: the first query
        draws the first leg; infinity for :class:`StaticMobility`).
        """
        n = len(positions)
        xs = [float(x) for x, _ in positions]
        ys = [float(y) for _, y in positions]
        #: Scalar view: the current leg of every node as Python floats.
        self._legs = [(x, y, x, y, 0.0, 0.0) for x, y in zip(xs, ys)]
        self._pause = [pause_until] * n
        self._speeds = [0.0] * n
        # Vectorized view: the same legs as struct-of-arrays columns.
        # Kept as separate contiguous 1-D arrays — per-candidate-subset
        # gathers from them beat a fused (6, n) fancy-index at the subset
        # sizes neighbor queries produce.
        self._x0 = np.array(xs)
        self._y0 = np.array(ys)
        self._x1 = np.array(xs)
        self._y1 = np.array(ys)
        self._depart = np.zeros(n)
        self._arrive = np.zeros(n)
        self._speed = np.zeros(n)
        #: Lower bound on min(_pause): advance_all returns instantly while
        #: t stays below it.  _advance only ever raises pause times, so a
        #: stale value is conservative (never skips a due advance).
        self._next_wake = pause_until
        #: Bumped whenever positions change other than by time passing
        #: (teleports in :class:`StaticMobility`); spatial indexes watch it.
        self._version = 0
        #: Single-entry memo of the last all-nodes position evaluation.
        self._pos_cache: tuple[float, int, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Counter bumped on any non-kinematic position change."""
        return self._version

    def _advance(self, node_id: int, t: float) -> None:
        """Advance a node's motion state up to time ``t`` (lazy stepping).

        Callers check ``t >= self._pause[node_id]`` first (the common case
        is no advance, and the check is cheaper than the call).  The only
        writer of motion state: the leg tuple, pause and speed lists and
        the numpy columns change here and nowhere else (bar
        :meth:`StaticMobility.move`), so the two views cannot drift apart.
        """
        pause_until = self._pause[node_id]
        rng = self._rng
        width, height = self.area
        x1, y1 = self._legs[node_id][2:4]
        while t >= pause_until:
            # The node has finished its pause at (x1, y1): start a new leg.
            x0, y0 = x1, y1
            x1 = rng.uniform(0, width)
            y1 = rng.uniform(0, height)
            speed = rng.uniform(self.min_speed, self.max_speed)
            depart = pause_until
            arrive = depart + math.hypot(x1 - x0, y1 - y0) / speed
            pause_until = arrive + self.pause_time
        self._legs[node_id] = (x0, y0, x1, y1, depart, arrive)
        self._pause[node_id] = pause_until
        self._speeds[node_id] = speed
        self._x0[node_id] = x0
        self._y0[node_id] = y0
        self._x1[node_id] = x1
        self._y1[node_id] = y1
        self._depart[node_id] = depart
        self._arrive[node_id] = arrive
        self._speed[node_id] = speed

    def advance_all(self, t: float, n: int | None = None) -> None:
        """Advance every stale node to ``t``, in ascending node-id order.

        ``n`` bounds the sweep to nodes ``0..n-1`` (the medium passes its
        attached-node count).  The common case (no node due) costs one
        scalar comparison against the cached ``_next_wake`` bound.  The
        ascending order replicates the draw sequence of the naive ``for
        other in range(n): position(other, t)`` scans, so the shared-RNG
        stream is unchanged — see the module docstring.
        """
        if t < self._next_wake:
            return
        pause = self._pause
        for node_id in range(self.n_nodes if n is None else n):
            if t >= pause[node_id]:
                self._advance(node_id, t)
        self._next_wake = min(pause)

    def position(self, node_id: int, t: float) -> tuple[float, float]:
        """Position of ``node_id`` at simulation time ``t``."""
        if t >= self._pause[node_id]:
            self._advance(node_id, t)
        x0, y0, x1, y1, depart, arrive = self._legs[node_id]
        if t >= arrive or arrive == depart:
            return (x1, y1)
        frac = (t - depart) / (arrive - depart)
        return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))

    def _interpolate(self, idx, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized position evaluation over ``idx`` (slice or id array).

        Callers must have advanced the selected nodes to ``t`` already.
        Expression-identical to :meth:`position`, so results are bit-equal.
        """
        if isinstance(idx, slice):
            x0 = self._x0
            y0 = self._y0
            x1 = self._x1
            y1 = self._y1
            depart = self._depart
            arrive = self._arrive
        else:
            # Six 1-D gathers from the contiguous row views: measurably
            # faster than one (6, n)[:, idx] fancy-index for the ~100-200
            # element candidate subsets a neighbor query produces.  `take`
            # skips the general fancy-indexing machinery.
            x0 = self._x0.take(idx)
            y0 = self._y0.take(idx)
            x1 = self._x1.take(idx)
            y1 = self._y1.take(idx)
            depart = self._depart.take(idx)
            arrive = self._arrive.take(idx)
        # Advanced nodes always satisfy depart <= t, so a zero-length leg
        # (arrive == depart, only when the waypoint draw repeats the
        # current position) already fails `t < arrive` — the reference
        # scalar's `arrive == depart` guard needs no separate term.
        moving = t < arrive
        frac = (t - depart) / np.where(moving, arrive - depart, 1.0)
        xs = np.where(moving, x0 + frac * (x1 - x0), x1)
        ys = np.where(moving, y0 + frac * (y1 - y0), y1)
        return xs, ys

    def positions_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized positions of *all* nodes at time ``t``.

        Returns ``(xs, ys)`` float64 arrays, bit-equal to calling
        :meth:`position` per node.  Memoized per timestamp (and mobility
        version).  Callers must treat the arrays as read-only.
        """
        cache = self._pos_cache
        if cache is not None and cache[0] == t and cache[1] == self._version:
            return cache[2], cache[3]
        self.advance_all(t)
        xs, ys = self._interpolate(slice(None), t)
        self._pos_cache = (t, self._version, xs, ys)
        return xs, ys

    def positions_of(self, ids: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized positions of an id subset at time ``t``.

        Assumes :meth:`advance_all` (or equivalent) already ran for ``t``
        — this is the inner call of a neighbor query, after the advance.
        """
        return self._interpolate(ids, t)

    def speed(self, node_id: int, t: float) -> float:
        """Current scalar speed: the leg speed while moving, 0 while paused."""
        if t >= self._pause[node_id]:
            self._advance(node_id, t)
        if t >= self._legs[node_id][5]:
            return 0.0
        return self._speeds[node_id]

    def speeds_at(self, t: float) -> list[float]:
        """Vectorized scalar speeds of all nodes at time ``t``.

        Equivalent to ``[speed(i, t) for i in range(n_nodes)]`` — both in
        values and in shared-RNG draw order.
        """
        self.advance_all(t)
        return np.where(t < self._arrive, self._speed, 0.0).tolist()

    def distance(self, a: int, b: int, t: float) -> float:
        """Euclidean distance between two nodes at time ``t``."""
        xa, ya = self.position(a, t)
        xb, yb = self.position(b, t)
        return math.hypot(xb - xa, yb - ya)


class StaticMobility(RandomWaypointMobility):
    """Fixed node placement — useful for deterministic unit tests.

    Nodes never move (every node pauses forever on a zero-length leg, so
    the inherited queries never draw); ``speed()`` is always zero.
    """

    def __init__(self, positions: list[tuple[float, float]]):
        if not positions:
            raise ValueError("positions must be non-empty")
        self.n_nodes = len(positions)
        width = max(x for x, _ in positions) + 1.0
        height = max(y for _, y in positions) + 1.0
        self.area = (width, height)
        self.max_speed = 0.0
        self.min_speed = 0.0
        self.pause_time = math.inf
        self._place(positions, pause_until=math.inf)

    def move(self, node_id: int, position: tuple[float, float]) -> None:
        """Teleport a node (tests use this to break and form links)."""
        x, y = float(position[0]), float(position[1])
        self._legs[node_id] = (x, y, x, y, 0.0, 0.0)
        self._x0[node_id] = self._x1[node_id] = x
        self._y0[node_id] = self._y1[node_id] = y
        self._version += 1
