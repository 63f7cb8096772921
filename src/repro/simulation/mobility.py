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

Motion state is one view that :meth:`~RandomWaypointMobility._advance`
(the only writer) updates whenever a node starts a new leg: per node, a
tuple of Python floats ``(x0, y0, x1, y1, depart, arrive)`` beside
Python-float pause-until and speed lists.
:meth:`~RandomWaypointMobility.position`,
:meth:`~RandomWaypointMobility.speed`,
:meth:`~RandomWaypointMobility.distance`,
:meth:`~RandomWaypointMobility.speeds_at` (the sampling ticks) and
:meth:`~RandomWaypointMobility.within` (the exact unit-disc filter of
every neighbor query) read it; the leg tuple never leaves this module.

Determinism contract
--------------------
Waypoint draws come lazily from the *shared* simulator RNG, so the byte
content of a trace depends on the exact order in which nodes are advanced.
Two invariants keep neighbor queries bit-identical to a naive per-node
``position()`` scan:

* :meth:`advance_all` advances stale nodes in **ascending node-id order** —
  the order a naive ``for other in range(n)`` scan visits them in — and
  takes an optional node count so a partially attached stack advances
  exactly the nodes such a scan would visit;
* :meth:`within` evaluates the **same IEEE-754 expression** as
  :meth:`position` (``frac = (t - depart) / (arrive - depart)``;
  ``x = x0 + frac * (x1 - x0)``) inline on each leg, and consults the
  scan's literal ``math.hypot(dx, dy) <= radius`` wherever squared
  distances could round differently, so it keeps exactly the ids the scan
  keeps.
"""

from __future__ import annotations

import math
import random

#: Relative half-width of the squared-distance band around ``radius``
#: inside which :meth:`RandomWaypointMobility.within` consults the exact
#: ``math.hypot`` predicate.  Well above accumulated float64 rounding
#: (~1e-16 relative), well below any physically meaningful distance
#: difference.
_BOUNDARY_REL = 1e-12

#: Default lower speed bound (m/s), kept strictly positive as in
#: ``setdest`` so every leg terminates.
MIN_SPEED = 0.5


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
        min_speed: float = MIN_SPEED,
        pause_time: float = 10.0,
        rng: random.Random | None = None,
    ):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        # Negated comparisons, so NaN fails them too.
        if not 0 < min_speed <= max_speed < math.inf:
            raise ValueError(
                f"require 0 < min_speed <= max_speed < inf "
                f"(got min_speed={min_speed!r}, max_speed={max_speed!r})"
            )
        if not pause_time >= 0:
            raise ValueError(f"pause_time must be non-negative, got {pause_time!r}")
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
        #: The current leg of every node as Python floats.
        self._legs = [(x, y, x, y, 0.0, 0.0) for x, y in zip(xs, ys)]
        self._pause = [pause_until] * n
        self._speeds = [0.0] * n
        #: Lower bound on min(_pause): advance_all returns instantly while
        #: t stays below it.  _advance only ever raises pause times, so a
        #: stale value is conservative (never skips a due advance).
        self._next_wake = pause_until
        #: Bumped whenever positions change other than by time passing
        #: (teleports in :class:`StaticMobility`); spatial indexes watch it.
        self._version = 0

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Counter bumped on any non-kinematic position change."""
        return self._version

    def _advance(self, node_id: int, t: float) -> None:
        """Advance a node's motion state up to time ``t`` (lazy stepping).

        Callers check ``t >= self._pause[node_id]`` first (the common case
        is no advance, and the check is cheaper than the call).  The only
        writer of motion state: the leg tuple, pause and speed lists
        change here and nowhere else (bar :meth:`StaticMobility.move`).
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

    def speed(self, node_id: int, t: float) -> float:
        """Current scalar speed: the leg speed while moving, 0 while paused."""
        if t >= self._pause[node_id]:
            self._advance(node_id, t)
        if t >= self._legs[node_id][5]:
            return 0.0
        return self._speeds[node_id]

    def speeds_at(self, t: float) -> list[float]:
        """Scalar speeds of all nodes at time ``t``.

        Equivalent to ``[speed(i, t) for i in range(n_nodes)]`` — both in
        values and in shared-RNG draw order.
        """
        self.advance_all(t)
        return [
            0.0 if t >= leg[5] else speed
            for leg, speed in zip(self._legs, self._speeds)
        ]

    def within(
        self,
        ids: list[int],
        x: float,
        y: float,
        t: float,
        radius: float,
        skip: int,
    ) -> list[int]:
        """Ids from ``ids`` (bar ``skip``) within ``radius`` of ``(x, y)`` at ``t``.

        The exact unit-disc filter of every neighbor query; ``ids`` order
        is kept.  Callers must have advanced the listed nodes to ``t``
        (:meth:`advance_all`), so no leg is stale and nothing draws.  Each
        coordinate is the :meth:`position` expression evaluated inline on
        the node's leg, and the decision is ``math.hypot(dx, dy) <=
        radius`` bit for bit: a squared distance outside the band of one
        part in 10^12 around ``radius**2`` decides alone, and only a
        candidate inside the band calls ``math.hypot``.
        """
        inner = (radius * (1.0 - _BOUNDARY_REL)) ** 2
        outer = (radius * (1.0 + _BOUNDARY_REL)) ** 2
        legs = self._legs
        kept = []
        for i in ids:
            if i == skip:
                continue
            x0, y0, x1, y1, depart, arrive = legs[i]
            if t >= arrive or arrive == depart:
                dx = x1 - x
                dy = y1 - y
            else:
                frac = (t - depart) / (arrive - depart)
                dx = x0 + frac * (x1 - x0) - x
                dy = y0 + frac * (y1 - y0) - y
            d2 = dx * dx + dy * dy
            if d2 <= inner or (d2 <= outer and math.hypot(dx, dy) <= radius):
                kept.append(i)
        return kept

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
        self._version += 1
