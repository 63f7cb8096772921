"""Spatial neighbor index: a uniform grid over node positions.

A naive neighbor query computes a position and a distance for every node
on every transmission — O(N) per query, which makes large scenarios
quadratic-ish in node count.  This index bins the attached nodes into
square cells, prunes each query to the candidates in the 3x3 block of
reach-sized cells around the querying node, and finishes with the
mobility model's exact unit-disc filter
(:meth:`~repro.simulation.mobility.RandomWaypointMobility.within`).  It is
the medium's only neighbor path, at every network size.

Determinism invariants (see DESIGN.md §Performance):

* **Exact-distance post-filter** — the grid only prunes candidates; every
  surviving candidate passes the unit-disc predicate ``math.hypot(dx, dy)
  <= tx_range`` bit for bit (the filter compares squared distances and
  calls ``math.hypot`` only within one part in 10^12 of the boundary).
* **Id-ordered iteration** — candidate blocks are sorted ascending, so the
  returned *list* (and therefore every downstream RNG draw for
  per-receiver loss/jitter) is identical to a naive ascending scan's.
* **Draw-order preservation** — a naive scan lazily advances the query
  node first and then every attached node in ascending id order,
  consuming waypoint draws from the shared simulator RNG.
  :meth:`neighbors` replicates exactly that advance order before touching
  the grid.
* **Rebuild quantum** — the grid is rebuilt lazily once its snapshot is
  older than ``rebuild_quantum``, the mobility model reports a teleport via
  ``version``, or the attached-node count changes.  Staleness is safe
  because the block reach is padded by ``max_speed * rebuild_quantum``: a
  node within ``tx_range`` at query time has drifted at most that far since
  the snapshot, so its snapshot cell is always inside the query block.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.mobility import RandomWaypointMobility


class SpatialNeighborIndex:
    """Uniform-grid index over one mobility model's node positions.

    Parameters
    ----------
    mobility:
        Position source; must expose ``position`` / ``advance_all`` /
        ``within`` / ``version`` (both mobility classes do).
    tx_range:
        The unit-disc radius queries test against.
    rebuild_quantum:
        Maximum snapshot age in simulation seconds before a query forces
        a rebuild.  Larger values amortize rebuilds over more queries at
        the cost of a wider (padded) cell; the default suits the paper's
        20 m/s scenarios (pad = 5 m on a 250 m range).
    """

    def __init__(
        self,
        mobility: "RandomWaypointMobility",
        tx_range: float,
        rebuild_quantum: float = 0.25,
    ):
        # Negated comparisons also reject NaN.
        if not tx_range > 0:
            raise ValueError(f"tx_range must be positive, got {tx_range}")
        if not rebuild_quantum >= 0:
            raise ValueError(f"rebuild_quantum must be non-negative, got {rebuild_quantum}")
        self.mobility = mobility
        self.tx_range = tx_range
        self.rebuild_quantum = rebuild_quantum
        #: Cells are as wide as the coverage radius a query block must
        #: extend beyond its centre cell: the unit-disc radius padded by the
        #: worst-case drift between a snapshot and the latest query it may
        #: serve.  Queries merge the 3x3 cell block around the centre cell.
        self.cell_size = tx_range + mobility.max_speed * rebuild_quantum
        self._built_at = -math.inf  # no snapshot yet: the first query builds
        self._built_version: int | None = None
        self._built_n: int | None = None
        self._cells: dict[tuple[int, int], list[int]] = {}
        #: Memo of merged-and-sorted candidate blocks, keyed by the
        #: centre cell; valid for the lifetime of one grid snapshot.
        self._blocks: dict[tuple[int, int], list[int]] = {}
        self.rebuilds = 0  #: diagnostic counter

    # ------------------------------------------------------------------
    def _ensure_built(self, t: float, n: int) -> None:
        if (
            t - self._built_at <= self.rebuild_quantum
            and self._built_version == self.mobility.version
            and self._built_n == n
        ):
            return
        position = self.mobility.position
        cell = self.cell_size
        cells: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            x, y = position(i, t)
            key = (int(x // cell), int(y // cell))
            ids = cells.get(key)
            if ids is None:
                cells[key] = [i]
            else:
                ids.append(i)  # ascending ids for free: i is increasing
        self._cells = cells
        self._blocks = {}
        self._built_at = t
        self._built_version = self.mobility.version
        self._built_n = n
        self.rebuilds += 1

    def block(self, x: float, y: float, t: float, n: int) -> list[int]:
        """Ids ``< n`` whose snapshot cell lies in the 3x3 block around (x, y).

        A conservative superset of the attached ids within ``tx_range`` of
        the point (the cell pad covers any drift since the snapshot),
        sorted ascending.  Callers must treat the list as read-only and
        finish with the mobility model's ``within`` filter.
        """
        self._ensure_built(t, n)
        cell = self.cell_size
        key = (int(x // cell), int(y // cell))
        candidates = self._blocks.get(key)
        if candidates is None:
            cx, cy = key
            cells = self._cells
            candidates = sorted(
                i
                for kx in (cx - 1, cx, cx + 1)
                for ky in (cy - 1, cy, cy + 1)
                for i in cells.get((kx, ky), ())
            )
            self._blocks[key] = candidates
        return candidates

    def neighbors(self, node_id: int, t: float, n: int) -> list[int]:
        """Ids ``< n`` within ``tx_range`` of ``node_id`` at ``t``, ascending.

        ``n`` is the attached-node count (the mobility model may know more
        nodes than the medium has attached).
        """
        mob = self.mobility
        # Replicate a naive scan's lazy-advance order exactly: query node
        # first, then every attached node in ascending id order.
        x, y = mob.position(node_id, t)
        mob.advance_all(t, n)
        return mob.within(self.block(x, y, t, n), x, y, t, self.tx_range, node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpatialNeighborIndex(cell={self.cell_size:.1f}m, "
            f"quantum={self.rebuild_quantum}s, rebuilds={self.rebuilds})"
        )
