"""Spatial neighbor index: a numpy-backed uniform grid over node positions.

The naive :meth:`~repro.simulation.medium.WirelessMedium.neighbors` scan
computes a Python-level position + distance for every node on every
transmission — O(N) per query, which makes large scenarios quadratic-ish
in node count.  This index bins nodes into square cells, prunes each query
to the candidates in the cell block around the querying node (3x3 blocks
of reach-sized cells), and finishes with an exact unit-disc check evaluated
vectorized over the candidates.

Determinism invariants (see DESIGN.md §Performance):

* **Exact-distance post-filter** — the grid only prunes candidates; every
  surviving candidate passes the *same* unit-disc predicate the naive
  scan uses.  The vectorized filter compares squared distances against a
  conservatively narrowed/widened ``tx_range`` band; only candidates
  whose squared distance falls within one part in 10^12 of the boundary
  (where ``sqrt`` rounding could disagree with ``math.hypot``) are
  re-tested with the naive scan's literal ``math.hypot(dx, dy) <=
  tx_range``, so the decision is bit-identical for every input.
* **Id-ordered iteration** — candidates are visited in ascending node-id
  order, so the returned *list* (and therefore every downstream RNG draw
  for per-receiver loss/jitter) is identical to the naive scan's.
* **Draw-order preservation** — the naive scan lazily advances the query
  node first and then every node in ascending id order, consuming
  waypoint draws from the shared simulator RNG.  :meth:`neighbors`
  replicates exactly that advance order before touching the grid.
* **Rebuild quantum** — the grid is rebuilt lazily once its snapshot is
  older than ``rebuild_quantum`` (or the mobility model reports a
  teleport via ``version``).  Staleness is safe because the block reach
  is padded by ``max_speed * rebuild_quantum``: a node within
  ``tx_range`` at query time has drifted at most that far since the
  snapshot, so its snapshot cell is always inside the query block.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.mobility import RandomWaypointMobility

#: Relative half-width of the squared-distance band around ``tx_range``
#: inside which the exact ``math.hypot`` predicate is consulted.  Well
#: above accumulated float64 rounding (~1e-16 relative), well below any
#: physically meaningful distance difference.
_BOUNDARY_REL = 1e-12

_EMPTY = np.empty(0, dtype=np.int64)


class SpatialNeighborIndex:
    """Uniform-grid index over one mobility model's node positions.

    Parameters
    ----------
    mobility:
        Position source; must expose ``positions_at`` / ``positions_of`` /
        ``advance_all`` / ``version`` (both mobility classes do).
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
        if tx_range <= 0:
            raise ValueError("tx_range must be positive")
        if rebuild_quantum < 0:
            raise ValueError("rebuild_quantum must be non-negative")
        self.mobility = mobility
        self.tx_range = tx_range
        self.rebuild_quantum = rebuild_quantum
        #: Cells are as wide as the coverage radius a query block must
        #: extend beyond its centre cell: the unit-disc radius padded by the
        #: worst-case drift between a snapshot and the latest query it may
        #: serve.  Queries merge the 3x3 cell block around the centre cell.
        #: That measures fastest at the paper's densities: a 5x5 block of
        #: half-reach cells trims the candidate superset (~30%) but pays
        #: more per-query block merges, and the numpy fixed overhead per
        #: filter dominates element count.
        self.cell_size = tx_range + mobility.max_speed * rebuild_quantum
        #: Squared-distance thresholds bracketing the rounding-ambiguous
        #: band around the range boundary (see module docstring).
        self._definitely_in = (tx_range * (1.0 - _BOUNDARY_REL)) ** 2
        self._maybe_in = (tx_range * (1.0 + _BOUNDARY_REL)) ** 2
        self._built_at: float | None = None
        self._built_version: int | None = None
        self._cells: dict[tuple[int, int], np.ndarray] = {}
        #: Memo of merged-and-sorted candidate blocks, keyed by the
        #: centre cell; valid for the lifetime of one grid snapshot.
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
        self.rebuilds = 0  #: diagnostic counter

    # ------------------------------------------------------------------
    def _ensure_built(self, t: float) -> None:
        if (
            self._built_at is not None
            and t - self._built_at <= self.rebuild_quantum
            and self._built_version == self.mobility.version
        ):
            return
        xs, ys = self.mobility.positions_at(t)
        cell = self.cell_size
        cx = np.floor_divide(xs, cell).astype(np.int64)
        cy = np.floor_divide(ys, cell).astype(np.int64)
        cells: dict[tuple[int, int], list[int]] = {}
        for i, key in enumerate(zip(cx.tolist(), cy.tolist())):
            ids = cells.get(key)
            if ids is None:
                cells[key] = [i]
            else:
                ids.append(i)  # ascending ids for free: i is increasing
        self._cells = {k: np.array(v, dtype=np.int64) for k, v in cells.items()}
        self._blocks = {}
        self._built_at = t
        self._built_version = self.mobility.version
        self.rebuilds += 1

    # ------------------------------------------------------------------
    def filter_in_range(
        self, ids: np.ndarray, x: float, y: float, t: float
    ) -> np.ndarray:
        """Ids from ``ids`` within ``tx_range`` of ``(x, y)`` at ``t``.

        Exact: decisions match ``math.hypot(dx, dy) <= tx_range`` bit for
        bit (boundary-band candidates are re-tested with that literal
        predicate).  ``ids`` order is preserved.
        """
        oxs, oys = self.mobility.positions_of(ids, t)
        dx = oxs - x
        dy = oys - y
        dx *= dx
        dy *= dy
        dx += dy  # dx now holds squared distances
        inside = dx <= self._definitely_in
        band = np.nonzero(inside != (dx <= self._maybe_in))[0]
        for k in band:  # pragma: no cover - ~1e-12 probability per pair
            inside[k] = math.hypot(oxs[k] - x, oys[k] - y) <= self.tx_range
        return ids[inside]

    def neighbors(self, node_id: int, t: float, n_nodes: int | None = None) -> list[int]:
        """Ids within ``tx_range`` of ``node_id`` at ``t``, ascending.

        ``n_nodes`` restricts the result to ids below it (the medium
        passes its attached-node count; the mobility model may know more
        nodes than are attached).
        """
        mob = self.mobility
        # Replicate the naive scan's lazy-advance order exactly: query
        # node first, then everyone in ascending id order.
        x, y = mob.position(node_id, t)
        mob.advance_all(t)
        candidates = self.candidates_near(x, y, t)
        size = candidates.size
        if size == 0:
            return []
        if n_nodes is not None and int(candidates[size - 1]) >= n_nodes:
            # Rare (partial stacks only): the medium normally attaches all
            # mobility nodes, so the sorted tail check short-circuits.
            candidates = candidates[candidates < n_nodes]
            size = candidates.size
            if size == 0:
                return []
        # Fused in-place distance filter (same decisions as
        # filter_in_range, fewer temporaries on this hottest path).
        oxs, oys = mob.positions_of(candidates, t)
        dx = oxs - x
        dy = oys - y
        dx *= dx
        dy *= dy
        dx += dy  # dx now holds squared distances
        inside = dx <= self._definitely_in
        band = np.nonzero(inside != (dx <= self._maybe_in))[0]
        for k in band:  # pragma: no cover - ~1e-12 probability per pair
            inside[k] = math.hypot(oxs[k] - x, oys[k] - y) <= self.tx_range
        # Self-exclusion: candidates is sorted, so locate by bisection
        # (ndarray method call: skips np.searchsorted's dispatch wrapper).
        pos = int(candidates.searchsorted(node_id))
        if pos < size and candidates[pos] == node_id:
            inside[pos] = False
        return candidates[inside].tolist()

    def candidates_near(self, x: float, y: float, t: float) -> np.ndarray:
        """All ids whose snapshot cell touches the block around (x, y).

        A conservative superset of the ids within ``tx_range`` of the
        point (the cell pad covers any drift since the snapshot), sorted
        ascending.  Callers must treat the array as read-only and finish
        with :meth:`filter_in_range`.
        """
        self._ensure_built(t)
        key = (int(x // self.cell_size), int(y // self.cell_size))
        candidates = self._blocks.get(key)
        if candidates is None:
            cx, cy = key
            cells = self._cells
            blocks = [
                ids
                for kx in (cx - 1, cx, cx + 1)
                for ky in (cy - 1, cy, cy + 1)
                if (ids := cells.get((kx, ky))) is not None
            ]
            if not blocks:
                candidates = _EMPTY
            elif len(blocks) > 1:
                candidates = np.sort(np.concatenate(blocks))
            else:
                candidates = blocks[0]
            self._blocks[key] = candidates
        return candidates

    def in_range(self, a: int, b: int, t: float) -> bool:
        """Exact unit-disc test — identical to the naive medium's.

        A pair test needs no grid walk; this exists so the medium can
        route every connectivity decision through one object.
        """
        return self.mobility.distance(a, b, t) <= self.tx_range

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpatialNeighborIndex(cell={self.cell_size:.1f}m, "
            f"quantum={self.rebuild_quantum}s, rebuilds={self.rebuilds})"
        )
