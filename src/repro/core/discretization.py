"""Equal-frequency discretization (paper §4.1, "Feature Construction").

Continuous features (and discrete features with infinite value spaces)
cannot serve as class labels, so the paper discretizes them with a
*frequency-bucket* scheme: the value space is split into a fixed number of
ranges such that the occurrence frequencies in all buckets are equal; a
pre-filtering pass over a small random subset of normal vectors retrieves
the frequency distribution.  The paper uses 5 buckets.

One deliberate refinement for degenerate columns: a feature that is
*constant* in normal training data still gets a single cut just above the
constant, so a value that rises under attack lands in a bucket never seen
in training — the sub-model then assigns it probability zero, exactly the
"never appears in normal data" semantics the framework wants.
"""

from __future__ import annotations

import numpy as np

from repro.checks import check_int


class EqualFrequencyDiscretizer:
    """Per-column equal-frequency bucketing.

    Parameters
    ----------
    n_buckets:
        Number of buckets per feature (paper: 5).
    prefilter_fraction:
        If set, fit quantiles on a random subset of this fraction of the
        rows — the paper's pre-filtering pass.
    random_state:
        Seed for the pre-filter subsample.
    """

    def __init__(
        self,
        n_buckets: int = 5,
        prefilter_fraction: float | None = None,
        random_state: int = 0,
        out_of_range_bucket: bool = True,
    ):
        check_int("n_buckets", n_buckets, 2)
        if prefilter_fraction is not None and not 0 < prefilter_fraction <= 1:
            raise ValueError("prefilter_fraction must be in (0, 1]")
        self.n_buckets = n_buckets
        self.prefilter_fraction = prefilter_fraction
        self.random_state = random_state
        self.out_of_range_bucket = out_of_range_bucket
        self.edges_: list[np.ndarray] | None = None
        self._lookup_: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "EqualFrequencyDiscretizer":
        """Learn bucket boundaries from (normal) training data."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if self.prefilter_fraction is not None and len(X) > 10:
            rng = np.random.default_rng(self.random_state)
            n_sample = max(int(len(X) * self.prefilter_fraction), 10)
            X = X[rng.choice(len(X), size=min(n_sample, len(X)), replace=False)]
        qs = np.arange(1, self.n_buckets) / self.n_buckets
        self.edges_ = []
        for j in range(X.shape[1]):
            col = X[:, j]
            uniq = np.unique(col)
            if len(uniq) == 1:
                # Constant column: one cut just above the constant so an
                # unseen-under-attack value separates out.
                edges = np.array([np.nextafter(uniq[0], np.inf)])
            else:
                edges = np.unique(np.quantile(col, qs))
                # Drop degenerate edges equal to the column minimum (they
                # would create an empty first bucket).
                edges = edges[edges > uniq[0]]
                if len(edges) == 0:
                    # Heavily skewed column (most mass at the minimum):
                    # cut between the minimum and the next distinct value.
                    edges = np.array([(uniq[0] + uniq[1]) / 2.0])
                if self.out_of_range_bucket:
                    # Values beyond anything normal data produced form
                    # their own bucket: sub-models never saw it as a
                    # label, so it carries probability zero — the
                    # "never appears in normal data" semantics of §3.
                    # Without this, an attack burst 10x above the normal
                    # maximum is indistinguishable from an ordinary busy
                    # window saturating the top equal-frequency bucket.
                    top = np.nextafter(uniq[-1], np.inf)
                    if top > edges[-1]:
                        edges = np.append(edges, top)
            self.edges_.append(edges)
        self._lookup_ = None
        return self

    def _build_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Rank table turning all per-column searches into ONE searchsorted.

        Every column's edges are merged into one sorted array.  For a
        value ``v`` of column ``j``, ``searchsorted(merged, v, "left")``
        is the number of merged edges strictly below ``v`` — and because
        the merge is sorted, those are exactly the first ``r`` merged
        entries.  ``rank_counts[j, r]`` (how many of those first ``r``
        edges belong to column ``j``) is therefore precisely
        ``searchsorted(edges_[j], v, "left")``: the same comparisons
        against the same floats, so codes are bit-identical to the
        per-column loop (including NaN, which lands at rank 0 either way).
        """
        n_cols = len(self.edges_)
        lengths = [len(e) for e in self.edges_]
        merged = np.concatenate(self.edges_)
        col_ids = np.repeat(np.arange(n_cols), lengths)
        order = np.argsort(merged, kind="stable")
        merged = merged[order]
        rank_counts = np.zeros((n_cols, len(merged) + 1), dtype=np.int64)
        rank_counts[:, 1:] = (
            col_ids[order][None, :] == np.arange(n_cols)[:, None]
        ).cumsum(axis=1)
        self._lookup_ = (merged, rank_counts)
        return self._lookup_

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map values to bucket codes (0-based integers).

        Bucket ``j`` holds values in ``(edges[j-1], edges[j]]``; values
        above the last edge land in the top bucket.  All columns are
        bucketized in one vectorized pass (see :meth:`_build_lookup`).
        """
        if self.edges_ is None:
            raise RuntimeError("discretizer is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.edges_):
            raise ValueError(
                f"X has {X.shape[1] if X.ndim == 2 else '?'} columns, "
                f"expected {len(self.edges_)}"
            )
        lookup = getattr(self, "_lookup_", None)
        if lookup is None:
            lookup = self._build_lookup()
        merged, rank_counts = lookup
        ranks = np.searchsorted(merged, X.ravel(), side="left").reshape(X.shape)
        return rank_counts[np.arange(X.shape[1])[None, :], ranks]

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return its bucket codes."""
        return self.fit(X).transform(X)

    def n_values(self) -> np.ndarray:
        """Bucket count per column (``len(edges) + 1``)."""
        if self.edges_ is None:
            raise RuntimeError("discretizer is not fitted")
        return np.array([len(e) + 1 for e in self.edges_], dtype=np.int64)
