"""C4.5-style decision tree (Quinlan 1993).

The variant the paper uses as its best sub-model engine:

* multiway splits on categorical attributes, chosen by **gain ratio**
  among attributes with at least average information gain (Quinlan's
  guard against the ratio favouring near-trivial splits);
* **pessimistic error pruning** with the standard C4.5 confidence-bound
  estimate (CF = 0.25 by default) via subtree replacement;
* leaf class probabilities ``p(l_i | x) = n_i / n`` as described in §3 of
  the paper, Laplace-smoothed so no class ever gets probability zero.

Unseen attribute values at prediction time fall through to the split
node's own class distribution (the C4.5 "most likely subtree" fallback).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import CategoricalClassifier

_Z_FOR_CF = {0.25: 0.6744897501960817}  # Phi^{-1}(1 - CF)


def _z_value(cf: float) -> float:
    """Normal quantile for the pruning confidence factor.

    Uses scipy-free rational approximation (Acklam) — accurate to ~1e-9,
    far below what pruning sensitivity requires.
    """
    if cf in _Z_FOR_CF:
        return _Z_FOR_CF[cf]
    p = 1.0 - cf
    # Acklam's inverse-normal approximation.
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p <= phigh:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
    )


def _pessimistic_errors(n: float, e: float, z: float) -> float:
    """C4.5's upper confidence bound on the error count of a leaf.

    ``n`` examples with ``e`` observed errors; returns the pessimistic
    *count* ``n * U_CF(e, n)`` using the classic Wilson-style bound.
    """
    if n == 0:
        return 0.0
    f = e / n
    z2 = z * z
    bound = (f + z2 / (2 * n) + z * math.sqrt(f / n - f * f / n + z2 / (4 * n * n))) / (
        1 + z2 / n
    )
    return n * bound


@dataclass
class _TreeNode:
    """One tree node: a leaf, or a multiway split with per-value children."""

    counts: np.ndarray                      #: class counts of training rows here
    attr: int | None = None                 #: split attribute (None => leaf)
    children: dict[int, "_TreeNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.attr is None

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def errors(self) -> int:
        return self.n - int(self.counts.max())

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(child.depth() for child in self.children.values())

    def n_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return sum(child.n_leaves() for child in self.children.values())


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """``-sum(p * log2 p)`` over the positive entries of every last-axis row.

    Each row gets the bits of ``np.sum`` over its compacted positive
    terms, which is how :func:`_entropy` sums.  numpy adds fewer than 8
    terms in sequence from 0.0, so a ``cumsum`` over the zero-padded row
    reproduces it (exact zeros are additive identities).  From 8 terms
    on numpy sums pairwise: 8 strided partial sums combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` plus the tail in order, and
    recursive halving above 128 terms.  Rows with 8 or more positive
    entries are therefore compacted and summed by numpy itself, one
    ``(rows, k)`` block per count ``k`` of positive terms.
    """
    pos = p > 0
    logp = np.zeros_like(p)
    np.log2(p, where=pos, out=logp)
    terms = p * logp
    out = -terms.cumsum(axis=-1)[..., -1]
    if p.shape[-1] >= 8:
        n_pos = pos.sum(axis=-1)
        for k in np.unique(n_pos[n_pos >= 8]):
            rows = n_pos == k
            out[rows] = -terms[rows][pos[rows]].reshape(-1, k).sum(axis=-1)
    return out


def trees_equal(a: _TreeNode | None, b: _TreeNode | None) -> bool:
    """Structural equality of two fitted trees.

    Equal means: same split attribute at every node, same per-node class
    counts, same child values — which together imply identical
    ``predict_proba`` output for any input.
    """
    if a is None or b is None:
        return a is b
    if a.attr != b.attr or not np.array_equal(a.counts, b.counts):
        return False
    if a.children.keys() != b.children.keys():
        return False
    return all(trees_equal(child, b.children[v]) for v, child in a.children.items())


class C45Classifier(CategoricalClassifier):
    """Gain-ratio decision tree with pessimistic pruning.

    Parameters
    ----------
    min_samples_split:
        Do not split nodes with fewer examples.
    max_depth:
        Depth cap (None = unlimited).
    prune:
        Apply C4.5 pessimistic subtree replacement after growing.
    cf:
        Pruning confidence factor (smaller = more aggressive pruning).
    """

    def __init__(
        self,
        min_samples_split: int = 2,
        max_depth: int | None = None,
        prune: bool = True,
        cf: float = 0.25,
    ):
        super().__init__()
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if not 0 < cf < 0.5:
            raise ValueError("cf must be in (0, 0.5)")
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self.prune = prune
        self.cf = cf
        self.root_: _TreeNode | None = None

    #: The ensemble trainer may hand this classifier precomputed
    #: root-level contingency tables (``fit(..., root_tables=...)``).
    accepts_root_tables = True

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        root_tables: "list[np.ndarray] | None" = None,
    ) -> "C45Classifier":
        """Grow (and optionally prune) the tree.

        ``root_tables`` — one ``(n_values_[a], n_classes_)`` integer
        contingency table per attribute, counting (attribute value,
        class) pairs over the full training set — lets the root split
        search skip its histogram pass.  The ensemble trainer computes
        these once for all L sub-models (see
        :class:`repro.core.model.CrossFeatureModel`); the fitted tree is
        identical with or without them.
        """
        X, y = self._setup_fit(X, y)
        self._z = _z_value(self.cf)
        self.root_ = self._grow(X, y, np.arange(len(y)), depth=0,
                                root_tables=root_tables)
        if self.prune:
            self._prune_node(self.root_)
        return self

    def _class_counts(self, y_subset: np.ndarray) -> np.ndarray:
        return np.bincount(y_subset, minlength=self.n_classes_)

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        depth: int,
        root_tables: "list[np.ndarray] | None" = None,
    ) -> _TreeNode:
        """Vectorized node growth, at any class or value count.

        Per node, ONE fused ``bincount`` builds the contingency
        histograms of every attribute at once (a ``(L, k_max, C)``
        tensor), entropies are computed row-wise over the whole tensor,
        and children are partitioned with a single stable argsort instead
        of one boolean scan per value.  Every floating-point reduction
        keeps the operation order of the per-bucket walk
        (``tests/ml/reference.py::ReferenceC45``): its ``np.sum`` calls
        through :func:`_row_entropies`, its Python accumulations through
        ``cumsum``.  Split decisions, and therefore the tree, are
        identical to the last bit.
        """
        y_sub = y[idx]
        counts = self._class_counts(y_sub)
        node = _TreeNode(counts=counts)
        if (
            len(idx) < self.min_samples_split
            or (counts > 0).sum() <= 1
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node

        C = self.n_classes_
        L = X.shape[1]
        kmax = int(self.n_values_.max()) if L else 0
        if L == 0 or kmax <= 1:
            return node
        n = float(len(idx))
        X_sub = X[idx]

        if root_tables is not None:
            if len(root_tables) != L:
                raise ValueError(
                    f"root_tables has {len(root_tables)} tables, expected {L}"
                )
            hist = np.zeros((L, kmax, C), dtype=np.int64)
            for a, table in enumerate(root_tables):
                hist[a, : table.shape[0], :] = table
        else:
            # One histogram pass: offset each attribute's (value, class)
            # pair into its own k_max*C block and bincount the lot.
            offsets = np.arange(L, dtype=np.int64) * (kmax * C)
            flat = X_sub * C + y_sub[:, None] + offsets[None, :]
            hist = np.bincount(flat.ravel(), minlength=L * kmax * C)
            hist = hist.reshape(L, kmax, C)

        value_totals = hist.sum(axis=2)                       # (L, kmax)
        present = value_totals > 0
        n_present = present.sum(axis=1)                       # (L,)

        # Row-wise entropy of every value row; padded / absent rows are
        # all-zero and enter no sum.
        vt_safe = np.where(present, value_totals, 1)
        row_ent = _row_entropies(hist / vt_safe[:, :, None])  # (L, kmax)

        # Conditional entropy: the reference accumulates
        # (value_total / n) * entropy(row) left to right over present
        # values; cumsum over the zero-padded terms reproduces that.
        weights = value_totals / n
        cond_terms = np.where(present, weights * row_ent, 0.0)
        cond = cond_terms.cumsum(axis=1)[:, -1]               # (L,)

        base_entropy = _entropy(counts)
        gain = base_entropy - cond                            # (L,)

        # Split info over the same weights (only present values enter).
        split_info = _row_entropies(weights)                  # (L,)

        valid = (self.n_values_ > 1) & (n_present > 1) & (split_info > 0)
        if not valid.any():
            return node
        attrs = np.flatnonzero(valid)
        gains_v = gain[valid]
        # Quinlan's guard: only attributes with at least average gain
        # compete on gain ratio (sequential mean, like the reference).
        mean_gain = gains_v.cumsum()[-1] / len(gains_v)
        ratios = gains_v / split_info[valid]
        eligible = gains_v >= mean_gain - 1e-12
        best_pos = int(np.argmax(np.where(eligible, ratios, -np.inf)))
        best_attr = int(attrs[best_pos])
        if gains_v[best_pos] <= 1e-12:
            return node

        # Partition children with one stable argsort: groups come out in
        # ascending value order with original row order inside each
        # group — exactly np.unique + per-value boolean masks.
        node.attr = best_attr
        col = X_sub[:, best_attr]
        order = np.argsort(col, kind="stable")
        sorted_idx = idx[order]
        sorted_col = col[order]
        boundaries = np.flatnonzero(sorted_col[1:] != sorted_col[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_col)]))
        for s, e in zip(starts, ends):
            node.children[int(sorted_col[s])] = self._grow(
                X, y, sorted_idx[s:e], depth + 1
            )
        return node

    # ------------------------------------------------------------------
    def _prune_node(self, node: _TreeNode) -> float:
        """Bottom-up subtree replacement; returns pessimistic error count."""
        leaf_errors = _pessimistic_errors(node.n, node.errors, self._z)
        if node.is_leaf:
            return leaf_errors
        subtree_errors = sum(self._prune_node(c) for c in node.children.values())
        if leaf_errors <= subtree_errors + 0.1:
            node.attr = None
            node.children.clear()
            return leaf_errors
        return subtree_errors

    # ------------------------------------------------------------------
    def _node_proba(self, node: _TreeNode) -> np.ndarray:
        """Laplace-smoothed class distribution of one node."""
        counts = node.counts
        return (counts + 1.0) / (counts.sum() + self.n_classes_)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Batched tree walk: rows move through the tree as index arrays.

        Each split partitions its row block with one vectorized
        comparison per child instead of a Python dict lookup per row, and
        a row whose value no child saw at fit answers from the node it
        stopped at.  Answers are bit-identical to a per-row walk (same
        node reached, same smoothing expression); that walk is the test
        oracle ``tests/ml/reference.py::predict_proba_rowwise``.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        out = np.empty((len(X), self.n_classes_))
        if len(X) == 0:
            return out
        stack: list[tuple[_TreeNode, np.ndarray]] = [(self.root_, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = self._node_proba(node)
                continue
            col = X[rows, node.attr]
            routed = np.zeros(len(rows), dtype=bool)
            for value, child in node.children.items():
                mask = col == value
                if mask.any():
                    stack.append((child, rows[mask]))
                    routed |= mask
            if not routed.all():
                # Unseen values: answer from this node's own counts.
                out[rows[~routed]] = self._node_proba(node)
        return out

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        self._check_fitted()
        return self.root_.depth()

    @property
    def n_leaves(self) -> int:
        self._check_fitted()
        return self.root_.n_leaves()
