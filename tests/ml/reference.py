"""Reference classifiers and prediction: oracles for the shipped fast paths.

:class:`~repro.core.model.CrossFeatureModel` scans the discretized codes
once and hands every sub-model precomputed root tables when its
classifier sets ``accepts_root_tables``; C4.5 then grows its tree with
the vectorized split search.  These factories opt out of both: the
ensemble falls back to its per-sub-model loop (``np.delete`` copies), and
:class:`ReferenceC45` grows each tree by the per-bucket walk, one
attribute and one value row at a time.  Install one in place of a
shipped classifier (``monkeypatch.setitem(CLASSIFIERS, name,
REFERENCE_CLASSIFIERS[name])``) to train a whole ``Session`` on the
reference path.

:func:`predict_proba_rowwise` is the oracle for the node-table walk of
:meth:`C45Classifier.predict_proba`, and :func:`sub_model_outputs_rowwise`
for the stacked walk of ``CrossFeatureModel._sub_model_outputs``.
"""

import numpy as np

from repro.ml import CLASSIFIERS, C45Classifier, NaiveBayesClassifier
from repro.ml.decision_tree import _entropy, _TreeNode, _z_value


class ReferenceC45(C45Classifier):
    """C4.5 grown by the pre-vectorization path, one sub-model at a time.

    Its sums are the definition that ``C45Classifier._grow`` reproduces
    bit for bit: ``np.sum`` over each row's compacted positive terms (row
    entropy, split info) and Python accumulation in value and attribute
    order (conditional entropy, mean gain).
    """

    accepts_root_tables = False

    def fit(self, X, y):
        X, y = self._setup_fit(X, y)
        self._z = _z_value(self.cf)
        self.root_ = self._grow_reference(X, y, np.arange(len(y)), depth=0)
        if self.prune:
            self._prune_node(self.root_)
        self._table = None
        return self

    def _grow_reference(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int) -> _TreeNode:
        """Reference per-bucket growth (pre-vectorization behaviour)."""
        y_sub = y[idx]
        counts = self._class_counts(y_sub)
        node = _TreeNode(counts=counts)
        if (
            len(idx) < self.min_samples_split
            or (counts > 0).sum() <= 1
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node

        base_entropy = _entropy(counts)
        n = float(len(idx))
        best_attr, best_ratio = None, 0.0
        gains: list[tuple[int, float, float]] = []
        for attr in range(X.shape[1]):
            col = X[idx, attr]
            k = int(self.n_values_[attr])
            if k <= 1:
                continue
            # Contingency table via one flat bincount.
            table = np.bincount(col * self.n_classes_ + y_sub,
                                minlength=k * self.n_classes_).reshape(k, self.n_classes_)
            value_totals = table.sum(axis=1)
            present = value_totals > 0
            if present.sum() <= 1:
                continue
            cond = 0.0
            for vt, row in zip(value_totals[present], table[present]):
                cond += (vt / n) * _entropy(row)
            gain = base_entropy - cond
            p_v = value_totals[present] / n
            split_info = float(-(p_v * np.log2(p_v)).sum())
            if split_info <= 0:
                continue
            gains.append((attr, gain, gain / split_info))
        if not gains:
            return node
        # Quinlan's guard: only attributes with at least average gain
        # compete on gain ratio.
        mean_gain = sum(g for _, g, _ in gains) / len(gains)
        eligible = [t for t in gains if t[1] >= mean_gain - 1e-12]
        best_attr, best_gain, best_ratio = max(eligible, key=lambda t: t[2])
        if best_gain <= 1e-12:
            return node

        node.attr = best_attr
        col = X[idx, best_attr]
        for value in np.unique(col):
            child_idx = idx[col == value]
            node.children[int(value)] = self._grow_reference(X, y, child_idx, depth + 1)
        return node


class PerModelNaiveBayes(NaiveBayesClassifier):
    """Naive Bayes counted per sub-model, without the shared root tables."""

    accepts_root_tables = False


#: Classifier name -> reference factory (the keys of ``CLASSIFIERS``).
REFERENCE_CLASSIFIERS = {
    "c45": ReferenceC45,
    "nbc": PerModelNaiveBayes,
    "ripper": CLASSIFIERS["ripper"],
}


def predict_proba_rowwise(clf: C45Classifier, X) -> np.ndarray:
    """Per-row tree walk: the oracle for ``C45Classifier.predict_proba``.

    Each row descends from the root by one dict lookup per split.  A value
    no child saw at fit ends the walk, and the row answers from the node it
    stopped at.  Every answer is that node's Laplace-smoothed class
    distribution.
    """
    X = np.asarray(X, dtype=np.int64)
    out = np.empty((len(X), clf.n_classes_))
    for i, row in enumerate(X):
        node = clf.root_
        while not node.is_leaf:
            child = node.children.get(int(row[node.attr]))
            if child is None:
                break
            node = child
        out[i] = (node.counts + 1.0) / (node.counts.sum() + clf.n_classes_)
    return out


def sub_model_outputs_rowwise(model, X) -> tuple[np.ndarray, np.ndarray]:
    """``CrossFeatureModel._sub_model_outputs`` of a C4.5 ensemble, one
    sub-model at a time, each scored through :func:`predict_proba_rowwise`
    on its ``np.delete`` attribute matrix."""
    X = np.asarray(X, dtype=float)
    if model.feature_subset is not None:
        X = X[:, model.feature_subset]
    codes = model.discretizer.transform(X)
    rows = np.arange(len(codes))
    matches = np.zeros((len(codes), len(model.models_)))
    p_true = np.zeros((len(codes), len(model.models_)))
    for m, (clf, i) in enumerate(zip(model.models_, model.targets_)):
        proba = predict_proba_rowwise(clf, np.delete(codes, i, axis=1))
        true = codes[:, i]
        matches[:, m] = np.argmax(proba, axis=1) == true
        in_range = true < proba.shape[1]
        p_true[in_range, m] = proba[rows[in_range], true[in_range]]
    return matches, p_true
