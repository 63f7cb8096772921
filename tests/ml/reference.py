"""Reference classifiers and prediction: oracles for the shipped fast paths.

:class:`~repro.core.model.CrossFeatureModel` scans the discretized codes
once and hands every sub-model precomputed root tables when its
classifier sets ``accepts_root_tables``; C4.5 then grows its tree with
the vectorized split search.  These factories opt out of both: the
ensemble falls back to its per-sub-model loop (``np.delete`` copies), and
C4.5 grows through :meth:`C45Classifier._fit_reference`.  Install one in
place of a shipped classifier (``monkeypatch.setitem(CLASSIFIERS, name,
REFERENCE_CLASSIFIERS[name])``) to train a whole ``Session`` on the
reference path.

:func:`predict_proba_rowwise` is the oracle for the batched tree walk of
:meth:`C45Classifier.predict_proba`.
"""

import numpy as np

from repro.ml import CLASSIFIERS, C45Classifier, NaiveBayesClassifier


class ReferenceC45(C45Classifier):
    """C4.5 grown by the pre-vectorization path, one sub-model at a time."""

    accepts_root_tables = False

    def fit(self, X, y):
        return self._fit_reference(X, y)


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
