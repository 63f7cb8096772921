"""Reference classifiers: the oracle for the shared-pass ensemble fit.

:class:`~repro.core.model.CrossFeatureModel` scans the discretized codes
once and hands every sub-model precomputed root tables when its
classifier sets ``accepts_root_tables``; C4.5 then grows its tree with
the vectorized split search.  These factories opt out of both: the
ensemble falls back to its per-sub-model loop (``np.delete`` copies), and
C4.5 grows through :meth:`C45Classifier._fit_reference`.  Install one in
place of a shipped classifier (``monkeypatch.setitem(CLASSIFIERS, name,
REFERENCE_CLASSIFIERS[name])``) to train a whole ``Session`` on the
reference path.
"""

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
