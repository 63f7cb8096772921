"""Tree-identity contract for the vectorized fits (C4.5 and NBC).

The shared-pass / vectorized training paths may change how the fit is
*computed*, never what it computes: the grown tree must match the
per-bucket oracle (``tests/ml/reference.py::ReferenceC45``) split for
split, count for count — which implies bit-identical ``predict_proba``.
These tests exercise that contract over random categorical data at 2 to
24 classes and values (numpy's ``np.sum`` adds pairwise from 8 terms
on, which the split search must reproduce), and the degenerate shapes
that break naive vectorizations.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.decision_tree import C45Classifier, _row_entropies, trees_equal
from repro.ml.naive_bayes import NaiveBayesClassifier
from tests.ml.reference import ReferenceC45, predict_proba_rowwise


def _assert_identical_fits(fast: C45Classifier, ref: C45Classifier, X) -> None:
    assert trees_equal(fast.root_, ref.root_), "fitted trees diverge structurally"
    np.testing.assert_array_equal(fast.predict_proba(X), ref.predict_proba(X))


def _rng_dataset(rng, n, d, k_x, k_y, correlated=True):
    X = rng.integers(0, k_x, size=(n, d))
    y = rng.integers(0, k_y, size=n)
    if correlated and d:
        # Give the tree something to find: tie a column to the label.
        X[:, rng.integers(0, d)] = y % k_x
    return X.astype(np.int64), y.astype(np.int64)


@st.composite
def categorical_dataset(draw):
    n = draw(st.integers(min_value=4, max_value=80))
    d = draw(st.integers(min_value=1, max_value=6))
    k_x = draw(st.integers(min_value=1, max_value=20))
    k_y = draw(st.integers(min_value=2, max_value=20))
    X = draw(arrays(np.int64, (n, d), elements=st.integers(0, k_x - 1)))
    y = draw(arrays(np.int64, (n,), elements=st.integers(0, k_y - 1)))
    return X, y


class TestC45Prediction:
    @given(data=categorical_dataset(),
           prune=st.booleans(),
           max_depth=st.sampled_from([None, 1, 3]),
           probe=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batched_walk_matches_rowwise_oracle(self, data, prune, max_depth, probe):
        """Bit for bit, on the training rows and on probe rows whose values
        (negative, or up to two past the largest seen) no child saw at fit."""
        X, y = data
        clf = C45Classifier(prune=prune, max_depth=max_depth).fit(X, y)
        unseen = probe.draw(arrays(
            np.int64, (probe.draw(st.integers(1, 30)), X.shape[1]),
            elements=st.integers(-2, int(X.max()) + 2),
        ))
        for rows in (X, unseen):
            assert np.array_equal(clf.predict_proba(rows), predict_proba_rowwise(clf, rows))


class TestRowEntropies:
    def test_rows_match_np_sum_over_positive_terms(self):
        """Widths 1-300 cover numpy's sequential (< 8 terms), 8-lane
        (8-128) and recursive (> 128) summation, over 1- to 3-D leading
        shapes with a random share of zero entries per width."""
        rng = np.random.default_rng(5)
        for width in range(1, 301):
            lead = tuple(int(v) for v in rng.integers(1, 4, size=1 + width % 3))
            p = rng.random(lead + (width,))
            p[rng.random(p.shape) < rng.random()] = 0.0
            got = _row_entropies(p)
            want = np.empty(lead)
            for i in np.ndindex(lead):
                q = p[i][p[i] > 0]
                want[i] = -np.sum(q * np.log2(q))
            assert np.array_equal(got, want), f"width {width}, leading shape {lead}"


class TestC45Identity:
    @given(data=categorical_dataset(),
           prune=st.booleans(),
           max_depth=st.sampled_from([None, 1, 2, 5]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_vectorized_grow_matches_reference(self, data, prune, max_depth):
        X, y = data
        fast = C45Classifier(prune=prune, max_depth=max_depth).fit(X, y)
        ref = ReferenceC45(prune=prune, max_depth=max_depth).fit(X, y)
        _assert_identical_fits(fast, ref, X)

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_randomized_trials(self, prune, max_depth):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(4, 200))
            d = int(rng.integers(1, 9))
            X, y = _rng_dataset(rng, n, d,
                                k_x=int(rng.integers(2, 7)),
                                k_y=int(rng.integers(2, 6)))
            fast = C45Classifier(prune=prune, max_depth=max_depth).fit(X, y)
            ref = ReferenceC45(prune=prune, max_depth=max_depth).fit(X, y)
            _assert_identical_fits(fast, ref, X)
        # 8-24 values and classes, where numpy sums entropies pairwise.
        # Uncorrelated data: its attributes tie closely, so a sum in the
        # wrong order picks another split, while a column tied to the
        # label wins every split outright.
        for _ in range(30):
            X, y = _rng_dataset(rng, int(rng.integers(100, 501)),
                                int(rng.integers(3, 9)),
                                k_x=int(rng.integers(8, 25)),
                                k_y=int(rng.integers(8, 25)),
                                correlated=False)
            fast = C45Classifier(prune=prune, max_depth=max_depth).fit(X, y)
            ref = ReferenceC45(prune=prune, max_depth=max_depth).fit(X, y)
            _assert_identical_fits(fast, ref, X)

    def test_degenerate_single_value_columns(self):
        rng = np.random.default_rng(3)
        X, y = _rng_dataset(rng, 60, 4, k_x=5, k_y=3)
        X[:, 0] = 2          # constant column: n_values_[0] == 3 but 1 seen
        X[:, 2] = 0          # constant at zero: n_values_[2] == 1
        fast = C45Classifier().fit(X, y)
        ref = ReferenceC45().fit(X, y)
        _assert_identical_fits(fast, ref, X)

    def test_all_columns_constant_yields_leaf(self):
        X = np.zeros((30, 3), dtype=np.int64)
        y = np.array([0, 1] * 15, dtype=np.int64)
        model = C45Classifier().fit(X, y)
        assert model.root_.is_leaf
        assert trees_equal(
            model.root_, ReferenceC45().fit(X, y).root_
        )

    def test_high_cardinality_matches_oracle(self):
        # >= 8 values / classes: numpy sums pairwise, not in sequence.
        rng = np.random.default_rng(11)
        X, y = _rng_dataset(rng, 300, 5, k_x=12, k_y=9)
        model = C45Classifier().fit(X, y)
        ref = ReferenceC45().fit(X, y)
        _assert_identical_fits(model, ref, X)

    def test_root_tables_reproduce_plain_fit(self):
        rng = np.random.default_rng(17)
        X, y = _rng_dataset(rng, 150, 6, k_x=5, k_y=4)
        plain = C45Classifier().fit(X, y)
        tables = [
            np.bincount(
                X[:, a] * plain.n_classes_ + y,
                minlength=int(plain.n_values_[a]) * plain.n_classes_,
            ).reshape(int(plain.n_values_[a]), plain.n_classes_)
            for a in range(X.shape[1])
        ]
        seeded = C45Classifier().fit(X, y, root_tables=tables)
        _assert_identical_fits(seeded, plain, X)

    def test_root_tables_length_mismatch_raises(self):
        rng = np.random.default_rng(19)
        X, y = _rng_dataset(rng, 40, 3, k_x=3, k_y=2)
        with pytest.raises(ValueError, match="root_tables"):
            C45Classifier().fit(X, y, root_tables=[np.zeros((3, 2), dtype=np.int64)])


class TestNaiveBayesIdentity:
    @staticmethod
    def _reference_tables(model, X, y):
        """The pre-fusion per-attribute counting loop."""
        k = model.n_classes_
        return [
            np.bincount(
                X[:, a] * k + y, minlength=int(model.n_values_[a]) * k
            ).reshape(int(model.n_values_[a]), k)
            for a in range(X.shape[1])
        ]

    @given(data=categorical_dataset())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fused_count_matches_per_attribute_loop(self, data):
        X, y = data
        fused = NaiveBayesClassifier().fit(X, y)
        ref = NaiveBayesClassifier()
        Xr, yr = ref._setup_fit(X, y)
        ref.fit(X, y, root_tables=self._reference_tables(ref, Xr, yr))
        np.testing.assert_array_equal(fused.log_prior_, ref.log_prior_)
        assert len(fused.log_cond_) == len(ref.log_cond_)
        for a, b in zip(fused.log_cond_, ref.log_cond_):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            fused.predict_proba(X), ref.predict_proba(X)
        )

    def test_root_tables_length_mismatch_raises(self):
        X = np.zeros((10, 2), dtype=np.int64)
        y = np.array([0, 1] * 5, dtype=np.int64)
        with pytest.raises(ValueError, match="root_tables"):
            NaiveBayesClassifier().fit(X, y, root_tables=[np.zeros((1, 2))])
