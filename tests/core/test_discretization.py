"""Equal-frequency discretizer tests."""

import numpy as np
import pytest

from repro.core.discretization import EqualFrequencyDiscretizer
from repro.core.model import CrossFeatureModel


class TestFit:
    def test_equal_frequency_on_uniform_data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 100, size=(5000, 1))
        codes = EqualFrequencyDiscretizer(n_buckets=5).fit_transform(X)
        counts = np.bincount(codes[:, 0])
        # Five populated buckets of roughly equal mass (plus the empty
        # out-of-range bucket).
        assert (counts[:5] > 800).all()

    def test_bucket_count_paper_default(self):
        X = np.arange(100, dtype=float).reshape(-1, 1)
        disc = EqualFrequencyDiscretizer().fit(X)
        # 5 buckets + the out-of-range bucket.
        assert disc.n_values()[0] == 6

    def test_constant_column_gets_escape_bucket(self):
        X = np.full((50, 1), 7.0)
        disc = EqualFrequencyDiscretizer().fit(X)
        codes = disc.transform(np.array([[7.0], [7.1], [6.9]]))
        assert codes[0, 0] == 0   # the constant itself
        assert codes[1, 0] == 1   # above: never seen in normal data
        assert codes[2, 0] == 0   # below folds into the base bucket

    def test_skewed_column_separates_minimum_mass(self):
        X = np.array([[0.0]] * 95 + [[10.0]] * 5)
        codes = EqualFrequencyDiscretizer().fit(X).transform(X)
        assert codes[0, 0] != codes[-1, 0]

    def test_out_of_range_bucket_flags_attack_values(self):
        X = np.linspace(0, 10, 100).reshape(-1, 1)
        disc = EqualFrequencyDiscretizer().fit(X)
        codes = disc.transform(np.array([[5.0], [10.0], [1000.0]]))
        top = disc.n_values()[0] - 1
        assert codes[2, 0] == top
        assert codes[0, 0] < top and codes[1, 0] < top

    def test_out_of_range_bucket_can_be_disabled(self):
        X = np.linspace(0, 10, 100).reshape(-1, 1)
        disc = EqualFrequencyDiscretizer(out_of_range_bucket=False).fit(X)
        codes = disc.transform(np.array([[10.0], [1000.0]]))
        assert codes[0, 0] == codes[1, 0]

    def test_prefilter_uses_subsample(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(1000, 2))
        a = EqualFrequencyDiscretizer(prefilter_fraction=0.2, random_state=0).fit(X)
        b = EqualFrequencyDiscretizer().fit(X)
        # Different data -> (generally) different edges, but same structure.
        assert len(a.edges_) == len(b.edges_)
        codes = a.transform(X)
        assert (codes >= 0).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EqualFrequencyDiscretizer(n_buckets=1)
        with pytest.raises(ValueError):
            EqualFrequencyDiscretizer(prefilter_fraction=0.0)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            EqualFrequencyDiscretizer().fit(np.empty((0, 2)))


class TestTransform:
    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            EqualFrequencyDiscretizer().transform(np.zeros((1, 1)))

    def test_column_count_checked(self):
        disc = EqualFrequencyDiscretizer().fit(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            disc.transform(np.zeros((5, 3)))

    def test_transform_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.exponential(size=(200, 3))
        disc = EqualFrequencyDiscretizer().fit(X)
        np.testing.assert_array_equal(disc.transform(X), disc.transform(X))


def _per_column_reference(disc, X):
    """The pre-vectorization transform: one searchsorted per column."""
    X = np.asarray(X, dtype=float)
    codes = np.empty(X.shape, dtype=np.int64)
    for j, edges in enumerate(disc.edges_):
        codes[:, j] = np.searchsorted(edges, X[:, j], side="left")
    return codes


class TestTransformIdentity:
    """The single merged-searchsorted transform must be bit-identical to
    the per-column loop — same comparisons against the same floats."""

    def test_matches_per_column_searchsorted(self):
        rng = np.random.default_rng(5)
        X_fit = rng.exponential(size=(300, 4))
        X_fit[:, 2] = 7.0  # constant column
        disc = EqualFrequencyDiscretizer().fit(X_fit)
        X = rng.exponential(size=(500, 4)) * 3 - 1
        np.testing.assert_array_equal(disc.transform(X), _per_column_reference(disc, X))

    def test_matches_on_edge_values_nan_and_inf(self):
        X_fit = np.linspace(0, 10, 100).reshape(-1, 1).repeat(2, axis=1)
        disc = EqualFrequencyDiscretizer().fit(X_fit)
        edge = disc.edges_[0][0]
        X = np.array([
            [edge, edge],
            [np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)],
            [np.nan, np.nan],
            [np.inf, -np.inf],
        ])
        np.testing.assert_array_equal(disc.transform(X), _per_column_reference(disc, X))

    def test_randomized_trials(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(5, 120))
            d = int(rng.integers(1, 6))
            X_fit = rng.normal(size=(n, d)) * rng.uniform(0.1, 100)
            if rng.random() < 0.3:
                X_fit[:, int(rng.integers(0, d))] = rng.normal()
            disc = EqualFrequencyDiscretizer(
                n_buckets=int(rng.integers(2, 8))
            ).fit(X_fit)
            X = rng.normal(size=(int(rng.integers(1, 200)), d)) * 50
            np.testing.assert_array_equal(
                disc.transform(X), _per_column_reference(disc, X)
            )

    def test_lookup_rebuilt_after_refit(self):
        disc = EqualFrequencyDiscretizer().fit(np.linspace(0, 1, 50).reshape(-1, 1))
        disc.transform(np.array([[0.5]]))  # builds the lookup
        disc.fit(np.linspace(0, 100, 50).reshape(-1, 1))
        np.testing.assert_array_equal(
            disc.transform(np.array([[50.0]])),
            _per_column_reference(disc, np.array([[50.0]])),
        )

    def test_unpickled_without_lookup_still_transforms(self):
        import pickle

        disc = EqualFrequencyDiscretizer().fit(np.linspace(0, 1, 50).reshape(-1, 1))
        clone = pickle.loads(pickle.dumps(disc))
        del clone._lookup_  # simulate a pickle from before the fast path
        np.testing.assert_array_equal(
            clone.transform(np.array([[0.5]])),
            _per_column_reference(disc, np.array([[0.5]])),
        )


@pytest.mark.parametrize("n_buckets", [2.5, float("nan"), 1, 0, -3, True, 5.0])
@pytest.mark.parametrize("make", [
    lambda n: EqualFrequencyDiscretizer(n_buckets=n),
    lambda n: CrossFeatureModel(n_buckets=n),
], ids=["discretizer", "model"])
def test_bad_n_buckets_rejected_at_construction(make, n_buckets):
    with pytest.raises(ValueError, match="n_buckets"):
        make(n_buckets)
