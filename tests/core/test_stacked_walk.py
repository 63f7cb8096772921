"""The stacked node-table walk of a C4.5 ensemble against its oracle.

``CrossFeatureModel._sub_model_outputs`` walks every C4.5 sub-model at
once over one table; ``tests/ml/reference.py::sub_model_outputs_rowwise``
scores one sub-model at a time through the per-row walk.  The two must
agree bit for bit on random ensembles: any bucket count, a feature
subset, a sampled subset of sub-models, and probe rows far outside the
training range (out-of-range buckets, which every sub-model scores 0).
Rows are scored independently, so one-row calls reproduce the batch.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import SCORING_METHODS, CrossFeatureModel
from tests.ml.reference import sub_model_outputs_rowwise


def _rows(rng, n: int, n_features: int, scale: float = 1.0) -> np.ndarray:
    """Columns driven by one latent level (so trees split), plus noise."""
    level = rng.uniform(0, 10, size=n)
    weights = rng.uniform(0.2, 2.0, size=n_features)
    X = level[:, None] * weights + rng.normal(0, 1.0, size=(n, n_features))
    X[:, -1] = rng.integers(0, 3, size=n)  # a few distinct values only
    return X * scale


@st.composite
def ensembles(draw):
    n_features = draw(st.integers(2, 7))
    subset = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, n_features - 1), min_size=2, max_size=n_features,
                 unique=True),
    ))
    width = n_features if subset is None else len(subset)
    model = CrossFeatureModel(
        n_buckets=draw(st.integers(2, 10)),
        max_models=draw(st.one_of(st.none(), st.integers(1, width))),
        feature_subset=subset,
        random_state=draw(st.integers(0, 3)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    model.fit(_rows(rng, draw(st.integers(20, 120)), n_features))
    model.calibrate(_rows(rng, 40, n_features))
    probe = np.vstack([
        _rows(rng, 15, n_features),
        _rows(rng, 10, n_features, scale=-3.0),   # below every bucket edge
        _rows(rng, 10, n_features, scale=50.0),   # the out-of-range bucket
    ])
    return model, probe


class TestStackedWalk:
    @given(case=ensembles())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_rowwise_oracle_bit_for_bit(self, case):
        model, probe = case
        matches, p_true = model._sub_model_outputs(probe)
        want_matches, want_p_true = sub_model_outputs_rowwise(model, probe)
        assert np.array_equal(matches, want_matches)
        assert np.array_equal(p_true, want_p_true)
        assert p_true.dtype == np.float64 and p_true.flags.c_contiguous

    @given(case=ensembles())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_one_row_scores_equal_the_batch(self, case):
        model, probe = case
        for method in SCORING_METHODS:
            batch = model.normality_score(probe, method)
            rows = [model.normality_score(probe[k:k + 1], method)[0]
                    for k in range(len(probe))]
            assert np.array_equal(np.asarray(rows), batch), method

    def test_unpickled_model_rebuilds_the_table(self):
        import pickle

        rng = np.random.default_rng(0)
        model = CrossFeatureModel().fit(_rows(rng, 80, 4))
        probe = _rows(rng, 20, 4, scale=3.0)
        want = model._sub_model_outputs(probe)
        del model._stack
        for tree in model.models_:
            del tree._table
        clone = pickle.loads(pickle.dumps(model))
        for got, expected in zip(clone._sub_model_outputs(probe), want):
            assert np.array_equal(got, expected)
