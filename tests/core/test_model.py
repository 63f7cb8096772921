"""Cross-feature model and detector tests on synthetic correlated data."""

import numpy as np
import pytest

from repro.core.model import CrossFeatureDetector, CrossFeatureModel
from repro.ml import CLASSIFIERS
from tests.ml.reference import REFERENCE_CLASSIFIERS


def correlated_normal(n=400, seed=0):
    """Normal data with strong inter-feature correlation.

    A hidden 'activity level' drives all features, mimicking how network
    load drives every traffic statistic together.
    """
    rng = np.random.default_rng(seed)
    activity = rng.uniform(0, 10, size=n)
    X = np.column_stack([
        activity + rng.normal(0, 0.3, n),
        2 * activity + rng.normal(0, 0.5, n),
        activity ** 1.5 + rng.normal(0, 0.5, n),
        0.5 * activity + rng.normal(0, 0.2, n),
        rng.uniform(0, 1, n),  # one genuinely noisy feature
    ])
    return np.maximum(X, 0.0)


def broken_correlation(n=100, seed=1):
    """Anomalies: each feature individually in range, correlations broken."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.uniform(0, 10, n),
        rng.uniform(0, 20, n),
        rng.uniform(0, 32, n),
        rng.uniform(0, 5, n),
        rng.uniform(0, 1, n),
    ])
    return X


@pytest.fixture(scope="module", params=sorted(CLASSIFIERS))
def fitted_model(request):
    model = CrossFeatureModel(classifier_factory=CLASSIFIERS[request.param])
    train = correlated_normal()
    model.fit(train)
    model.calibrate(correlated_normal(seed=7))
    return model


class TestTraining:
    def test_one_submodel_per_feature(self, fitted_model):
        assert fitted_model.n_models == 5
        assert fitted_model.targets_ == [0, 1, 2, 3, 4]

    def test_max_models_limits_ensemble(self):
        model = CrossFeatureModel(max_models=3)
        model.fit(correlated_normal())
        assert model.n_models == 3

    def test_feature_subset_restricts_columns(self):
        model = CrossFeatureModel(feature_subset=[0, 1, 2])
        model.fit(correlated_normal())
        assert model.n_models == 3
        scores = model.normality_score(correlated_normal(seed=2))
        assert len(scores) == 400

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            CrossFeatureModel().fit(np.zeros((10, 1)))

    def test_score_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            CrossFeatureModel().normality_score(np.zeros((1, 5)))


class TestSharedPassTraining:
    """The shared-pass ensemble fit (one discretization scan, pairwise
    contingency tensor, keep-index gathers) must train sub-models
    identical to the reference per-sub-model loop (the tests-side
    factories in ``tests/ml/reference.py``)."""

    @staticmethod
    def _reference_model(name="c45", **kwargs):
        model = CrossFeatureModel(
            classifier_factory=REFERENCE_CLASSIFIERS[name], **kwargs
        )
        model.fit(correlated_normal())
        return model

    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    def test_sub_model_outputs_identical(self, name):
        ref = self._reference_model(name)
        shared = CrossFeatureModel(classifier_factory=CLASSIFIERS[name])
        shared.fit(correlated_normal())
        X = np.vstack([correlated_normal(seed=21), broken_correlation(seed=22)])
        m_ref, p_ref = ref._sub_model_outputs(X)
        m_new, p_new = shared._sub_model_outputs(X)
        np.testing.assert_array_equal(m_ref, m_new)
        np.testing.assert_array_equal(p_ref, p_new)

    def test_c45_trees_structurally_identical(self):
        from repro.ml.decision_tree import trees_equal

        ref = self._reference_model()
        shared = CrossFeatureModel()
        shared.fit(correlated_normal())
        assert shared.targets_ == ref.targets_
        for a, b in zip(shared.models_, ref.models_):
            assert trees_equal(a.root_, b.root_)

    def test_max_models_subset_identical(self):
        ref = self._reference_model(max_models=3)
        shared = CrossFeatureModel(max_models=3)
        shared.fit(correlated_normal())
        assert shared.targets_ == ref.targets_
        X = correlated_normal(seed=23)
        _, p_ref = ref._sub_model_outputs(X)
        _, p_new = shared._sub_model_outputs(X)
        np.testing.assert_array_equal(p_ref, p_new)

    def test_classifier_without_root_tables_still_fits(self):
        # RIPPER does not accept root tables; the ensemble must fall
        # back to the per-sub-model path transparently.
        model = CrossFeatureModel(classifier_factory=CLASSIFIERS["ripper"])
        model.fit(correlated_normal(n=120))
        assert model.n_models == 5

    def test_unpickled_model_scores_identically(self, fitted_model):
        import pickle

        clone = pickle.loads(pickle.dumps(fitted_model))
        clone._keep_cols = None  # simulate a pickle from before the gathers
        X = correlated_normal(seed=25)[:40]
        np.testing.assert_array_equal(
            clone.normality_score(X), fitted_model.normality_score(X)
        )


class TestScoring:
    def test_normal_scores_above_anomaly_scores(self, fitted_model):
        normal = fitted_model.normality_score(correlated_normal(seed=3))
        anomal = fitted_model.normality_score(broken_correlation())
        assert normal.mean() > anomal.mean()

    def test_all_methods_available(self, fitted_model):
        X = correlated_normal(seed=4)[:20]
        for method in ("avg_probability", "match_count", "calibrated_probability"):
            scores = fitted_model.normality_score(X, method)
            assert scores.shape == (20,)
            assert (scores >= 0).all() and (scores <= 1).all()

    def test_unknown_method_rejected(self, fitted_model):
        with pytest.raises(ValueError):
            fitted_model.normality_score(correlated_normal()[:5], "bogus")

    def test_calibrated_requires_calibration(self):
        model = CrossFeatureModel()
        model.fit(correlated_normal())
        with pytest.raises(RuntimeError):
            model.normality_score(correlated_normal()[:5], "calibrated_probability")

    def test_match_count_is_fraction_of_models(self, fitted_model):
        scores = fitted_model.normality_score(
            correlated_normal(seed=5)[:50], "match_count"
        )
        # With 5 sub-models, match counts are multiples of 1/5.
        np.testing.assert_allclose((scores * 5) % 1.0, 0.0, atol=1e-9)

    def test_out_of_range_values_score_low(self, fitted_model):
        X = correlated_normal(seed=6)[:10]
        X_attack = X.copy()
        X_attack[:, 0] = 1e6  # far beyond anything normal
        normal_scores = fitted_model.normality_score(X)
        attack_scores = fitted_model.normality_score(X_attack)
        assert attack_scores.mean() < normal_scores.mean()


class TestDetector:
    def test_end_to_end_detection(self):
        det = CrossFeatureDetector(method="calibrated_probability",
                                   false_alarm_rate=0.05)
        det.fit(correlated_normal(n=600))
        normal_alarms = det.predict(correlated_normal(seed=9)).mean()
        anomaly_alarms = det.predict(broken_correlation()).mean()
        assert anomaly_alarms > 0.5
        assert anomaly_alarms > normal_alarms

    def test_false_alarm_rate_approximately_honoured(self):
        det = CrossFeatureDetector(method="avg_probability", false_alarm_rate=0.1)
        X = correlated_normal(n=800)
        det.fit(X)
        # On the calibration block itself the rate is exact by construction;
        # on fresh normal data it should be in the right ballpark.
        fresh = det.predict(correlated_normal(seed=11)).mean()
        assert fresh < 0.5

    def test_explicit_calibration_set(self):
        det = CrossFeatureDetector()
        det.fit(correlated_normal(), calibration_X=correlated_normal(seed=13))
        assert det.threshold_ is not None

    def test_predict_before_fit_rejected(self):
        det = CrossFeatureDetector()
        with pytest.raises(RuntimeError):
            det.predict(np.zeros((1, 5)))

    def test_invalid_calibration_fraction(self):
        with pytest.raises(ValueError):
            CrossFeatureDetector(calibration_fraction=1.5)


@pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
def test_bad_false_alarm_rate_rejected_at_construction(rate):
    with pytest.raises(ValueError, match="false_alarm_rate"):
        CrossFeatureDetector(false_alarm_rate=rate)
