"""AlarmAttributor mechanics: verdicts, episodes, durability, fusion."""

import numpy as np
import pytest

from repro.attribution import (
    AlarmAttributor,
    AnomalyType,
    Verdict,
    fuse_verdicts,
)
from repro.attribution.taxonomy import ANOMALY_TYPES, UNKNOWN
from repro.core.model import CrossFeatureModel

NAMES = ["load", "double_load", "load_pow", "noise"]


def correlated_normal(n=300, seed=0):
    rng = np.random.default_rng(seed)
    activity = rng.uniform(0, 10, size=n)
    return np.column_stack([
        activity + rng.normal(0, 0.3, n),
        2 * activity + rng.normal(0, 0.5, n),
        activity ** 1.5 + rng.normal(0, 0.5, n),
        rng.uniform(0, 1, n),
    ])


@pytest.fixture(scope="module")
def model():
    m = CrossFeatureModel()
    m.fit(correlated_normal(), feature_names=NAMES)
    m.calibrate(correlated_normal(seed=1))
    return m


NORMAL = np.array([5.0, 10.0, 11.0, 0.5])
BROKEN = np.array([5.0, 10.0, 1e6, 0.5])


def make(model, **kw):
    return AlarmAttributor(model, threshold=0.5, **kw)


class TestAttribute:
    def test_requires_fitted_model(self):
        with pytest.raises(ValueError):
            AlarmAttributor(CrossFeatureModel(), threshold=0.5)

    def test_no_verdict_on_healthy_windows(self, model):
        attributor = make(model)
        for k in range(5):
            v = attributor.attribute(5.0 * (k + 1), 0.9, NORMAL, alarming=False)
            assert v is None
        assert attributor.verdicts == 0

    def test_verdict_on_every_alarming_window(self, model):
        attributor = make(model)
        v = attributor.attribute(5.0, 0.1, BROKEN, alarming=True)
        assert isinstance(v, Verdict)
        assert v.windows == 1 and attributor.verdicts == 1
        assert "load_pow" in v.features
        assert len(v.features) == len(v.targets) == len(v.contributions)
        assert all(isinstance(t, int) for t in v.targets)
        assert list(v.contributions) == sorted(v.contributions, reverse=True)

    def test_blame_aggregates_over_the_episode(self, model):
        attributor = make(model)
        v1 = attributor.attribute(5.0, 0.1, BROKEN, alarming=True)
        v2 = attributor.attribute(10.0, 0.1, BROKEN, alarming=True)
        assert (v1.windows, v2.windows) == (1, 2)

    def test_healed_episode_clears_blame(self, model):
        attributor = make(model)
        attributor.attribute(5.0, 0.1, BROKEN, alarming=True)
        # Healthy windows drain the CUSUM statistic back to zero…
        for k in range(10):
            attributor.attribute(10.0 + 5.0 * k, 2.0, NORMAL, alarming=False)
        assert attributor.cusum.stat == 0.0
        # …so the next episode starts from a clean slate.
        v = attributor.attribute(100.0, 0.1, BROKEN, alarming=True)
        assert v.windows == 1

    def test_onset_rides_the_verdict(self, model):
        attributor = make(model)
        attributor.attribute(5.0, 0.9, NORMAL, alarming=False)
        v1 = attributor.attribute(10.0, 0.0, BROKEN, alarming=True)
        assert v1.onset == 10.0  # score 0 crosses the decision level at once
        v2 = attributor.attribute(15.0, 0.0, BROKEN, alarming=True)
        assert v2.onset == 10.0  # frozen for the episode

    def test_residual_flags_after_enough_history(self, model):
        attributor = make(model, residual_min_history=4)
        rng = np.random.default_rng(2)
        for k in range(8):
            row = NORMAL + rng.normal(0, 0.05, size=4)
            attributor.attribute(5.0 * (k + 1), 0.9, row, alarming=False)
        v = attributor.attribute(45.0, 0.1, BROKEN, alarming=True)
        assert len(v.residual) == len(v.features)
        flagged = {f for f, r in zip(v.features, v.residual) if r}
        assert "load_pow" in flagged

    def test_residual_empty_without_history(self, model):
        attributor = make(model)
        v = attributor.attribute(5.0, 0.1, BROKEN, alarming=True)
        assert v.residual == ()

    def test_precomputed_contribution_row_matches_internal(self, model):
        from repro.attribution import contribution_matrix

        a1, a2 = make(model), make(model)
        contribution = contribution_matrix(model, BROKEN)[0]
        v1 = a1.attribute(5.0, 0.1, BROKEN, alarming=True)
        v2 = a2.attribute(5.0, 0.1, BROKEN, alarming=True,
                          contribution=contribution)
        assert v1 == v2

    def test_summary_fragment(self, model):
        attributor = make(model)
        v = attributor.attribute(5.0, 0.0, BROKEN, alarming=True)
        assert v.summary().startswith(f"type={v.anomaly_type} features=")
        assert "onset=5s" in v.summary()


class TestDurability:
    def test_snapshot_restore_resumes_bit_identically(self, model):
        rng = np.random.default_rng(3)
        rows = [NORMAL + rng.normal(0, 0.05, 4) for _ in range(12)]
        scores = [0.9] * 8 + [0.1, 0.9, 0.1, 0.1]

        live = make(model, residual_min_history=4)
        for k in range(6):
            live.attribute(5.0 * (k + 1), scores[k], rows[k], alarming=scores[k] < 0.5)
        clone = make(model, residual_min_history=4)
        clone.restore(live.snapshot())
        for k in range(6, 12):
            alarming = scores[k] < 0.5
            v_live = live.attribute(5.0 * (k + 1), scores[k], rows[k], alarming=alarming)
            v_clone = clone.attribute(5.0 * (k + 1), scores[k], rows[k], alarming=alarming)
            assert v_live == v_clone
        assert clone.snapshot() == live.snapshot()

    def test_snapshot_is_json_safe(self, model):
        import json

        attributor = make(model)
        attributor.attribute(5.0, 0.1, BROKEN, alarming=True)
        state = attributor.snapshot()
        assert json.loads(json.dumps(state)) == state


def verdict(atype, match=0.5, features=("a", "b"), targets=(0, 1),
            contributions=(0.9, 0.4), onset=None, windows=1):
    return Verdict(anomaly_type=atype, match=match, features=tuple(features),
                   targets=tuple(targets), contributions=tuple(contributions),
                   residual=(), onset=onset, windows=windows)


class TestFuseVerdicts:
    def test_empty_and_all_none(self):
        assert fuse_verdicts([]) is None
        assert fuse_verdicts([None, None]) is None

    def test_majority_wins(self):
        fused = fuse_verdicts([
            verdict("flooding"), verdict("flooding"), verdict("dropping"),
        ])
        assert fused.anomaly_type == "flooding"
        assert fused.windows == 3

    def test_tie_resolves_to_registry_order(self):
        names = list(ANOMALY_TYPES)
        fused = fuse_verdicts([verdict(names[1]), verdict(names[0])])
        assert fused.anomaly_type == names[0]

    def test_unknown_loses_any_tie(self):
        fused = fuse_verdicts([verdict(UNKNOWN), verdict("dropping")])
        assert fused.anomaly_type == "dropping"

    def test_blame_summed_across_all_votes(self):
        fused = fuse_verdicts([
            verdict("flooding", features=("a", "b"), targets=(0, 1),
                    contributions=(0.5, 0.2)),
            verdict("dropping", features=("b", "c"), targets=(1, 2),
                    contributions=(0.9, 0.1)),
        ])
        assert fused.features[0] == "b"  # 0.2 + 0.9 beats 0.5
        assert fused.contributions[0] == pytest.approx(1.1)

    def test_onset_is_earliest_witness(self):
        fused = fuse_verdicts([
            verdict("flooding", onset=30.0),
            verdict("flooding", onset=10.0),
            verdict("flooding", onset=None),
        ])
        assert fused.onset == 10.0

    def test_match_averages_winning_votes_only(self):
        fused = fuse_verdicts([
            verdict("flooding", match=0.8), verdict("flooding", match=0.4),
            verdict("dropping", match=0.99),
        ])
        assert fused.match == pytest.approx(0.6)

    def test_custom_taxonomy_precedence(self):
        custom = {
            "late": AnomalyType("late", "", {"other": 1.0}),
            "early": AnomalyType("early", "", {"other": 1.0}),
        }
        fused = fuse_verdicts([verdict("early"), verdict("late")],
                              taxonomy=custom)
        assert fused.anomaly_type == "late"
