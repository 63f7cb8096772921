"""Attribution riding the stream layer: pure annotation, durable state.

The hard contract: attribution on vs. off cannot change a score, an
alarm, or fused timing — it only *annotates* alarms with verdicts.  And the verdict
state rides the PR-7 checkpoint machinery bit-identically.
"""

import numpy as np
import pytest

from repro.core.model import CrossFeatureModel
from repro.stream import FleetDetector, OnlineDetector, load_fleet_checkpoint
from repro.stream.durability import save_fleet_checkpoint
from repro.stream.extractor import WindowRow

N_FEATURES = 4
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


@pytest.fixture(scope="module")
def threshold(model):
    scores = model.normality_score(correlated_normal(seed=2), "avg_probability")
    return float(np.percentile(scores, 25))


def mixed_rows(n=30, seed=3):
    """Windows with intermittent corruption, so some (not all) alarm."""
    rng = np.random.default_rng(seed)
    X = correlated_normal(n=n, seed=seed)
    X[::4, 2] += rng.uniform(1e3, 1e6, size=len(X[::4]))
    return [
        WindowRow(index=k, time=5.0 * (k + 1), monitor=0, features=X[k])
        for k in range(n)
    ]


def run_online(model, threshold, rows, **kw):
    online = OnlineDetector(model, threshold, **kw)
    for row in rows:
        online.consume(row)
    return online


def alarm_keys(alarms):
    return [(a.index, a.time, a.score) for a in alarms]


class TestOnlineBitIdentity:
    def test_scores_and_alarms_identical_on_vs_off(self, model, threshold):
        rows = mixed_rows()
        off = run_online(model, threshold, rows, attribution=False)
        on = run_online(model, threshold, rows, attribution=True)
        assert np.array_equal(np.asarray(on.scores), np.asarray(off.scores))
        assert alarm_keys(on.alarms) == alarm_keys(off.alarms)
        assert on.alarms, "fixture must actually alarm"
        assert all(a.verdict is not None for a in on.alarms)
        assert all(a.verdict is None for a in off.alarms)

    def test_default_is_off(self, model, threshold):
        online = OnlineDetector(model, threshold)
        assert online.attribution is None


def one_lane(model, threshold, rows=(), attribution=True):
    """A single stream as the one-lane fleet, each row sealed as it lands."""
    fleet = FleetDetector(model, threshold, attribution=attribution)
    fleet.attach("")
    feed(fleet, rows)
    return fleet


def feed(fleet, rows):
    for row in rows:
        fleet.ingest("", row)
        fleet.seal("", row.time)


class TestOnlineCheckpoint:
    """A single stream checkpoints as its one-lane fleet.  (The mid-run
    attributor-state case is ``TestFleetCheckpoint`` below.)"""

    def test_tail_replay_matches_uninterrupted_run(self, model, threshold):
        rows = mixed_rows()
        clean = one_lane(model, threshold, rows)
        clean.finish()

        cut = len(rows) // 3
        first = one_lane(model, threshold, rows[:cut])
        resumed = one_lane(model, threshold)
        resumed.restore(first.snapshot())
        feed(resumed, rows[cut:])
        resumed.finish()
        assert np.array_equal(np.asarray(resumed._lanes[""].scores),
                              np.asarray(clean._lanes[""].scores))
        assert [a.verdict for a in resumed._lanes[""].alarms] == \
            [a.verdict for a in clean._lanes[""].alarms]

    def test_pre_attribution_snapshot_still_restores(self, model, threshold):
        """A plain run's snapshot carries no attributor state; restoring
        it into an attribution-enabled one-lane fleet must work."""
        plain = one_lane(model, threshold, mixed_rows()[:10], attribution=False)
        state = plain.snapshot()
        assert state["lanes"][""]["attributor"] is None
        fresh = one_lane(model, threshold)
        fresh.restore(state)  # no KeyError; attributor simply starts empty
        assert fresh._attributors[""].verdicts == 0


class TestFleetBitIdentity:
    LANES = ("n0", "n1", "n2")

    def drive(self, model, threshold, attribution):
        fleet = FleetDetector(model, threshold, quorum=2,
                              attribution=attribution)
        for lane in self.LANES:
            fleet.attach(lane)
        rows = {lane: mixed_rows(seed=7 + j) for j, lane in enumerate(self.LANES)}
        for k in range(30):
            for lane in self.LANES:
                fleet.ingest(lane, rows[lane][k])
            fleet.seal_all(5.0 * (k + 1))
        fleet.finish()
        return fleet

    def test_lane_scores_alarms_and_fused_timing_identical(self, model, threshold):
        off = self.drive(model, threshold, attribution=False)
        on = self.drive(model, threshold, attribution=True)
        for lane in self.LANES:
            assert np.array_equal(
                np.asarray(on._lanes[lane].scores),
                np.asarray(off._lanes[lane].scores),
            )
            assert alarm_keys(on._lanes[lane].alarms) == \
                alarm_keys(off._lanes[lane].alarms)
        assert [f.time for f in on.fused] == [f.time for f in off.fused]
        assert on.fused, "fixture must produce fused alarms"
        assert all(f.verdict is not None for f in on.fused)
        assert all(f.verdict is None for f in off.fused)

    def test_batched_contributions_match_single_stream_verdicts(
        self, model, threshold
    ):
        """A fleet lane's verdicts (batched contribution path) must equal
        an OnlineDetector's over the same rows (per-row path)."""
        fleet = self.drive(model, threshold, attribution=True)
        rows = mixed_rows(seed=7)
        online = run_online(model, threshold, rows, attribution=True)
        assert [a.verdict for a in fleet._lanes["n0"].alarms] == \
            [a.verdict for a in online.alarms]

    def test_alarm_contributions_equal_contribution_matrix(
        self, model, threshold, monkeypatch
    ):
        """Each alarming row's contributions, read off its bucket's
        scoring pass, equal contribution_matrix recomputed from the row."""
        from repro.attribution import AlarmAttributor, contribution_matrix

        handed: list[tuple[np.ndarray, np.ndarray | None]] = []
        attribute = AlarmAttributor.attribute

        def spy(self, time, score, features, alarming, contribution=None):
            if alarming:
                handed.append((features, contribution))
            return attribute(self, time, score, features, alarming,
                             contribution=contribution)

        monkeypatch.setattr(AlarmAttributor, "attribute", spy)
        self.drive(model, threshold, attribution=True)
        assert handed, "fixture must actually alarm"
        for features, contribution in handed:
            assert contribution is not None
            assert np.array_equal(contribution,
                                  contribution_matrix(model, features)[0])

    def test_fused_verdict_votes_over_lanes(self, model, threshold):
        fleet = self.drive(model, threshold, attribution=True)
        fused = fleet.fused[0]
        # The fused verdict's windows sum the voting lanes' windows.
        assert fused.verdict.windows >= len(fused.streams)


class TestFleetCheckpoint:
    def test_attributor_state_rides_lane_snapshots(self, model, threshold):
        fleet = FleetDetector(model, threshold, quorum=2, attribution=True)
        for lane in ("n0", "n1"):
            fleet.attach(lane)
        rows = {lane: mixed_rows(seed=11 + j)
                for j, lane in enumerate(("n0", "n1"))}
        for k in range(12):
            for lane in ("n0", "n1"):
                fleet.ingest(lane, rows[lane][k])
            fleet.seal_all(5.0 * (k + 1))

        state = fleet.snapshot()
        fresh = FleetDetector(model, threshold, quorum=2, attribution=True)
        for lane in ("n0", "n1"):
            fresh.attach(lane)
        fresh.restore(state)
        for lane in ("n0", "n1"):
            assert fresh._attributors[lane].snapshot() == \
                fleet._attributors[lane].snapshot()

        for k in range(12, 30):
            for lane in ("n0", "n1"):
                fleet.ingest(lane, rows[lane][k])
                fresh.ingest(lane, rows[lane][k])
            fleet.seal_all(5.0 * (k + 1))
            fresh.seal_all(5.0 * (k + 1))
        fleet.finish()
        fresh.finish()
        assert [f.verdict for f in fresh.fused] == [f.verdict for f in fleet.fused]


#: Table 4/5 names, so the signed-activity path has a vocabulary to pool.
MANET_NAMES = [
    "rreq_received_5s_count",
    "rreq_sent_5s_count",
    "data_received_5s_count",
    "data_sent_5s_count",
    "route_add_count",
    "absolute_velocity",
]


def manet_normal(n=300, seed=0):
    rng = np.random.default_rng(seed)
    load = rng.uniform(0, 10, size=n)
    return np.column_stack([
        load + rng.normal(0, 0.3, n),
        2 * load + rng.normal(0, 0.5, n),
        load ** 1.5 + rng.normal(0, 0.5, n),
        0.5 * load + rng.normal(0, 0.3, n),
        rng.uniform(0, 1, n),
        rng.uniform(0, 1, n),
    ])


class TestLiveActivityCheckpoint:
    """A checkpoint taken mid-episode, once the activity history is live."""

    @pytest.fixture(scope="class")
    def manet(self):
        m = CrossFeatureModel()
        m.fit(manet_normal(), feature_names=MANET_NAMES)
        m.calibrate(manet_normal(seed=1))
        return m, 0.3

    def rows(self, model, threshold):
        """Clean windows, then an attack episode from window 16 on."""
        X = manet_normal(n=40, seed=5)
        X[16:, :2] += 1e4   # an rreq storm...
        X[16:, 2:4] = 0.0   # ...while data traffic stops
        scores = model.normality_score(X, "avg_probability")
        assert (scores[:16] >= threshold).sum() >= 8, "clean history first"
        assert (scores[16:] < threshold).all(), "every attack window alarms"
        return [
            WindowRow(index=k, time=5.0 * (k + 1), monitor=0, features=X[k])
            for k in range(len(X))
        ]

    def test_resume_mid_episode_matches_uninterrupted_run(self, manet, tmp_path):
        model, threshold = manet
        rows = self.rows(model, threshold)
        clean = one_lane(model, threshold, rows)
        clean.finish()

        cut = 22  # six windows into the attack episode
        first = one_lane(model, threshold, rows[:cut])
        acts = first.snapshot()["lanes"][""]["attributor"]["recent_acts"]
        assert acts, "the activity history must be live at the checkpoint"
        for act in acts:
            assert type(act) is dict
            assert all(type(g) is str and type(v) is float for g, v in act.items())
        ckpt = tmp_path / "mid-episode.ckpt"
        save_fleet_checkpoint(ckpt, {"": cut}, first)

        resumed = one_lane(model, threshold)
        assert load_fleet_checkpoint(ckpt, resumed) == {"": cut}
        assert resumed._attributors[""].snapshot() == \
            first._attributors[""].snapshot()
        feed(resumed, rows[cut:])
        resumed.finish()
        verdicts = [a.verdict for a in clean._lanes[""].alarms]
        assert len(verdicts) >= len(rows) - 16
        assert [a.verdict for a in resumed._lanes[""].alarms] == verdicts
