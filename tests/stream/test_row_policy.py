"""Degraded-input policies and stream-layer fault injection.

``row_policy="strict"`` is the pre-existing trust-the-extractor
behaviour; ``"quarantine"`` routes late / duplicate / NaN /
out-of-range rows into typed :class:`StreamFault` records instead of
scoring (or raising), trips a consecutive-fault circuit breaker, and
lets ``stall_timeout`` seal lanes stuck behind the watermark — so a
fleet under chaos *completes*, with the damage accounted, rather than
raising.  The injection side (:class:`StreamFaultPlan` /
:class:`RowFaultInjector`) is deterministic by construction and drilled
here clause by clause.
"""

import numpy as np
import pytest

from repro.stream import (
    DEFAULT_MAX_FAULTS,
    DEFAULT_ROW_POLICY,
    FleetDetector,
    OnlineDetector,
    StreamFault,
    StreamFaultPlan,
    StreamFaultSpec,
    validate_row_policy,
)
from repro.stream.extractor import StreamingExtractor, WindowRow
from repro.stream.faults import RowFaultInjector, corrupt_row


class BatchScoreByFirstFeature:
    discretizer = object()  # "fitted" marker checked by the detectors

    def normality_score(self, X, method):
        return X[:, 0].astype(float)


MODEL = BatchScoreByFirstFeature()


def row(index, time, value=0.9):
    return WindowRow(
        index=index, time=time, monitor=0,
        features=np.array([value, 0.0]),
    )


def nan_row(index, time):
    return WindowRow(
        index=index, time=time, monitor=0,
        features=np.array([np.nan, 0.0]),
    )


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
class TestPolicyConfig:
    def test_default_is_strict(self):
        assert DEFAULT_ROW_POLICY == "strict"
        assert validate_row_policy(None) == "strict"
        assert validate_row_policy("quarantine") == "quarantine"

    def test_unknown_policy_rejected_everywhere(self):
        with pytest.raises(ValueError, match="row_policy"):
            validate_row_policy("lenient")
        with pytest.raises(ValueError, match="row_policy"):
            OnlineDetector(MODEL, 0.5, row_policy="lenient")
        with pytest.raises(ValueError, match="row_policy"):
            FleetDetector(MODEL, 0.5, row_policy="lenient")

    def test_stall_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="stall_timeout"):
            FleetDetector(MODEL, 0.5, stall_timeout=0.0)


NAN, INF = float("nan"), float("inf")

#: (constructor call, the parameter its ValueError must name).
BAD_CONSTRUCTIONS = [
    (lambda: FleetDetector(MODEL, NAN), "threshold"),
    (lambda: OnlineDetector(MODEL, NAN), "threshold"),
    (lambda: FleetDetector(MODEL, 0.5, stall_timeout=NAN), "stall_timeout"),
    (lambda: FleetDetector(MODEL, 0.5, stall_timeout=INF), "stall_timeout"),
    (lambda: FleetDetector(MODEL, 0.5, max_consecutive_faults=-1),
     "max_consecutive_faults"),
    (lambda: FleetDetector(MODEL, 0.5, max_consecutive_faults=NAN),
     "max_consecutive_faults"),
    (lambda: FleetDetector(MODEL, 0.5, method="bogus"), "method"),
    (lambda: OnlineDetector(MODEL, 0.5, method="bogus"), "method"),
    (lambda: StreamingExtractor(warmup=NAN), "warmup"),
    (lambda: StreamingExtractor(warmup=-1.0), "warmup"),
    (lambda: StreamingExtractor(warmup=INF), "warmup"),
    (lambda: FleetDetector(MODEL, 0.5).add_stream(warmup=NAN), "warmup"),
    (lambda: StreamingExtractor(sampling_period=NAN), "sampling_period"),
    (lambda: StreamingExtractor(sampling_period=INF), "sampling_period"),
    (lambda: StreamingExtractor(periods=(-5.0,)), "periods"),
    (lambda: StreamingExtractor(periods=(NAN,)), "periods"),
    (lambda: StreamingExtractor(periods=(5.0, INF)), "periods"),
]


class TestConstructorValidation:
    """Bad construction values fail at once, naming the parameter,
    instead of being accepted and never alarming, never sealing or
    failing on the first scored bucket."""

    @pytest.mark.parametrize("build, name", BAD_CONSTRUCTIONS)
    def test_bad_value_is_rejected_by_name(self, build, name):
        with pytest.raises(ValueError, match=name):
            build()

    def test_edge_values_are_accepted(self):
        fleet = FleetDetector(MODEL, -INF, max_consecutive_faults=0)
        fleet.add_stream(warmup=0.0)
        assert OnlineDetector(MODEL, INF, method="match_count").threshold == INF
        assert StreamingExtractor(warmup=0.0, periods=(5.0, 60.0)).warmup == 0.0


# ----------------------------------------------------------------------
# Single-stream quarantine
# ----------------------------------------------------------------------
class TestOnlineQuarantine:
    def test_strict_scores_every_row_as_before(self):
        det = OnlineDetector(MODEL, 0.5)  # default strict
        det.consume(row(0, 5.0))
        det.consume(nan_row(1, 10.0))  # strict trusts the extractor
        assert det.windows == 2 and det.quarantined == 0

    def test_strict_rejects_a_row_at_or_before_the_last_scored(self):
        det = OnlineDetector(MODEL, 0.5)
        det.consume(row(0, 5.0))
        det.consume(row(1, 10.0))
        with pytest.raises(ValueError, match=r"finalised \(watermark 10\.0\)"):
            det.consume(row(2, 10.0))
        with pytest.raises(ValueError, match=r"finalised \(watermark 10\.0\)"):
            det.consume(row(2, 7.0))
        assert det.windows == 2

    def test_nan_row_quarantined_not_scored(self):
        faults = []
        det = OnlineDetector(MODEL, 0.5, row_policy="quarantine",
                             on_fault=faults.append)
        det.consume(row(0, 5.0))
        assert det.consume(nan_row(1, 10.0)) is None
        det.consume(row(2, 15.0))
        assert det.windows == 2 and det.quarantined == 1
        assert faults[0].kind == "nan" and faults[0].index == 1

    def test_late_and_duplicate_rows_quarantined(self):
        det = OnlineDetector(MODEL, 0.5, row_policy="quarantine")
        det.consume(row(0, 5.0))
        det.consume(row(1, 10.0))
        det.consume(row(1, 10.0))   # same index, same time: duplicate
        det.consume(row(2, 7.0))    # time went backwards: late
        assert det.windows == 2
        assert [f.kind for f in det.fault_records] == ["duplicate", "late"]

    def test_single_stream_has_no_fault_breaker(self):
        det = OnlineDetector(MODEL, 0.5, row_policy="quarantine")
        for k in range(8):  # well past DEFAULT_MAX_FAULTS in a row
            det.consume(nan_row(k, 5.0 * (k + 1)))
        det.consume(row(8, 45.0))
        assert det.windows == 1 and det.quarantined == 8

    def test_out_of_range_rows_quarantined(self):
        det = OnlineDetector(MODEL, 0.5, row_policy="quarantine")
        det.consume(WindowRow(index=0, time=5.0, monitor=0,
                              features=np.array([np.inf, 0.0])))
        det.consume(row(1, -3.0))
        assert det.windows == 0
        assert [f.kind for f in det.fault_records] == \
               ["out_of_range", "out_of_range"]


# ----------------------------------------------------------------------
# Fleet quarantine, breaker, stall and duplicate seals
# ----------------------------------------------------------------------
def fleet_with(n, threshold=0.5, **kwargs):
    fleet = FleetDetector(MODEL, threshold=threshold, **kwargs)
    for s in range(n):
        fleet.attach(f"n{s}")
    return fleet


class TestFleetQuarantine:
    def test_strict_raises_on_late_row(self):
        fleet = fleet_with(2)
        fleet.ingest("n0", row(0, 5.0))
        fleet.ingest("n1", row(0, 5.0))
        fleet.seal_all(6.0)  # watermark strictly past the 5.0 bucket
        with pytest.raises(ValueError, match="finalised"):
            fleet.ingest("n0", row(1, 5.0))

    def test_quarantine_records_late_row_and_continues(self):
        fleet = fleet_with(2, row_policy="quarantine")
        fleet.ingest("n0", row(0, 5.0))
        fleet.ingest("n1", row(0, 5.0))
        fleet.seal_all(6.0)  # watermark strictly past the 5.0 bucket
        fleet.ingest("n0", row(1, 5.0))  # would raise under strict
        fleet.ingest("n0", row(1, 10.0))
        fleet.ingest("n1", row(1, 10.0))
        fleet.finish()
        assert fleet.windows == 4
        assert [f.kind for f in fleet.fault_records] == ["late"]
        assert fleet.fault_records[0].stream == "n0"

    def test_ingest_after_finish_quarantines_instead_of_raising(self):
        fleet = fleet_with(1, row_policy="quarantine")
        fleet.ingest("n0", row(0, 5.0))
        fleet.finish()
        fleet.ingest("n0", row(1, 10.0))  # raises under strict
        assert [f.kind for f in fleet.fault_records] == ["late"]

    def test_consecutive_fault_breaker_seals_lane(self):
        sealed = []
        fleet = fleet_with(
            2, row_policy="quarantine", max_consecutive_faults=3,
            on_seal=lambda name, reason: sealed.append((name, reason)),
        )
        for k in range(4):
            fleet.ingest("n0", nan_row(k, 5.0 * (k + 1)))
        assert sealed == [("n0", "faulted")]
        assert fleet.sealed == {"n0": "faulted"}
        assert len(fleet.fault_records) == 4
        # The healthy lane still finishes the run normally.
        fleet.ingest("n1", row(0, 5.0))
        fleet.finish()
        assert fleet.windows == 1

    def test_clean_row_resets_the_breaker(self):
        fleet = fleet_with(1, row_policy="quarantine",
                           max_consecutive_faults=2)
        for k in range(6):  # alternate bad/good: never 3 consecutive
            fleet.ingest("n0", nan_row(2 * k, 5.0 * (k + 1)))
            fleet.ingest("n0", row(2 * k + 1, 5.0 * (k + 1)))
        assert fleet.sealed == {}
        assert len(fleet.fault_records) == 6

    def test_default_breaker_threshold(self):
        fleet = fleet_with(1, row_policy="quarantine")
        assert fleet.max_consecutive_faults == DEFAULT_MAX_FAULTS

    def test_stalled_lane_sealed_and_watermark_released(self):
        sealed = []
        fleet = fleet_with(
            3, row_policy="quarantine", stall_timeout=10.0,
            on_seal=lambda name, reason: sealed.append((name, reason)),
        )
        for k in range(5):
            t = 5.0 * (k + 1)
            fleet.ingest("n0", row(k, t))
            fleet.ingest("n1", row(k, t))
            if k == 0:
                fleet.ingest("n2", row(k, t))
                fleet.seal_all(t)
            else:  # n2 goes silent after its first tick
                fleet.seal("n0", t)
                fleet.seal("n1", t)
        # n2 froze at 5.0; once the others reach 20.0 the gap exceeds 10.
        assert sealed == [("n2", "stalled")]
        assert fleet.sealed == {"n2": "stalled"}
        fleet.finish()
        # Buckets the dead lane was holding back were finalised.
        assert fleet.windows == 11

    def test_never_started_lane_is_not_stalled(self):
        fleet = fleet_with(2, stall_timeout=5.0)
        for k in range(5):  # n1 never delivers, frontier stays -inf
            fleet.ingest("n0", row(k, 5.0 * (k + 1)))
            fleet.seal("n0", 5.0 * (k + 1))
        assert fleet.sealed == {}

    def test_duplicate_seal_is_counted_noop(self):
        sealed = []
        fleet = fleet_with(
            2, on_seal=lambda name, reason: sealed.append((name, reason))
        )
        fleet.ingest("n0", row(0, 5.0))
        fleet.drop("n1")
        fleet.drop("n1")   # again: no-op, counted
        fleet.seal("n1", 99.0)  # sealing a dropped lane: no-op, counted
        fleet.finish()
        assert fleet.duplicate_seals == 2
        assert sealed == [("n1", "dropped"), ("n1", "duplicate"),
                          ("n1", "duplicate")]
        assert fleet.sealed == {"n1": "dropped"}
        result = fleet.result()
        assert result.duplicate_seals == 2
        assert result.sealed == {"n1": "dropped"}

    def test_quorum_evaluated_over_surviving_reporters(self):
        # 3 lanes, one sealed: a 2-of-reporting fraction quorum must be
        # judged against the 2 survivors, not the original 3.
        fused = []
        fleet = fleet_with(3, quorum=1.0, row_policy="quarantine",
                           on_fused=fused.append)
        fleet.drop("n2")
        for k in range(3):
            t = 5.0 * (k + 1)
            fleet.ingest("n0", row(k, t, value=0.1))  # alarms (score < 0.5)
            fleet.ingest("n1", row(k, t, value=0.1))
            fleet.seal_all(t)
        fleet.finish()
        assert len(fused) == 3
        assert all(f.reporting == 2 and f.needed == 2 for f in fused)

    def test_fault_records_surface_in_result(self):
        fleet = fleet_with(1, row_policy="quarantine")
        fleet.ingest("n0", nan_row(0, 5.0))
        fleet.finish()
        result = fleet.result()
        assert [f.kind for f in result.fault_records] == ["nan"]
        assert isinstance(result.fault_records[0], StreamFault)


# ----------------------------------------------------------------------
# The injection mini-language and injector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = StreamFaultPlan.parse(
            "drop-row:s0/n1:3, dup-row:*:4,crash-lane:s0/n2:6,ckpt-corrupt:1"
        )
        assert plan.specs == (
            StreamFaultSpec("drop-row", "s0/n1", 3),
            StreamFaultSpec("dup-row", "*", 4),
            StreamFaultSpec("crash-lane", "s0/n2", 6),
            StreamFaultSpec("ckpt-corrupt", "*", 1),
        )
        assert plan and not StreamFaultPlan.parse("")

    @pytest.mark.parametrize("text", [
        "drop-row:3",            # missing lane
        "explode-row:s0/n1:3",   # unknown kind
        "drop-row:s0/n1:x",      # non-integer index
        "ckpt-corrupt:s0/n1:0",  # ckpt faults take no lane
    ])
    def test_malformed_clauses_rejected(self, text):
        with pytest.raises(ValueError):
            StreamFaultPlan.parse(text)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            StreamFaultSpec("drop-row", "s0/n1", -1)

    def test_lookups(self):
        plan = StreamFaultPlan.parse(
            "drop-row:a:3,crash-lane:b:5,ckpt-truncate:2"
        )
        assert plan.row_fault("a", 3).kind == "drop-row"
        assert plan.row_fault("b", 3) is None
        assert plan.lane_crash("b", 5) and plan.lane_crash("b", 9)
        assert not plan.lane_crash("b", 4) and not plan.lane_crash("a", 5)
        assert plan.checkpoint_fault(2).kind == "ckpt-truncate"
        assert plan.checkpoint_fault(0) is None


class TestRowFaultInjector:
    def run_injector(self, text, rows):
        delivered = []
        injector = RowFaultInjector(
            StreamFaultPlan.parse(text), "L", deliver=delivered.append
        )
        for r in rows:
            injector(r)
        injector.flush()
        return delivered

    def test_drop_dup_and_corrupt(self):
        rows = [row(i, 5.0 * (i + 1)) for i in range(4)]
        out = self.run_injector("drop-row:L:1,dup-row:L:2,corrupt-row:L:3", rows)
        assert [r.index for r in out] == [0, 2, 2, 3]
        assert np.isnan(out[-1].features[0])

    def test_delay_reorders_with_next_row(self):
        rows = [row(i, 5.0 * (i + 1)) for i in range(3)]
        out = self.run_injector("delay-row:L:1", rows)
        assert [r.index for r in out] == [0, 2, 1]

    def test_delayed_final_row_released_by_flush(self):
        rows = [row(i, 5.0 * (i + 1)) for i in range(2)]
        out = self.run_injector("delay-row:L:1", rows)
        assert [r.index for r in out] == [0, 1]

    def test_crash_swallows_rest(self):
        delivered = []
        injector = RowFaultInjector(
            StreamFaultPlan.parse("crash-lane:L:2"), "L",
            deliver=delivered.append,
        )
        rows = [row(i, 5.0 * (i + 1)) for i in range(5)]
        for r in rows[:2]:
            injector(r)
        # The owning fleet lane sets the flag at its crash tick.
        injector.restore({"crashed": True, "held": None})
        for r in rows[2:]:
            injector(r)
        injector.flush()
        assert [r.index for r in delivered] == [0, 1]

    def test_corrupt_row_transform_is_nan_in_feature_zero(self):
        r = corrupt_row(row(0, 5.0))
        assert np.isnan(r.features[0]) and r.features[1] == 0.0

    def test_snapshot_restore_preserves_held_row(self):
        delivered = []
        injector = RowFaultInjector(
            StreamFaultPlan.parse("delay-row:L:0"), "L",
            deliver=delivered.append,
        )
        injector(row(0, 5.0))          # held back
        state = injector.snapshot()
        fresh = RowFaultInjector(
            StreamFaultPlan.parse("delay-row:L:0"), "L",
            deliver=delivered.append,
        )
        fresh.restore(state)
        fresh(row(1, 10.0))
        assert [r.index for r in delivered] == [1, 0]
