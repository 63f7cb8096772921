"""Durable streams: the checkpoint format and the kill-anywhere contract.

Two layers of guarantees are drilled here:

* the **file format** — versioned, kind-tagged, SHA-256-fingerprinted;
  every damaged-file shape (bad magic, truncated header, foreign
  version, wrong kind, corrupted or truncated body) fails a restore
  loudly with a :class:`CheckpointError`, never silently restoring
  wrong state;
* the **resume contract** — a run killed after *any* tick (Hypothesis
  picks the kill point), restored from its latest checkpoint and
  replayed to completion produces scores / alarms / fused verdicts
  ``np.array_equal`` to the uninterrupted run, for a single stream (a
  one-lane fleet) and for fleets with injected chaos; one driver,
  :func:`run_durable_fleet`, runs both.
"""

import hashlib
import json
import pickle
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stream import (
    CheckpointError,
    FleetDetector,
    StreamFaultPlan,
    load_fleet_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.stream.durability import (
    CHECKPOINT_VERSION,
    MAGIC,
    run_durable_fleet,
)
from repro.stream.faults import apply_checkpoint_fault


class BatchScoreByFirstFeature:
    """Stand-in model: score = first feature (batch-capable, stateless)."""

    discretizer = object()  # "fitted" marker checked by the detectors

    def normality_score(self, X, method):
        return X[:, 0].astype(float)


MODEL = BatchScoreByFirstFeature()


@pytest.fixture(scope="module")
def trace(request):
    return request.getfixturevalue("aodv_udp_trace")


def one_lane(trace, threshold):
    """A single stream: the one-lane fleet, with no fault breaker."""
    fleet = FleetDetector(MODEL, threshold, max_consecutive_faults=sys.maxsize)
    fleet.add_stream(0, sampling_period=trace.config.sampling_period)
    return fleet


@pytest.fixture(scope="module")
def threshold(trace):
    """Median first-feature score: roughly half the windows alarm."""
    fleet = one_lane(trace, float("-inf"))
    run_durable_fleet({"s0": trace}, fleet)
    return float(np.median(fleet.result().streams["s0/n0"].scores))


def stream_run(trace, threshold, **kwargs):
    """One durable single-stream run; returns (lane result, position, finished)."""
    fleet = one_lane(trace, threshold)
    positions, finished = run_durable_fleet({"s0": trace}, fleet, **kwargs)
    return fleet.result().streams["s0/n0"], positions["s0/n0"], finished


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        body = {"position": 7, "blob": np.arange(5.0)}
        write_checkpoint(path, "stream", body)
        loaded = read_checkpoint(path, "stream")
        assert loaded["position"] == 7
        assert np.array_equal(loaded["blob"], body["blob"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "absent.ckpt", "stream")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint(path, "stream")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(MAGIC + b'{"version"')
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path, "stream")

    def test_foreign_version(self, tmp_path):
        path = tmp_path / "c.ckpt"
        header = (
            '{"version": %d, "kind": "stream", "fingerprint": "0"}'
            % (CHECKPOINT_VERSION + 1)
        )
        path.write_bytes(MAGIC + header.encode() + b"\nbody")
        with pytest.raises(CheckpointError, match="format version"):
            read_checkpoint(path, "stream")

    def test_version_1_checkpoint_fails_loudly(self, trace, tmp_path):
        """Version 2 made a single-stream snapshot the one-lane fleet's;
        a version-1 file must not restore."""
        path = tmp_path / "v1.ckpt"
        payload = pickle.dumps({"position": 0, "detector": {"times": []}})
        header = json.dumps({
            "version": 1, "kind": "stream",
            "fingerprint": hashlib.sha256(payload).hexdigest(),
        })
        path.write_bytes(MAGIC + header.encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="format version 1"):
            load_fleet_checkpoint(path, one_lane(trace, 0.5))

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, "stream", {"position": 0})
        with pytest.raises(CheckpointError, match="'stream'.*'fleet'"):
            read_checkpoint(path, "fleet")

    def test_corrupted_body_names_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, "stream", {"position": 3, "x": list(range(64))})
        data = path.read_bytes()
        path.write_bytes(data[:-4] + bytes(b ^ 0xFF for b in data[-4:]))
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            read_checkpoint(path, "stream")

    def test_truncated_body_names_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, "stream", {"position": 3, "x": list(range(64))})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            read_checkpoint(path, "stream")

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, "stream", {"position": 1})
        write_checkpoint(path, "stream", {"position": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]
        assert read_checkpoint(path, "stream")["position"] == 2


# ----------------------------------------------------------------------
# Single-stream resume
# ----------------------------------------------------------------------
class TestStreamResume:
    def test_kill_and_resume_is_bit_identical(self, trace, threshold, tmp_path):
        clean, _, finished = stream_run(trace, threshold)
        assert finished and clean.windows > 10 and clean.alarms

        ckpt = tmp_path / "s.ckpt"
        _, _, finished = stream_run(
            trace, threshold, checkpoint=ckpt, checkpoint_every=3,
            stop_after_rounds=clean.windows // 2,
        )
        assert not finished and ckpt.exists()

        resumed, _, finished = stream_run(trace, threshold, resume_from=ckpt)
        assert finished
        assert np.array_equal(np.asarray(resumed.scores),
                              np.asarray(clean.scores))
        assert np.array_equal(np.asarray(resumed.times),
                              np.asarray(clean.times))
        assert [(a.index, a.time, a.score) for a in resumed.alarms] == \
               [(a.index, a.time, a.score) for a in clean.alarms]

    @given(kill_at=st.integers(min_value=1, max_value=28))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kill_anywhere_resumes_bit_identically(
        self, trace, threshold, tmp_path, kill_at
    ):
        """The tentpole property: ANY kill tick resumes to the same run."""
        clean, _, _ = stream_run(trace, threshold)
        ckpt = tmp_path / f"kill{kill_at}.ckpt"
        _, _, finished = stream_run(
            trace, threshold, checkpoint=ckpt, checkpoint_every=2,
            stop_after_rounds=kill_at,
        )
        assert not finished
        if not ckpt.exists():  # killed before the first checkpoint landed
            resumed, _, _ = stream_run(trace, threshold)
        else:
            resumed, _, finished = stream_run(
                trace, threshold, resume_from=ckpt
            )
            assert finished
        assert np.array_equal(np.asarray(resumed.scores),
                              np.asarray(clean.scores))
        assert [a.time for a in resumed.alarms] == \
               [a.time for a in clean.alarms]

    def test_checkpoint_position_resumes_skipping_prefix(
        self, trace, threshold, tmp_path
    ):
        ckpt = tmp_path / "s.ckpt"
        killed, killed_pos, _ = stream_run(
            trace, threshold, checkpoint=ckpt, checkpoint_every=4,
            stop_after_rounds=8,
        )
        fleet = one_lane(trace, threshold)
        position = load_fleet_checkpoint(ckpt, fleet)["s0/n0"]
        assert 0 < position <= killed_pos
        restored = fleet.result().streams["s0/n0"].scores
        assert np.array_equal(restored, killed.scores[: len(restored)])

    def test_corrupt_checkpoint_fails_loudly(self, trace, threshold, tmp_path):
        ckpt = tmp_path / "s.ckpt"
        stream_run(trace, threshold, checkpoint=ckpt, checkpoint_every=2,
                   stop_after_rounds=6)
        plan = StreamFaultPlan.parse("ckpt-corrupt:0")
        apply_checkpoint_fault(ckpt, plan.specs[0])
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            stream_run(trace, threshold, resume_from=ckpt)

    def test_truncated_checkpoint_fails_loudly(self, trace, threshold, tmp_path):
        ckpt = tmp_path / "s.ckpt"
        stream_run(trace, threshold, checkpoint=ckpt, checkpoint_every=2,
                   stop_after_rounds=6)
        apply_checkpoint_fault(
            ckpt, StreamFaultPlan.parse("ckpt-truncate:0").specs[0]
        )
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            stream_run(trace, threshold, resume_from=ckpt)

    def test_injected_checkpoint_fault_fires_on_restore_ordinal(
        self, trace, threshold, tmp_path
    ):
        """The driver applies ckpt faults itself (the chaos-bench path)."""
        ckpt = tmp_path / "s.ckpt"
        stream_run(trace, threshold, checkpoint=ckpt, checkpoint_every=2,
                   stop_after_rounds=6)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            stream_run(
                trace, threshold, resume_from=ckpt,
                faults=StreamFaultPlan.parse("ckpt-corrupt:0"),
            )

    def test_checkpoint_every_must_be_positive(self, trace, threshold):
        with pytest.raises(ValueError, match="checkpoint_every"):
            stream_run(trace, threshold, checkpoint_every=0)


# ----------------------------------------------------------------------
# Fleet resume
# ----------------------------------------------------------------------
CHAOS = StreamFaultPlan.parse(
    "crash-lane:s0/n1:4,corrupt-row:s0/n2:3,dup-row:s0/n2:6,drop-row:s0/n3:2"
)


def make_fleet(trace, threshold, faults=None, monitors=(0, 1, 2, 3)):
    fleet = FleetDetector(
        MODEL, threshold, quorum=1, row_policy="quarantine",
        stall_timeout=4 * trace.config.sampling_period, faults=faults,
    )
    for m in monitors:
        fleet.add_stream(m, sampling_period=trace.config.sampling_period)
    return fleet


class TestFleetResume:
    def test_chaos_fleet_kill_and_resume_is_identical(
        self, trace, threshold, tmp_path
    ):
        uninterrupted = make_fleet(trace, threshold, CHAOS)
        _, finished = run_durable_fleet({"s0": trace}, uninterrupted)
        assert finished
        assert uninterrupted.fault_records        # chaos actually landed
        assert uninterrupted.sealed               # the crashed lane was sealed

        ckpt = tmp_path / "f.ckpt"
        killed = make_fleet(trace, threshold, CHAOS)
        _, finished = run_durable_fleet(
            {"s0": trace}, killed, checkpoint=ckpt, checkpoint_every=2,
            stop_after_rounds=8,
        )
        assert not finished and ckpt.exists()

        resumed = make_fleet(trace, threshold, CHAOS)
        _, finished = run_durable_fleet(
            {"s0": trace}, resumed, resume_from=ckpt
        )
        assert finished
        for name, lane in uninterrupted._lanes.items():
            assert np.array_equal(
                np.asarray(resumed._lanes[name].scores),
                np.asarray(lane.scores),
            ), name
        assert [f.time for f in resumed.fused] == \
               [f.time for f in uninterrupted.fused]
        assert resumed.sealed == uninterrupted.sealed
        assert resumed.fault_records == uninterrupted.fault_records

    def test_uninterrupted_chaos_outcome_is_pinned(self, trace, threshold):
        """The exact damage accounting of the CHAOS fleet.  The stand-in
        model scores by the first feature, so no numpy reduction (and no
        numpy version) moves these values."""
        fleet = make_fleet(trace, threshold, CHAOS)
        _, finished = run_durable_fleet({"s0": trace}, fleet)
        assert finished
        result = fleet.result()
        assert [(f.stream, f.kind, f.index, f.time)
                for f in result.fault_records] == [
            ("s0/n2", "nan", 3, 20.0), ("s0/n2", "duplicate", 6, 35.0),
        ]
        assert result.sealed == {"s0/n1": "stalled"}
        assert {name: s.windows for name, s in result.streams.items()} == {
            "s0/n0": 40, "s0/n1": 4, "s0/n2": 39, "s0/n3": 39,
        }
        assert {name: len(s.alarms) for name, s in result.streams.items()} == {
            "s0/n0": 4, "s0/n1": 4, "s0/n2": 28, "s0/n3": 21,
        }
        assert len(result.fused) == 40 and result.batches == 40

    def test_untouched_lane_matches_fault_free_fleet(self, trace, threshold):
        clean = make_fleet(trace, threshold)
        run_durable_fleet({"s0": trace}, clean)
        chaos = make_fleet(trace, threshold, CHAOS)
        run_durable_fleet({"s0": trace}, chaos)
        assert np.array_equal(
            np.asarray(chaos._lanes["s0/n0"].scores),
            np.asarray(clean._lanes["s0/n0"].scores),
        )

    def test_restore_rejects_mismatched_lanes(self, trace, threshold, tmp_path):
        ckpt = tmp_path / "f.ckpt"
        fleet = make_fleet(trace, threshold)
        run_durable_fleet(
            {"s0": trace}, fleet, checkpoint=ckpt, checkpoint_every=1,
            stop_after_rounds=3,
        )
        other = make_fleet(trace, threshold, monitors=(0, 1))
        with pytest.raises(ValueError, match="registered lanes"):
            load_fleet_checkpoint(ckpt, other)

    def test_stream_checkpoint_rejected_by_fleet_loader(
        self, trace, threshold, tmp_path
    ):
        """A pre-fleet single-stream file fails the kind guard by name."""
        ckpt = tmp_path / "s.ckpt"
        write_checkpoint(ckpt, "stream", {"position": 0, "detector": {}})
        with pytest.raises(CheckpointError, match="'stream'"):
            load_fleet_checkpoint(ckpt, make_fleet(trace, threshold))


# ----------------------------------------------------------------------
# Session wiring: the durable knobs end to end
# ----------------------------------------------------------------------
class TestSessionDurable:
    @pytest.fixture(scope="class")
    def plan(self):
        from repro.eval.experiments import ExperimentPlan

        return ExperimentPlan(
            n_nodes=6, duration=120.0, max_connections=5,
            train_seeds=(1,), calibration_seed=2,
            normal_seeds=(3,), attack_seeds=(4,),
            warmup=20.0, periods=(5.0, 30.0), traffic_seed=7,
        )

    @pytest.fixture(scope="class")
    def session(self):
        from repro.runtime import Session

        return Session(cache=False)

    def test_stream_detect_records_the_stream_stage_only(self, plan):
        from repro.runtime import RuntimeMetrics, Session

        solo = Session(cache=False, metrics=RuntimeMetrics())
        result = solo.stream_detect(plan)
        m = solo.metrics
        assert "stream" in m.stage_seconds and "fleet" not in m.stage_seconds
        assert m.fused_alarms == 0 and m.fleet_batches == 0
        assert m.alarms == len(result.alarms)

    def test_stream_detect_runs_lane_s0_n_monitor(self, plan, session):
        clean = session.stream_detect(plan)
        assert clean.alarms
        assert {a.stream for a in clean.alarms} == {f"s0/n{plan.monitor}"}
        dropped = session.stream_detect(
            plan, stream_faults=f"drop-row:s0/n{plan.monitor}:3"
        )
        assert clean.windows - dropped.windows == 1

    def test_durable_stream_detect_matches_live(self, plan, session, tmp_path):
        live = session.stream_detect(plan)
        ckpt = tmp_path / "s.ckpt"
        durable = session.stream_detect(plan, checkpoint=ckpt,
                                        checkpoint_every=4)
        assert np.array_equal(durable.scores, live.scores)
        assert np.array_equal(durable.times, live.times)
        assert np.array_equal(durable.labels, live.labels)
        assert [a.time for a in durable.alarms] == [a.time for a in live.alarms]
        assert ckpt.exists()

    def test_stream_detect_resumes_from_checkpoint(self, plan, session, tmp_path):
        from repro.runtime import RuntimeMetrics, Session

        live = session.stream_detect(plan)
        ckpt = tmp_path / "s.ckpt"
        session.stream_detect(plan, checkpoint=ckpt, checkpoint_every=4)
        # The file holds the state at the last checkpointed tick; resuming
        # restores it and replays only the tail — same final verdicts.
        fresh = Session(cache=False, metrics=RuntimeMetrics())
        resumed = fresh.stream_detect(plan, resume_from=ckpt)
        assert np.array_equal(resumed.scores, live.scores)
        assert [a.time for a in resumed.alarms] == [a.time for a in live.alarms]
        assert fresh.metrics.restores == 1

    def test_fleet_detect_survives_injected_chaos(self, plan, session):
        from repro.runtime import RuntimeMetrics, Session

        chaos = Session(cache=False, metrics=RuntimeMetrics())
        result = chaos.fleet_detect(
            plan, monitors=(0, 1, 2),
            row_policy="quarantine",
            stall_timeout=4 * plan.scenario_config(1).sampling_period,
            stream_faults="crash-lane:s0/n1:4,corrupt-row:s0/n2:6",
        )
        # The run completed (no raise) with the damage accounted.
        assert result.n_streams == 3
        assert [f.kind for f in result.fault_records] == ["nan"]
        assert result.sealed.get("s0/n1") in ("stalled", "crashed")
        m = chaos.metrics
        assert m.stream_faults == 1
        assert m.lanes_sealed >= 1
        assert "quarantined" in m.summary() and "sealed" in m.summary()
        # The untouched lane scores exactly as in a fault-free fleet run.
        clean = session.fleet_detect(plan, monitors=(0, 1, 2))
        assert np.array_equal(result.streams["s0/n0"].scores,
                              clean.streams["s0/n0"].scores)

    def test_session_picks_the_consecutive_fault_breaker(self, plan, session):
        """Six corrupt rows in a row seal a fleet lane "faulted"
        (DEFAULT_MAX_FAULTS is 5); a single stream has no breaker, so it
        quarantines the six and scores every other window."""
        from repro.runtime import RuntimeMetrics, Session

        faults = ",".join(f"corrupt-row:s0/n0:{k}" for k in range(3, 9))
        fleet = session.fleet_detect(plan, row_policy="quarantine",
                                     stream_faults=faults)
        assert fleet.sealed == {"s0/n0": "faulted"}

        solo = Session(cache=False, metrics=RuntimeMetrics())
        stream = solo.stream_detect(plan, row_policy="quarantine",
                                    stream_faults=faults)
        clean = session.stream_detect(plan)
        assert (clean.windows, stream.windows) == (21, 15)
        assert solo.metrics.stream_faults == 6
        assert solo.metrics.lanes_sealed == 0
