"""Session facade: caching round-trips, determinism, sweeps, legacy API."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.eval.experiments import ExperimentPlan, plan_sim_key
from repro.runtime import (
    ArtifactCache,
    RuntimeMetrics,
    Session,
    SupervisionPolicy,
    TraceEvent,
)

TINY_PLAN = ExperimentPlan(
    n_nodes=6,
    duration=120.0,
    max_connections=5,
    train_seeds=(1,),
    calibration_seed=2,
    normal_seeds=(3,),
    attack_seeds=(4,),
    warmup=20.0,
    periods=(5.0, 30.0),
)
N_TRACES = 4  # train + calibration + normal + attack


def bundle_arrays(bundle):
    datasets = [bundle.train, bundle.calibration,
                *bundle.normal_evals, *bundle.abnormal_evals]
    return [(ds.X, ds.times, ds.labels) for ds in datasets]


def assert_bundles_identical(a, b):
    for (xa, ta, la), (xb, tb, lb) in zip(bundle_arrays(a), bundle_arrays(b)):
        assert xa.tobytes() == xb.tobytes()  # byte-identical, not just close
        assert np.array_equal(ta, tb)
        assert np.array_equal(la, lb)


class TestCacheRoundTrip:
    def test_warm_session_simulates_nothing_and_matches(self, tmp_path):
        cold = Session(cache_dir=tmp_path, jobs=1)
        fresh = cold.bundle(TINY_PLAN)
        assert cold.metrics.simulations == N_TRACES
        assert cold.metrics.cache_misses == N_TRACES
        assert cold.metrics.cache_hits == 0

        warm = Session(cache_dir=tmp_path, jobs=1)
        loaded = warm.bundle(TINY_PLAN)
        assert warm.metrics.simulations == 0  # zero simulations on warm start
        assert warm.metrics.cache_hits == N_TRACES
        assert_bundles_identical(fresh, loaded)

    def test_detection_scores_identical_from_disk(self, tmp_path):
        r1 = Session(cache_dir=tmp_path).detect(TINY_PLAN, classifier="nbc")
        r2 = Session(cache_dir=tmp_path).detect(TINY_PLAN, classifier="nbc")
        assert r1.scores.tobytes() == r2.scores.tobytes()
        assert r1.auc == r2.auc
        assert r1.threshold == r2.threshold

    def test_corrupt_cache_falls_back_to_simulation(self, tmp_path):
        cold = Session(cache_dir=tmp_path, jobs=1)
        fresh = cold.bundle(TINY_PLAN)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"garbage")
        healed = Session(cache_dir=tmp_path, jobs=1)
        again = healed.bundle(TINY_PLAN)
        assert healed.metrics.simulations == N_TRACES  # all re-simulated
        assert healed.metrics.cache_hits == 0
        assert_bundles_identical(fresh, again)

    def test_cache_disabled_still_memoises_in_memory(self, tmp_path):
        session = Session(cache_dir=tmp_path, cache=False)
        a = session.bundle(TINY_PLAN)
        b = session.bundle(TINY_PLAN)
        assert a is b
        assert session.metrics.cache_hits == session.metrics.cache_misses == 0
        assert list(tmp_path.glob("*.pkl")) == []


class TestOneFitPerDetector:
    """``detect`` scores the detector ``fitted_detector`` fits: one fit
    per knob set, timed and profiled as the ``fit`` stage."""

    def test_profiled_detect_has_fit_and_score_tables(self, tmp_path):
        session = Session(cache_dir=tmp_path, profile_stages=True)
        session.detect(TINY_PLAN, classifier="nbc")
        assert {"fit", "score"} <= set(session.profiler.stages)

    def test_fitted_detector_after_detect_does_not_refit(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        result = session.detect(TINY_PLAN, classifier="nbc")
        fit_seconds = session.metrics.stage_seconds["fit"]
        detector = session.fitted_detector(TINY_PLAN, classifier="nbc")
        assert session.metrics.stage_seconds["fit"] == fit_seconds
        assert detector.threshold_ == result.threshold

    def test_unknown_classifier_fails_before_simulating(self):
        session = Session(cache=False)
        with pytest.raises(ValueError, match="'svm'"):
            session.detect(TINY_PLAN, classifier="svm")
        assert session.metrics.simulations == 0


class TestDeterminism:
    def test_parallel_and_serial_sessions_agree(self, tmp_path):
        serial = Session(cache_dir=tmp_path / "s", jobs=1)
        parallel = Session(cache_dir=tmp_path / "p", jobs=4)
        assert_bundles_identical(serial.bundle(TINY_PLAN), parallel.bundle(TINY_PLAN))
        rs = serial.detect(TINY_PLAN, classifier="nbc")
        rp = parallel.detect(TINY_PLAN, classifier="nbc")
        assert rs.auc == rp.auc
        assert rs.threshold == rp.threshold
        assert rs.scores.tobytes() == rp.scores.tobytes()


class TestSessionSharing:
    def test_extraction_knobs_share_simulations(self, tmp_path):
        from dataclasses import replace

        session = Session(cache_dir=tmp_path)
        a = session.raw_traces(TINY_PLAN)
        b = session.raw_traces(replace(TINY_PLAN, warmup=0.0, monitor=2))
        assert a.train[0] is b.train[0]
        assert session.metrics.simulations == N_TRACES

    def test_sim_key_normalises_extraction_fields_only(self):
        from dataclasses import replace

        assert plan_sim_key(TINY_PLAN) == plan_sim_key(
            replace(TINY_PLAN, warmup=0.0, monitor=3, periods=(60.0,))
        )
        assert plan_sim_key(TINY_PLAN) != plan_sim_key(
            replace(TINY_PLAN, duration=150.0)
        )

    def test_monitor_override_does_not_resimulate(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        b0 = session.bundle(TINY_PLAN)
        b2 = session.bundle(TINY_PLAN, monitor=2)
        assert session.metrics.simulations == N_TRACES
        assert b2.train.monitor == 2
        assert b0.train.monitor == TINY_PLAN.monitor


class TestSweep:
    def test_mapping_sweep_shares_fanout(self, tmp_path):
        from dataclasses import replace

        plans = {
            "aodv": TINY_PLAN,
            "dsr": replace(TINY_PLAN, protocol="dsr"),
        }
        session = Session(cache_dir=tmp_path, jobs=2)
        results = session.sweep(plans, classifier="nbc")
        assert set(results) == {"aodv", "dsr"}
        assert session.metrics.simulations == 2 * N_TRACES
        assert results["aodv"].auc == session.detect(TINY_PLAN, classifier="nbc").auc

    def test_sequence_sweep_returns_ordered_list(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        results = session.sweep([TINY_PLAN], classifier="nbc")
        assert len(results) == 1
        assert results[0].plan == TINY_PLAN


class TestMetricsHook:
    def test_progress_events_stream_to_callback(self, tmp_path):
        events: list[TraceEvent] = []
        session = Session(cache_dir=tmp_path, jobs=1,
                          metrics=RuntimeMetrics(on_event=events.append))
        session.bundle(TINY_PLAN)
        kinds = [e.kind for e in events]
        assert kinds.count("cache_miss") == N_TRACES
        assert kinds.count("simulated") == N_TRACES
        simulated = [e for e in events if e.kind == "simulated"]
        assert all(e.seconds >= 0 for e in simulated)
        assert any("attack" in e.label for e in simulated)


class TestRemovedLegacyWrappers:
    """The pre-Session helpers are gone; importing them names the migration."""

    @pytest.mark.parametrize("name", ["cached_bundle", "cached_result",
                                      "simulate_bundle"])
    def test_removed_helper_import_names_the_replacement(self, name):
        import repro.eval.experiments as experiments

        with pytest.raises(ImportError, match="Session"):
            getattr(experiments, name)

    def test_from_import_raises_import_error_too(self):
        with pytest.raises(ImportError, match="Session"):
            from repro.eval.experiments import cached_bundle  # noqa: F401

    def test_unknown_attribute_still_raises_attribute_error(self):
        import repro.eval.experiments as experiments

        with pytest.raises(AttributeError, match="no attribute"):
            experiments.not_a_helper

    def test_surviving_helpers_share_the_default_session(self):
        from repro.eval.experiments import cached_raw_traces
        from repro.runtime import default_session

        raw = cached_raw_traces(TINY_PLAN)
        again = default_session().raw_traces(TINY_PLAN)
        assert raw.train[0] is again.train[0]  # same memoised simulations


NAN, INF = float("nan"), float("inf")

#: (entry point given a scratch directory, the field its ValueError must name).
BAD_RUNTIME_VALUES = [
    (lambda d: SupervisionPolicy(task_timeout=NAN), "task_timeout"),
    (lambda d: SupervisionPolicy(task_timeout=INF), "task_timeout"),
    (lambda d: SupervisionPolicy(max_retries=NAN), "max_retries"),
    (lambda d: SupervisionPolicy(max_pool_respawns=NAN), "max_pool_respawns"),
    (lambda d: SupervisionPolicy(backoff_base=-1.0), "backoff_base"),
    (lambda d: SupervisionPolicy(backoff_base=NAN), "backoff_base"),
    (lambda d: SupervisionPolicy(backoff_cap=-1.0), "backoff_cap"),
    (lambda d: ArtifactCache(d, max_entries=0), "max_entries"),
    (lambda d: ArtifactCache(d, max_entries=-1), "max_entries"),
    (lambda d: ArtifactCache(d, max_bytes=0), "max_bytes"),
    (lambda d: ArtifactCache(d, max_bytes=NAN), "max_bytes"),
    (lambda d: Session(cache_dir=d, jobs=0), "jobs"),
    (lambda d: Session(cache_dir=d, jobs=-2), "jobs"),
    (lambda d: Session(cache_dir=d, jobs=2, task_timeout=NAN), "task_timeout"),
    (lambda d: Session(cache_dir=d, max_entries=0), "max_entries"),
]


class TestEntryPointValidation:
    """Bad runtime values fail at construction, naming the field, instead
    of timing out every pooled task, retrying without end or caching
    nothing."""

    @pytest.mark.parametrize("build, name", BAD_RUNTIME_VALUES)
    def test_bad_value_is_rejected_by_name(self, build, name, tmp_path):
        with pytest.raises(ValueError, match=name):
            build(tmp_path)

    def test_edge_values_are_accepted(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_entries=1, max_bytes=1 << 20)
        assert cache.put("k", [1, 2]) and cache.get("k") == [1, 2]
        policy = SupervisionPolicy(max_retries=0, backoff_base=0.0, max_pool_respawns=0)
        assert policy.backoff(3) == 0.0
        assert Session(cache=False, jobs=1).jobs == 1


class TestRuntimeConfiguration:
    def test_invalid_env_jobs_warns_with_value(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="'many'"):
            session = Session(cache_dir=tmp_path)
        assert session.jobs == 1

    def test_nonpositive_env_jobs_warns_with_value(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.warns(RuntimeWarning, match="'0'"):
            session = Session(cache_dir=tmp_path)
        assert session.jobs == 1

    def test_valid_env_jobs_is_silent(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            session = Session(cache_dir=tmp_path)
        assert session.jobs == 3

    def test_task_key_without_cache_raises_runtime_error(self, tmp_path):
        """An explicit error, not an assert — asserts vanish under -O."""
        from repro.runtime.executor import TraceTask
        from tests.conftest import small_config

        session = Session(cache_dir=tmp_path, cache=False)
        with pytest.raises(RuntimeError, match="cache=False"):
            session._task_key(TraceTask(small_config(), (), "t"))

    def test_timeout_and_retry_knobs_reach_the_policy(self, tmp_path):
        session = Session(cache_dir=tmp_path, task_timeout=7.5, max_retries=5)
        assert session.policy.task_timeout == 7.5
        assert session.policy.max_retries == 5
        assert session.executor.policy is session.policy

    def test_prefetch_deduplicates_equivalent_plans(self, tmp_path):
        """Many extraction-only variants of one sim key collapse to a
        single fan-out (and the dedup scan is not quadratic)."""
        from dataclasses import replace

        session = Session(cache_dir=tmp_path, jobs=1)
        variants = [replace(TINY_PLAN, warmup=float(w)) for w in range(30)]
        session.prefetch(variants)
        assert session.metrics.simulations == N_TRACES


class TestJournal:
    def test_clean_run_journals_every_trace(self, tmp_path):
        session = Session(cache_dir=tmp_path, jobs=1)
        session.bundle(TINY_PLAN)
        assert len(session.journal.load()) == N_TRACES

    def test_warm_session_counts_resumed_traces(self, tmp_path):
        Session(cache_dir=tmp_path, jobs=1).bundle(TINY_PLAN)
        warm = Session(cache_dir=tmp_path, jobs=1)
        warm.bundle(TINY_PLAN)
        assert warm.metrics.resumed == N_TRACES
        assert warm.metrics.simulations == 0

    def test_within_session_hits_are_not_resumed(self, tmp_path):
        """`resumed` means recovered from a *previous* run's journal —
        re-reading a trace this session just wrote is a plain hit."""
        session = Session(cache_dir=tmp_path, jobs=1)
        session.bundle(TINY_PLAN)
        session._raw.clear()  # force the cache path, not the memos
        session._bundles.clear()
        session.bundle(TINY_PLAN)
        assert session.metrics.cache_hits == N_TRACES
        assert session.metrics.resumed == 0

    def test_no_cache_session_has_no_journal(self, tmp_path):
        session = Session(cache_dir=tmp_path, cache=False)
        assert session.journal is None
        session.bundle(TINY_PLAN)
        assert not (tmp_path / "sweep.journal").exists()


class TestStreamLaneValidation:
    """Bad lane lists fail with the culprit named, before any training
    or simulation."""

    PLAN = ExperimentPlan(
        n_nodes=6, duration=120.0, max_connections=5,
        train_seeds=(1,), calibration_seed=2,
        normal_seeds=(3,), attack_seeds=(4,), warmup=20.0,
    )

    def rejects(self, match, detect="fleet_detect", **kwargs):
        session = Session(cache=False)
        with pytest.raises(ValueError, match=match):
            getattr(session, detect)(self.PLAN, **kwargs)
        assert session.metrics.simulations == 0
        assert "fit" not in session.metrics.stage_seconds

    def test_empty_monitors_rejected(self):
        self.rejects("monitors is empty", monitors=())

    def test_out_of_range_monitor_rejected(self):
        self.rejects("monitor 6 is out of range", monitors=(0, 6))

    def test_duplicate_monitor_rejected(self):
        self.rejects("monitor 2 is listed twice", monitors=(2, 1, 2))

    def test_attacker_monitor_rejected(self):
        self.rejects("monitor 5 must differ from the attacker", monitors=(0, 5))

    def test_empty_seeds_rejected(self):
        self.rejects("seeds is empty", seeds=())

    def test_stream_detect_rejects_the_attacker(self):
        self.rejects("monitor 5 must differ from the attacker",
                     detect="stream_detect", monitor=5)
