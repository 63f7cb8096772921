"""Public API surface tests: documented entry points exist and are sane."""

import inspect

import pytest

import repro


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_present(self):
        assert repro.__version__.count(".") == 2

    def test_readme_quickstart_symbols(self):
        """The objects the README's quickstart uses are all exported."""
        for name in ("ExperimentPlan", "Session", "run_detection_experiment",
                     "CrossFeatureDetector", "extract_features", "run_scenario",
                     "ScenarioConfig", "RuntimeMetrics"):
            assert name in repro.__all__, name

    def test_legacy_helpers_removed_with_migration_hint(self):
        """The pre-Session wrappers are gone from the top level, and the
        ImportError from their old home names the Session replacement."""
        for name in ("cached_bundle", "cached_result", "simulate_bundle"):
            assert name not in repro.__all__, name
            assert not hasattr(repro, name), name
        import repro.eval.experiments as experiments

        with pytest.raises(ImportError, match="Session"):
            experiments.cached_result

    def test_classifier_registry_complete(self):
        assert set(repro.CLASSIFIERS) == {"c45", "ripper", "nbc"}

    def test_every_public_item_documented(self):
        undocumented = [
            name for name in repro.__all__
            if (inspect.isclass(getattr(repro, name))
                or inspect.isfunction(getattr(repro, name)))
            and not inspect.getdoc(getattr(repro, name))
        ]
        assert undocumented == []

    def test_top_level_import_surface_is_exact(self):
        """``repro.__all__`` is a consolidated, sorted, duplicate-free
        contract — additions and removals must update this list."""
        assert repro.__all__ == sorted(set(repro.__all__))
        assert repro.__all__ == [
            "ANOMALY_TYPES",
            "Alarm",
            "AlarmAttributor",
            "ArtifactCache",
            "C45Classifier",
            "CLASSIFIERS",
            "CheckpointError",
            "CrossFeatureDetector",
            "CrossFeatureModel",
            "DetectionResult",
            "EqualFrequencyDiscretizer",
            "ExperimentPlan",
            "FeatureDataset",
            "FleetAlarm",
            "FleetDetector",
            "FleetResult",
            "FleetStream",
            "NaiveBayesClassifier",
            "OnlineDetector",
            "RegressionCrossFeatureModel",
            "RipperClassifier",
            "RuntimeMetrics",
            "ScenarioConfig",
            "Session",
            "SimulationTrace",
            "StreamFault",
            "StreamFaultPlan",
            "StreamResult",
            "StreamingExtractor",
            "TraceBundle",
            "TraceEvent",
            "TwoNodeExample",
            "Verdict",
            "average_match_count",
            "average_probability",
            "default_session",
            "extract_features",
            "four_scenarios",
            "replay_trace",
            "run_detection_experiment",
            "run_scenario",
            "select_threshold",
        ]

    def test_stream_import_surface_is_exact(self):
        import repro.stream as stream

        assert stream.__all__ == sorted(set(stream.__all__))
        assert stream.__all__ == [
            "Alarm",
            "CheckpointError",
            "DEFAULT_ATTRIBUTION",
            "DEFAULT_MAX_FAULTS",
            "DEFAULT_MONITOR",
            "DEFAULT_QUORUM",
            "DEFAULT_ROW_POLICY",
            "DEFAULT_WARMUP",
            "EventRing",
            "FleetAlarm",
            "FleetDetector",
            "FleetResult",
            "FleetStream",
            "OnlineDetector",
            "RouteLengthRing",
            "StreamFault",
            "StreamFaultPlan",
            "StreamFaultSpec",
            "StreamResult",
            "StreamingExtractor",
            "WindowRow",
            "extractor_for_config",
            "load_fleet_checkpoint",
            "load_stream_checkpoint",
            "needed_votes",
            "read_checkpoint",
            "replay_trace",
            "resolve_threshold",
            "save_fleet_checkpoint",
            "save_stream_checkpoint",
            "validate_quorum",
            "validate_row_policy",
            "write_checkpoint",
        ]
        for name in stream.__all__:
            assert hasattr(stream, name), name

    def test_runtime_import_surface_is_exact(self):
        import repro.runtime as runtime

        assert runtime.__all__ == [
            "ArtifactCache",
            "FailureReport",
            "FaultPlan",
            "FaultSpec",
            "InjectedFault",
            "PoolFailure",
            "ResumeJournal",
            "RuntimeMetrics",
            "Session",
            "SupervisionPolicy",
            "TaskFailure",
            "TraceEvent",
            "TraceExecutor",
            "TraceTask",
            "code_version",
            "default_cache_dir",
            "default_session",
            "set_default_session",
            "stable_key",
        ]
        for name in runtime.__all__:
            assert hasattr(runtime, name), name

    def test_subpackage_apis(self):
        from repro.attacks import (BlackholeAttack, ImpersonationAttack,
                                   PacketDroppingAttack, UpdateStormAttack)
        from repro.core import correlation_reduce, factor_reduce
        from repro.features import load_dataset, save_dataset
        from repro.routing import AodvProtocol, DsrProtocol, OlsrProtocol

        for obj in (BlackholeAttack, ImpersonationAttack, PacketDroppingAttack,
                    UpdateStormAttack, correlation_reduce, factor_reduce,
                    load_dataset, save_dataset, AodvProtocol, DsrProtocol,
                    OlsrProtocol):
            assert inspect.getdoc(obj)
