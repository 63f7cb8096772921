"""repro — Cross-Feature Analysis for Detecting Ad-Hoc Routing Anomalies.

A full reproduction of Huang, Fan, Lee & Yu (ICDCS 2003): the
cross-feature analysis anomaly-detection framework, the MANET simulation
substrate it was evaluated on (AODV/DSR routing over a mobile wireless
medium with CBR/TCP traffic), the black hole and packet dropping attacks,
the Table 4/5 feature sets, and from-scratch C4.5 / RIPPER / naive Bayes
sub-model engines.

Quickstart::

    from repro import ExperimentPlan, Session

    session = Session(jobs=4)           # parallel traces + on-disk cache
    plan = ExperimentPlan(protocol="aodv", transport="udp", duration=600.0)
    result = session.detect(plan, classifier="c45")
    print(result.auc, result.optimal)

:class:`Session` is the runtime entry point: it fans independent trace
simulations out across worker processes and persists the simulated
artifacts in a content-addressed on-disk cache (``~/.cache/repro`` or
``$REPRO_CACHE_DIR``), so a warm re-run performs zero simulations.
"""

from repro.attribution import ANOMALY_TYPES, AlarmAttributor, Verdict
from repro.core import (
    CrossFeatureDetector,
    CrossFeatureModel,
    EqualFrequencyDiscretizer,
    RegressionCrossFeatureModel,
    TwoNodeExample,
    average_match_count,
    average_probability,
    select_threshold,
)
from repro.eval.experiments import (
    DetectionResult,
    ExperimentPlan,
    TraceBundle,
    four_scenarios,
)
from repro.features import FeatureDataset, extract_features
from repro.ml import CLASSIFIERS, C45Classifier, NaiveBayesClassifier, RipperClassifier
from repro.runtime import ArtifactCache, RuntimeMetrics, Session, TraceEvent
from repro.simulation import ScenarioConfig, SimulationTrace, run_scenario
from repro.stream import (
    Alarm,
    CheckpointError,
    FleetAlarm,
    FleetDetector,
    FleetResult,
    FleetStream,
    OnlineDetector,
    StreamFault,
    StreamFaultPlan,
    StreamingExtractor,
    StreamResult,
    replay_trace,
)

__version__ = "1.0.0"

__all__ = [
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
    "extract_features",
    "four_scenarios",
    "replay_trace",
    "run_scenario",
    "select_threshold",
]
