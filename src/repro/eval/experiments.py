"""End-to-end detection experiments: the paper's §4 pipeline.

One :class:`ExperimentPlan` describes a test condition — routing protocol,
transport, attack composition, trace seeds and detector knobs.  The
pipeline then mirrors the paper's setup:

* **one normal trace as the training set** (optionally several),
* several further normal traces for evaluation,
* several traces with intrusions (mixed black hole + packet dropping by
  default, started at 25% and 50% of the trace as the paper starts them
  at 2500 s and 5000 s of 10 000 s; or single-attack compositions for the
  Figure 5/6 experiments),
* features extracted at one monitor node, sub-models trained on the
  normal trace, and every evaluation trace scored window by window.

Plans are frozen/hashable; simulation, caching and parallel execution
live in :mod:`repro.runtime` — :class:`repro.runtime.Session` is the
documented way to run this pipeline.  (The pre-Session module-level
wrappers ``cached_bundle`` / ``cached_result`` / ``simulate_bundle``
completed their deprecation cycle and were removed; importing them now
raises :class:`ImportError` with the migration hint.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.attacks import BlackholeAttack, DropMode, PacketDroppingAttack, periodic_sessions
from repro.attacks.base import Attack
from repro.core.model import CrossFeatureDetector
from repro.eval.metrics import PrCurve, area_above_diagonal, optimal_point, precision_recall_curve
from repro.features.extraction import FeatureDataset, extract_features
from repro.ml import CLASSIFIERS
from repro.simulation.scenario import ScenarioConfig, SimulationTrace

ATTACK_KINDS = ("mixed", "blackhole", "dropping")


@dataclass(frozen=True)
class ExperimentPlan:
    """A hashable description of one test condition."""

    protocol: str = "aodv"
    transport: str = "udp"
    n_nodes: int = 20
    duration: float = 1000.0
    max_connections: int = 40
    train_seeds: tuple[int, ...] = (11, 12)
    #: A held-out normal trace for sub-model baseline + threshold
    #: calibration (never used for training or evaluation).
    calibration_seed: int = 13
    normal_seeds: tuple[int, ...] = (21, 22)
    attack_seeds: tuple[int, ...] = (31, 32)
    #: One connection pattern shared by every trace of the condition (the
    #: ns-2 connection file); mobility varies with each trace seed.
    traffic_seed: int = 5
    monitor: int = 0
    warmup: float = 100.0
    periods: tuple[float, ...] = (5.0, 60.0, 900.0)
    attack_kind: str = "mixed"          #: "mixed", "blackhole" or "dropping"
    drop_mode: str = "constant"         #: DropMode value for dropping attacks
    blackhole_start_frac: float = 0.25  #: paper: 2500 s of 10 000 s
    dropping_start_frac: float = 0.5    #: paper: 5000 s of 10 000 s
    session_frac: float = 0.05          #: on-off session length / duration
    #: "post_attack" labels every window after the first session start as
    #: intrusive — the paper's own observation that the network never
    #: self-heals from the implemented intrusions; "session" labels only
    #: windows overlapping active sessions.
    label_policy: str = "post_attack"

    def __post_init__(self) -> None:
        # Validate the node count before anything touches `self.attacker`
        # (n_nodes - 1): a degenerate count would otherwise surface as a
        # confusing monitor/attacker clash or pass straight through.
        if self.n_nodes < 2:
            raise ValueError(
                f"n_nodes must be >= 2 (got {self.n_nodes}): a condition "
                "needs at least a monitor and a distinct attacker"
            )
        # Negated comparisons, so NaN fails them too: a bad plan fails
        # here, before any trace is simulated.
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration!r}")
        if not 0 <= self.warmup < math.inf:
            raise ValueError(f"warmup must be non-negative and finite, got {self.warmup!r}")
        if self.attack_kind not in ATTACK_KINDS:
            raise ValueError(f"attack_kind must be one of {ATTACK_KINDS}")
        if self.monitor == self.attacker:
            raise ValueError("monitor must differ from the attacker")

    @property
    def attacker(self) -> int:
        """The compromised node: the last id, keeping monitor 0 honest."""
        return self.n_nodes - 1

    def scenario_config(self, seed: int) -> ScenarioConfig:
        """The scenario configuration for one trace of this condition."""
        return ScenarioConfig(
            protocol=self.protocol,
            transport=self.transport,
            n_nodes=self.n_nodes,
            duration=self.duration,
            max_connections=self.max_connections,
            seed=seed,
            traffic_seed=self.traffic_seed,
        )

    def build_attacks(self) -> list[Attack]:
        """Instantiate the attack composition for an abnormal trace."""
        T = self.duration
        session = self.session_frac * T
        attacks: list[Attack] = []
        if self.attack_kind == "mixed":
            attacks.append(
                BlackholeAttack(
                    attacker=self.attacker,
                    sessions=periodic_sessions(self.blackhole_start_frac * T, session, T),
                )
            )
            attacks.append(
                PacketDroppingAttack(
                    attacker=self.attacker,
                    sessions=periodic_sessions(self.dropping_start_frac * T, session, T),
                    mode=DropMode(self.drop_mode),
                    destination=self.monitor,
                )
            )
        else:
            # Figure 5 composition: three sessions at 25% / 50% / 75%.
            sessions = [
                (frac * T, frac * T + session) for frac in (0.25, 0.5, 0.75)
            ]
            if self.attack_kind == "blackhole":
                attacks.append(BlackholeAttack(attacker=self.attacker, sessions=sessions))
            else:
                attacks.append(
                    PacketDroppingAttack(
                        attacker=self.attacker,
                        sessions=sessions,
                        mode=DropMode(self.drop_mode),
                        destination=self.monitor,
                    )
                )
        return attacks


@dataclass
class TraceBundle:
    """All feature datasets of one test condition."""

    plan: ExperimentPlan
    train: FeatureDataset
    calibration: FeatureDataset
    normal_evals: list[FeatureDataset]
    abnormal_evals: list[FeatureDataset]

    def eval_scores_labels(self, score_fn) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (scores, labels) across all evaluation traces."""
        scores, labels = [], []
        for ds in [*self.normal_evals, *self.abnormal_evals]:
            scores.append(score_fn(ds.X))
            labels.append(ds.labels)
        return np.concatenate(scores), np.concatenate(labels)


@dataclass
class RawTraces:
    """The simulated traces of one test condition, before extraction.

    Kept separate from :class:`TraceBundle` so multi-monitor analyses can
    re-extract features from the same simulations at no simulation cost.
    """

    plan: ExperimentPlan
    train: list[SimulationTrace]
    calibration: SimulationTrace
    normal_evals: list[SimulationTrace]
    abnormal_evals: list[SimulationTrace]


def plan_sim_key(plan: ExperimentPlan) -> ExperimentPlan:
    """The plan with extraction-only knobs normalised away.

    Two plans with equal sim keys simulate identical traces, so the
    runtime layer shares their simulations (periods, warmup, label policy
    and monitor only affect feature extraction).
    """
    return replace(
        plan,
        periods=(5.0,),
        warmup=0.0,
        label_policy="session",
        monitor=0,
    )


def simulate_raw_traces(
    plan: ExperimentPlan,
    jobs: int = 1,
    metrics=None,
) -> RawTraces:
    """Run all simulations of a test condition (no feature extraction).

    Always simulates fresh (no artifact cache); pass ``jobs > 1`` to fan
    the independent traces out across worker processes.  Prefer
    :meth:`repro.Session.raw_traces` to also get persistent caching.
    """
    from repro.runtime.executor import TraceExecutor
    from repro.runtime.session import _assemble_raw, _plan_tasks

    executor = TraceExecutor(jobs=jobs, metrics=metrics)
    return _assemble_raw(plan, executor.run(_plan_tasks(plan)))


def extract_bundle(raw: RawTraces, monitor: int | None = None) -> TraceBundle:
    """Extract the feature datasets of a test condition for one monitor.

    ``monitor`` defaults to the plan's; pass another node id to re-analyse
    the same traces from a different observation point (the paper verified
    "similar results and performance ... on other nodes").
    """
    plan = raw.plan
    monitor = plan.monitor if monitor is None else monitor
    if monitor == plan.attacker:
        raise ValueError("monitor must differ from the attacker")

    def dataset(trace) -> FeatureDataset:
        return extract_features(
            trace,
            monitor=monitor,
            periods=plan.periods,
            warmup=plan.warmup,
            label_policy=plan.label_policy,
        )

    return TraceBundle(
        plan=plan,
        train=FeatureDataset.concat([dataset(t) for t in raw.train]),
        calibration=dataset(raw.calibration),
        normal_evals=[dataset(t) for t in raw.normal_evals],
        abnormal_evals=[dataset(t) for t in raw.abnormal_evals],
    )


@dataclass
class DetectionResult:
    """Scored evaluation of one (plan, classifier, method) condition."""

    plan: ExperimentPlan
    classifier: str
    method: str
    threshold: float
    curve: PrCurve
    auc: float
    optimal: tuple[float, float, float]   #: (recall, precision, threshold)
    scores: np.ndarray
    labels: np.ndarray
    #: per-trace series: (name, times, scores, labels)
    series: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=list)

    def recall_precision_at_threshold(self) -> tuple[float, float]:
        """Operating point at the detector's calibrated threshold."""
        alarms = self.scores < self.threshold
        n_i = int(self.labels.sum())
        hit = int((alarms & self.labels).sum())
        recall = hit / n_i if n_i else 0.0
        precision = hit / int(alarms.sum()) if alarms.any() else 0.0
        return recall, precision


def check_classifier(classifier: str) -> None:
    """Reject a sub-model learner name that :data:`~repro.ml.CLASSIFIERS` lacks."""
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {classifier!r}; have {sorted(CLASSIFIERS)}")


def fit_detector(
    bundle: TraceBundle,
    classifier: str = "c45",
    method: str = "calibrated_probability",
    false_alarm_rate: float = 0.02,
    max_models: int | None = None,
    n_buckets: int = 5,
    n_jobs: int | None = 1,
) -> CrossFeatureDetector:
    """Build the detector, train it on the bundle's normal traces and
    calibrate its threshold on the held-out calibration trace.

    ``method`` defaults to the reproduction's calibrated scoring (see
    :mod:`repro.core.model`); pass ``"avg_probability"`` /
    ``"match_count"`` for the paper's verbatim Algorithms 3 / 2.
    ``n_jobs`` threads the L independent sub-model fits and scoring
    passes (``None``/``0`` = one per CPU); results are identical for
    any value.
    """
    check_classifier(classifier)
    detector = CrossFeatureDetector(
        classifier_factory=CLASSIFIERS[classifier],
        method=method,
        false_alarm_rate=false_alarm_rate,
        max_models=max_models,
        n_buckets=n_buckets,
        n_jobs=n_jobs,
    )
    return detector.fit(
        bundle.train.X,
        feature_names=bundle.train.feature_names,
        calibration_X=bundle.calibration.X,
    )


def evaluate_detector(
    detector: CrossFeatureDetector, bundle: TraceBundle, classifier: str
) -> DetectionResult:
    """Score every evaluation trace of the bundle with a fitted detector;
    ``classifier`` names its learner in the result."""
    series = []
    scores_parts, labels_parts = [], []
    for kind, datasets in (("normal", bundle.normal_evals), ("abnormal", bundle.abnormal_evals)):
        for k, ds in enumerate(datasets):
            s = detector.score(ds.X)
            series.append((f"{kind}-{k}", ds.times, s, ds.labels))
            scores_parts.append(s)
            labels_parts.append(ds.labels)
    scores = np.concatenate(scores_parts)
    labels = np.concatenate(labels_parts)

    curve = precision_recall_curve(scores, labels)
    return DetectionResult(
        plan=bundle.plan,
        classifier=classifier,
        method=detector.method,
        threshold=float(detector.threshold_),
        curve=curve,
        auc=area_above_diagonal(curve),
        optimal=optimal_point(curve),
        scores=scores,
        labels=labels,
        series=series,
    )


def run_detection_experiment(
    bundle: TraceBundle,
    classifier: str = "c45",
    method: str = "calibrated_probability",
    false_alarm_rate: float = 0.02,
    max_models: int | None = None,
    n_buckets: int = 5,
    n_jobs: int | None = 1,
) -> DetectionResult:
    """Train the detector on the bundle's normal traces and evaluate it
    (:func:`fit_detector`, then :func:`evaluate_detector`)."""
    detector = fit_detector(
        bundle, classifier, method, false_alarm_rate, max_models, n_buckets, n_jobs
    )
    return evaluate_detector(detector, bundle, classifier)


# ----------------------------------------------------------------------
# Pipeline helpers over the process-wide default Session.
# ----------------------------------------------------------------------
def _default_session():
    from repro.runtime.session import default_session

    return default_session()


#: The pre-Session wrappers, removed at the end of their deprecation
#: cycle; importing one raises ImportError naming the Session replacement.
_REMOVED_HELPERS = {
    "simulate_bundle": "Session().bundle(plan)",
    "cached_bundle": "Session().bundle(plan)",
    "cached_result": "Session().detect(plan, ...)",
}


def __getattr__(name: str):
    if name in _REMOVED_HELPERS:
        raise ImportError(
            f"repro.eval.experiments.{name}() was removed; create a "
            f"repro.Session and use {_REMOVED_HELPERS[name]} instead"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cached_raw_traces(plan: ExperimentPlan) -> RawTraces:
    """Raw traces via the default session (shared across extraction knobs).

    The non-deprecated low-level alias; plans differing only in
    periods/warmup/labels/monitor share simulations (see
    :func:`plan_sim_key`).
    """
    return _default_session().raw_traces(plan)


def per_monitor_results(
    plan: ExperimentPlan,
    monitors: Sequence[int],
    classifier: str = "c45",
    method: str = "calibrated_probability",
) -> dict[int, DetectionResult]:
    """Repeat the detection experiment from several observation points.

    The paper collects all reported results "on one node only" and notes
    that "similar results and performance have been verified on other
    nodes"; this helper reproduces that verification.  The expensive
    simulations are shared — only feature extraction and sub-model
    training repeat per monitor.
    """
    raw = _default_session().raw_traces(plan)
    results = {}
    for monitor in monitors:
        bundle = extract_bundle(raw, monitor=monitor)
        results[monitor] = run_detection_experiment(
            bundle, classifier=classifier, method=method
        )
    return results


def four_scenarios(base: ExperimentPlan | None = None) -> dict[str, ExperimentPlan]:
    """The paper's four test scenarios: AODV/DSR x TCP/UDP."""
    base = base if base is not None else ExperimentPlan()
    plans = {}
    for protocol in ("aodv", "dsr"):
        for transport in ("tcp", "udp"):
            plans[f"{protocol}/{transport}"] = replace(
                base, protocol=protocol, transport=transport
            )
    return plans
