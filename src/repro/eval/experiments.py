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
live in :mod:`repro.runtime`, and :class:`repro.runtime.Session` is the
one way to run this pipeline: ``session.detect(plan)`` for one
condition, ``session.detect(replace(plan, monitor=m))`` for the same
condition seen from node ``m``.  The functions here are the stages a
session times: :func:`extract_bundle`, :func:`fit_detector` and
:func:`evaluate_detector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.attacks import BlackholeAttack, DropMode, PacketDroppingAttack, periodic_sessions
from repro.attacks.base import Attack
from repro.checks import check_int
from repro.core.model import CrossFeatureDetector
from repro.eval.metrics import PrCurve, area_above_diagonal, optimal_point, precision_recall_curve
from repro.features.extraction import FeatureDataset, extract_features
from repro.features.traffic import validate_periods
from repro.ml import CLASSIFIERS
from repro.simulation.scenario import LABEL_POLICIES, ScenarioConfig, SimulationTrace

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
        # (n_nodes - 1): a condition needs a monitor and a distinct
        # attacker, and a degenerate count would otherwise surface as a
        # confusing monitor/attacker clash or pass straight through.
        check_int("n_nodes", self.n_nodes, 2)
        # Negated comparisons, so NaN fails them too: a bad plan fails
        # here, before any trace is simulated.
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration!r}")
        if not 0 <= self.warmup < math.inf:
            raise ValueError(f"warmup must be non-negative and finite, got {self.warmup!r}")
        validate_periods(self.periods)
        # A frozen plan is a memo and cache key, so sequence fields given
        # as lists are stored as tuples to keep it hashable.
        for name in ("train_seeds", "normal_seeds", "attack_seeds", "periods"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check_int("monitor", self.monitor, 0, self.n_nodes - 1)
        if self.monitor == self.attacker:
            raise ValueError("monitor must differ from the attacker")
        if self.attack_kind not in ATTACK_KINDS:
            raise ValueError(f"attack_kind must be one of {ATTACK_KINDS}")
        drop_modes = [mode.value for mode in DropMode]
        if self.drop_mode not in drop_modes:
            raise ValueError(f"drop_mode must be one of {drop_modes}, got {self.drop_mode!r}")
        for name in ("blackhole_start_frac", "dropping_start_frac"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value!r}")
        if not 0 < self.session_frac <= 1:
            raise ValueError(f"session_frac must be in (0, 1], got {self.session_frac!r}")
        if self.label_policy not in LABEL_POLICIES:
            raise ValueError(
                f"label_policy must be one of {LABEL_POLICIES}, got {self.label_policy!r}"
            )

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
    and monitor only affect feature extraction).  The one exception is a
    selective dropping attack, which drops the packets bound for the
    monitor: its plans keep their monitor.
    """
    drops_for_monitor = (
        plan.attack_kind != "blackhole" and plan.drop_mode == DropMode.SELECTIVE.value
    )
    return replace(
        plan,
        periods=(5.0,),
        warmup=0.0,
        label_policy="session",
        monitor=plan.monitor if drops_for_monitor else 0,
    )


def extract_bundle(raw: RawTraces) -> TraceBundle:
    """Extract the feature datasets of a test condition at its plan's monitor.

    To re-analyse the same traces from another observation point (the
    paper verified "similar results and performance ... on other
    nodes"), extract the traces of ``replace(plan, monitor=m)``: plans
    that differ only in their monitor share their simulations (see
    :func:`plan_sim_key`).
    """
    plan = raw.plan

    def dataset(trace) -> FeatureDataset:
        return extract_features(
            trace,
            monitor=plan.monitor,
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
) -> CrossFeatureDetector:
    """Build the detector, train it on the bundle's normal traces and
    calibrate its threshold on the held-out calibration trace.

    ``method`` defaults to the reproduction's calibrated scoring (see
    :mod:`repro.core.model`); pass ``"avg_probability"`` /
    ``"match_count"`` for the paper's verbatim Algorithms 3 / 2.
    """
    check_classifier(classifier)
    detector = CrossFeatureDetector(
        classifier_factory=CLASSIFIERS[classifier],
        method=method,
        false_alarm_rate=false_alarm_rate,
        max_models=max_models,
        n_buckets=n_buckets,
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
