"""The :class:`Session` facade — the one documented pipeline entry point.

A session owns the three runtime services and threads every experiment
through them:

* a :class:`~repro.runtime.executor.TraceExecutor` that fans independent
  trace simulations out across worker processes (``jobs=``);
* an :class:`~repro.runtime.cache.ArtifactCache` that persists simulated
  traces on disk, content-addressed by scenario + attack composition +
  simulator code version (``cache_dir=``, ``cache=False`` to disable);
* a :class:`~repro.runtime.metrics.RuntimeMetrics` with per-trace timing,
  cache hit/miss counters and a live progress hook (``metrics=``).

Usage::

    from repro import ExperimentPlan, Session

    session = Session(jobs=4)
    bundle = session.bundle(ExperimentPlan(protocol="aodv"))
    result = session.detect(ExperimentPlan(protocol="dsr"), classifier="c45")
    results = session.sweep(four_scenarios())          # shares one fan-out
    stream = session.stream_detect(plan)               # one live monitor
    fleet = session.fleet_detect(plan, quorum=2)       # every node, fused

The pre-Session module-level helpers (``cached_bundle`` /
``cached_result`` / ``simulate_bundle``) have been removed; importing
them raises :class:`ImportError` with the migration hint.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.eval.experiments import (
    DetectionResult,
    ExperimentPlan,
    RawTraces,
    TraceBundle,
    check_classifier,
    evaluate_detector,
    extract_bundle,
    fit_detector,
    plan_sim_key,
)
from repro.runtime.cache import ArtifactCache, ResumeJournal, attack_signature
from repro.runtime.executor import SupervisionPolicy, TraceExecutor, TraceTask
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import RuntimeMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.attacks.base import Attack
    from repro.core.model import CrossFeatureDetector
    from repro.simulation.scenario import ScenarioConfig, SimulationTrace
    from repro.stream.detector import Alarm, StreamResult
    from repro.stream.faults import StreamFault, StreamFaultPlan
    from repro.stream.fleet import FleetAlarm, FleetResult

#: File name of the sweep resume journal inside the cache directory.
_JOURNAL_NAME = "sweep.journal"


def _env_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (defaults to 1 = serial).

    An unparsable or non-positive value warns loudly instead of silently
    serialising a deployment that believed it configured a pool.
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid $REPRO_JOBS value {raw!r} (not an integer); "
            f"running with 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    if jobs < 1:
        warnings.warn(
            f"ignoring invalid $REPRO_JOBS value {raw!r} (must be >= 1); "
            f"running with 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return jobs


def _plan_tasks(plan: ExperimentPlan) -> list[TraceTask]:
    """The independent simulations of one test condition, in bundle order."""
    tasks = [
        TraceTask(plan.scenario_config(s), (), f"train[{s}]")
        for s in plan.train_seeds
    ]
    tasks.append(
        TraceTask(plan.scenario_config(plan.calibration_seed), (),
                  f"calibration[{plan.calibration_seed}]")
    )
    tasks.extend(
        TraceTask(plan.scenario_config(s), (), f"normal[{s}]")
        for s in plan.normal_seeds
    )
    tasks.extend(
        TraceTask(plan.scenario_config(s), tuple(plan.build_attacks()), f"attack[{s}]")
        for s in plan.attack_seeds
    )
    return tasks


def _assemble_raw(plan: ExperimentPlan, traces: "list[SimulationTrace]") -> RawTraces:
    """Rebuild a :class:`RawTraces` from the flat `_plan_tasks` order."""
    n_train = len(plan.train_seeds)
    n_normal = len(plan.normal_seeds)
    return RawTraces(
        plan=plan,
        train=traces[:n_train],
        calibration=traces[n_train],
        normal_evals=traces[n_train + 1:n_train + 1 + n_normal],
        abnormal_evals=traces[n_train + 1 + n_normal:],
    )


def _stream_lanes(
    plan: ExperimentPlan,
    seeds: Sequence[int] | None,
    monitors: Sequence[int] | None,
    attack: bool,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Resolve and validate a streaming run's seeds and monitors.

    Runs before any training or simulation, so a bad lane list fails
    fast with the offending monitor named.  ``None`` seeds default to
    the plan's first attack (or normal) seed, ``None`` monitors to every
    node except the attacker — who may never be watched (the rule
    :class:`ExperimentPlan` applies to its own monitor).
    """
    if seeds is None:
        seeds = (plan.attack_seeds[0] if attack else plan.normal_seeds[0],)
    if monitors is None:
        monitors = [m for m in range(plan.n_nodes) if m != plan.attacker]
    seeds, monitors = tuple(seeds), tuple(monitors)
    if not seeds:
        raise ValueError("seeds is empty: name at least one scenario seed")
    if not monitors:
        raise ValueError("monitors is empty: name at least one node to watch")
    for k, m in enumerate(monitors):
        if not 0 <= m < plan.n_nodes:
            raise ValueError(f"monitor {m} is out of range for {plan.n_nodes} nodes")
        if m == plan.attacker:
            raise ValueError(f"monitor {m} must differ from the attacker")
        if m in monitors[:k]:
            raise ValueError(f"monitor {m} is listed twice")
    return seeds, monitors


class Session:
    """Pipeline runtime: parallel simulation + persistent artifact cache.

    Parameters
    ----------
    cache_dir:
        Artifact cache directory (default: ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro``).
    jobs:
        Worker processes for trace fan-out, at least 1; ``None`` reads
        ``$REPRO_JOBS`` (default 1 = serial).  Results are
        seed-deterministic regardless.
    metrics:
        A :class:`RuntimeMetrics` to account into (one is created
        otherwise); pass one with an ``on_event`` hook for live progress.
    cache:
        ``False`` disables the on-disk cache entirely (simulations still
        memoise in memory within the session).
    max_entries, max_bytes:
        Cache eviction bounds, forwarded to :class:`ArtifactCache`.
    policy:
        A :class:`~repro.runtime.executor.SupervisionPolicy` controlling
        per-task retries, timeout and pool respawns (defaults: 2 retries,
        no timeout, 2 respawns).
    task_timeout, max_retries:
        Convenience overrides applied on top of ``policy`` — the knobs
        the CLI exposes.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` injected into
        both the executor and the cache (deterministic chaos testing).
    profile_stages:
        ``True`` wraps every timed pipeline stage (``simulate`` /
        ``extract`` / ``fit`` / ``score`` / ``stream`` / ``fleet``) in a
        cProfile and collects one top-N cumulative table per stage on
        :attr:`profiler` (a :class:`~repro.runtime.profiling.
        StageProfiler`; ``session.profiler.render()`` prints them).
        ``None`` (default) reads ``$REPRO_PROFILE_STAGES``.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        jobs: int | None = None,
        metrics: RuntimeMetrics | None = None,
        cache: bool = True,
        max_entries: int = 512,
        max_bytes: int = 4 << 30,
        policy: SupervisionPolicy | None = None,
        task_timeout: float | None = None,
        max_retries: int | None = None,
        faults: FaultPlan | None = None,
        profile_stages: bool | None = None,
    ):
        if jobs is not None and not jobs >= 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = _env_jobs() if jobs is None else int(jobs)
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        policy = policy if policy is not None else SupervisionPolicy()
        overrides = {}
        if task_timeout is not None:
            overrides["task_timeout"] = task_timeout
        if max_retries is not None:
            overrides["max_retries"] = max_retries
        if overrides:
            import dataclasses

            policy = dataclasses.replace(policy, **overrides)
        self.policy = policy
        self.faults = faults
        self.cache: ArtifactCache | None = (
            ArtifactCache(
                cache_dir=cache_dir,
                max_entries=max_entries,
                max_bytes=max_bytes,
                metrics=self.metrics,
                faults=faults,
            )
            if cache
            else None
        )
        self.executor = TraceExecutor(
            jobs=self.jobs, metrics=self.metrics, policy=self.policy, faults=faults
        )
        if self.cache is not None:
            self.journal = ResumeJournal(self.cache.dir / _JOURNAL_NAME)
            #: Keys completed by *previous* (possibly interrupted) runs;
            #: cache hits on these count as resumed work, not plain hits.
            self._journaled = self.journal.load()
        else:
            self.journal = None
            self._journaled = frozenset()
        if profile_stages is None:
            profile_stages = os.environ.get(
                "REPRO_PROFILE_STAGES", "0"
            ) not in ("0", "false", "")
        if profile_stages:
            from repro.runtime.profiling import StageProfiler

            self.profiler: "StageProfiler | None" = StageProfiler()
        else:
            self.profiler = None
        self._raw: dict[ExperimentPlan, RawTraces] = {}
        self._bundles: dict[ExperimentPlan, TraceBundle] = {}
        self._results: dict[tuple, DetectionResult] = {}
        self._detectors: dict[tuple, "CrossFeatureDetector"] = {}

    @contextmanager
    def _stage(self, name: str):
        """Time one pipeline stage (and profile it when enabled).

        Yields a namespace whose ``elapsed`` holds the stage seconds once
        the block exits; the duration is recorded via
        :meth:`RuntimeMetrics.record_stage` and, with ``profile_stages``
        on, the block's execution accumulates into ``profiler``'s table
        for ``name``.
        """
        ctx = self.profiler.stage(name) if self.profiler is not None \
            else nullcontext()
        timer = SimpleNamespace(elapsed=0.0)
        t0 = time.perf_counter()
        with ctx:
            yield timer
        timer.elapsed = time.perf_counter() - t0
        self.metrics.record_stage(name, timer.elapsed)

    # ------------------------------------------------------------------
    # Trace level
    # ------------------------------------------------------------------
    def _task_key(self, task: TraceTask) -> str:
        if self.cache is None:
            raise RuntimeError(
                "Session._task_key requires the artifact cache; "
                "this session was created with cache=False"
            )
        return self.cache.key(
            ("trace", task.config, [attack_signature(a) for a in task.attacks])
        )

    def _traces(self, tasks: Sequence[TraceTask]) -> "list[SimulationTrace]":
        """Resolve a batch of tasks through cache + executor, in order.

        Fresh traces are flushed to the cache (and the resume journal)
        *as they complete*, not at batch end — an interrupted or failed
        batch loses only its in-flight work, and the next run picks up
        from the journaled keys.
        """
        tasks = list(tasks)
        results: list["SimulationTrace | None"] = [None] * len(tasks)
        pending: list[tuple[int, str | None, TraceTask]] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                key = self._task_key(task)
                hit = self.cache.get(key)
                if hit is not None:
                    if key in self._journaled:
                        self.metrics.record_resumed(task.label)
                    self.metrics.record_cache_hit(task.label)
                    results[i] = hit
                    continue
                self.metrics.record_cache_miss(task.label)
                pending.append((i, key, task))
            else:
                pending.append((i, None, task))
        if not pending:
            return results  # type: ignore[return-value]

        def flush(batch_index: int, trace: "SimulationTrace") -> None:
            i, key, _task = pending[batch_index]
            results[i] = trace
            if self.cache is not None and key is not None:
                if self.cache.put(key, trace) and self.journal is not None:
                    self.journal.record(key)

        with self._stage("simulate"):
            fresh = self.executor.run(
                [task for _, _, task in pending], on_result=flush
            )
        for (i, _key, _task), trace in zip(pending, fresh):
            if results[i] is None:  # pragma: no cover - flush already filled these
                results[i] = trace
        return results  # type: ignore[return-value]

    def trace(
        self,
        config: "ScenarioConfig",
        attacks: Sequence["Attack"] = (),
        label: str = "",
    ) -> "SimulationTrace":
        """Run (or load) one scenario through the cache + executor."""
        task = TraceTask(config, tuple(attacks), label or f"scenario[{config.seed}]")
        return self._traces([task])[0]

    # ------------------------------------------------------------------
    # Plan level
    # ------------------------------------------------------------------
    def prefetch(self, plans: Sequence[ExperimentPlan]) -> None:
        """Simulate every missing trace of several plans as ONE fan-out.

        With ``jobs > 1`` this is what makes sweeps scale: all plans'
        cache misses share a single process-pool batch instead of each
        plan draining its own 7-trace pool.
        """
        spans: list[tuple[ExperimentPlan, int, int]] = []
        seen: set[ExperimentPlan] = set()
        all_tasks: list[TraceTask] = []
        for plan in plans:
            sim_key = plan_sim_key(plan)
            if sim_key in self._raw or sim_key in seen:
                continue
            seen.add(sim_key)
            tasks = _plan_tasks(sim_key)
            spans.append((sim_key, len(all_tasks), len(tasks)))
            all_tasks.extend(tasks)
        if not all_tasks:
            return
        traces = self._traces(all_tasks)
        for sim_key, start, n in spans:
            self._raw[sim_key] = _assemble_raw(sim_key, traces[start:start + n])

    def raw_traces(self, plan: ExperimentPlan) -> RawTraces:
        """All simulated traces of a test condition (no feature extraction).

        Traces are shared across plans that differ only in extraction
        knobs (periods, warmup, labels, monitor), exactly like the legacy
        ``cached_raw_traces``.
        """
        sim_key = plan_sim_key(plan)
        if sim_key not in self._raw:
            self.prefetch([plan])
        raw = self._raw[sim_key]
        return RawTraces(
            plan=plan,
            train=raw.train,
            calibration=raw.calibration,
            normal_evals=raw.normal_evals,
            abnormal_evals=raw.abnormal_evals,
        )

    def bundle(self, plan: ExperimentPlan, monitor: int | None = None) -> TraceBundle:
        """Feature datasets of a test condition (simulate + extract).

        ``monitor`` overrides the plan's observation point without
        re-simulating (multi-monitor analyses); only the plan-default
        monitor is memoised.
        """
        if monitor is not None and monitor != plan.monitor:
            raw = self.raw_traces(plan)
            with self._stage("extract"):
                bundle = extract_bundle(raw, monitor=monitor)
            return bundle
        if plan not in self._bundles:
            raw = self.raw_traces(plan)
            with self._stage("extract"):
                self._bundles[plan] = extract_bundle(raw)
        return self._bundles[plan]

    def detect(
        self,
        plan: ExperimentPlan,
        classifier: str = "c45",
        method: str = "calibrated_probability",
        false_alarm_rate: float = 0.02,
        max_models: int | None = None,
        n_buckets: int = 5,
        n_jobs: int | None = 1,
    ) -> DetectionResult:
        """Full detection experiment on one plan (memoised per knob set).

        Scores the evaluation traces with the detector
        :meth:`fitted_detector` returns for the same knobs, timed as the
        ``score`` stage (the precision/recall curve included).
        ``n_jobs`` threads the independent sub-model fits and scoring
        passes; it is deliberately absent from the memoisation key
        because results are identical for any value.
        """
        key = (plan, classifier, method, false_alarm_rate, max_models, n_buckets)
        if key not in self._results:
            detector = self.fitted_detector(
                plan, classifier, method, false_alarm_rate, max_models, n_buckets, n_jobs
            )
            bundle = self.bundle(plan)
            with self._stage("score"):
                self._results[key] = evaluate_detector(detector, bundle, classifier)
        return self._results[key]

    def fitted_detector(
        self,
        plan: ExperimentPlan,
        classifier: str = "c45",
        method: str = "calibrated_probability",
        false_alarm_rate: float = 0.02,
        max_models: int | None = None,
        n_buckets: int = 5,
        n_jobs: int | None = 1,
    ) -> "CrossFeatureDetector":
        """A trained + calibrated detector for one plan (memoised per knob set).

        Trains on the plan's training traces and calibrates the decision
        threshold on its held-out calibration trace
        (:func:`~repro.eval.experiments.fit_detector`, timed as the
        ``fit`` stage); :meth:`detect` scores this same detector.  An
        unknown ``classifier`` fails before any simulation.  ``n_jobs``
        is excluded from the memo key; results are identical for any
        value.
        """
        key = (plan, classifier, method, false_alarm_rate, max_models, n_buckets)
        if key not in self._detectors:
            check_classifier(classifier)
            bundle = self.bundle(plan)
            with self._stage("fit"):
                self._detectors[key] = fit_detector(
                    bundle, classifier, method, false_alarm_rate, max_models,
                    n_buckets, n_jobs,
                )
        return self._detectors[key]

    def stream_detect(
        self,
        plan: ExperimentPlan,
        classifier: str = "c45",
        method: str = "calibrated_probability",
        false_alarm_rate: float = 0.02,
        seed: int | None = None,
        attack: bool = True,
        monitor: int | None = None,
        warmup: float | None = None,
        threshold: float | None = None,
        max_models: int | None = None,
        n_buckets: int = 5,
        n_jobs: int | None = 1,
        on_alarm: "Callable[[Alarm], None] | None" = None,
        row_policy: str | None = None,
        attribution: bool = False,
        checkpoint: "str | os.PathLike | None" = None,
        checkpoint_every: int | None = None,
        resume_from: "str | os.PathLike | None" = None,
        stream_faults: "StreamFaultPlan | str | None" = None,
    ) -> "StreamResult":
        """Online detection: train offline, then score a *live* scenario.

        A one-lane :meth:`fleet_detect`: trains (or reuses) the plan's
        detector via :meth:`fitted_detector` — the training/calibration
        traces go through the cache + executor as usual — then runs ONE
        fresh scenario with the single lane ``"s0/n<monitor>"`` riding
        it, scoring every sampling window and raising
        :class:`~repro.stream.Alarm` events (surfaced as ``"alarm"``
        metrics events, so the CLI can print them live).  A window
        scores when the next sampling tick (or the end of the run)
        finalises it.  Per-window features and scores are bit-identical
        to the batch pipeline over the same trace.  The run is timed as
        the ``stream`` stage and records no fused alarms or batches; a
        single stream has no stall timeout and no consecutive-fault
        breaker.

        Parameters
        ----------
        seed:
            Mobility seed of the streamed trace (default: the plan's
            first attack seed, or first normal seed with
            ``attack=False``).
        attack:
            ``False`` streams an intrusion-free trace instead (expected
            alarm rate ≈ the calibrated false-alarm rate).
        monitor, warmup, threshold, on_alarm, row_policy, attribution:
            The shared construction keywords (see
            :mod:`repro.stream.config`); ``None`` defaults to the plan's
            monitor / warmup, the calibrated threshold and the shared
            row policy.  ``attribution=True`` attaches a typed
            :class:`~repro.attribution.Verdict` to every alarm (scores
            and alarm decisions are unchanged).
        checkpoint, checkpoint_every, resume_from, stream_faults:
            Durable-run and chaos knobs, as in :meth:`fleet_detect`:
            checkpoints are fleet files and fault clauses name the lane
            ``s0/n<monitor>``.
        """
        monitor = plan.monitor if monitor is None else int(monitor)
        result = self._detect_streams(
            plan, "stream",
            (classifier, method, false_alarm_rate, max_models, n_buckets, n_jobs),
            seeds=None if seed is None else (seed,), monitors=(monitor,),
            attack=attack, warmup=warmup, threshold=threshold,
            on_alarm=on_alarm, on_fused=None, checkpoint=checkpoint,
            checkpoint_every=checkpoint_every, resume_from=resume_from,
            stream_faults=stream_faults, row_policy=row_policy,
            attribution=attribution,
        )
        return result.streams[f"s0/n{monitor}"]

    def fleet_detect(
        self,
        plan: ExperimentPlan,
        classifier: str = "c45",
        method: str = "calibrated_probability",
        false_alarm_rate: float = 0.02,
        seeds: Sequence[int] | None = None,
        attack: bool = True,
        monitors: Sequence[int] | None = None,
        warmup: float | None = None,
        threshold: float | None = None,
        quorum: int | float = 1,
        max_models: int | None = None,
        n_buckets: int = 5,
        n_jobs: int | None = 1,
        on_alarm: "Callable[[Alarm], None] | None" = None,
        on_fused: "Callable[[FleetAlarm], None] | None" = None,
        row_policy: str | None = None,
        attribution: bool = False,
        stall_timeout: float | None = None,
        checkpoint: "str | os.PathLike | None" = None,
        checkpoint_every: int | None = None,
        resume_from: "str | os.PathLike | None" = None,
        stream_faults: "StreamFaultPlan | str | None" = None,
    ) -> "FleetResult":
        """Fleet detection: one detector watching every node at once.

        Trains (or reuses) the plan's detector via
        :meth:`fitted_detector`, wraps it with
        :meth:`~repro.stream.FleetDetector.from_detector` and registers
        one :meth:`~repro.stream.FleetDetector.add_stream` lane per
        (scenario, monitor), then runs one fresh scenario per seed with
        all of that scenario's taps riding it.  Windows closing on the
        same tick — across every monitored node and every scenario — are
        scored in one vectorized batch; per-stream scores are
        bit-identical to independent :meth:`stream_detect` runs over the
        same traces.  Seeds and monitors are validated before any
        training: an empty ``seeds`` or ``monitors``, or a monitor that
        is out of range, listed twice or the plan's attacker, raises
        :class:`ValueError`.

        Per-stream alarms surface as ``"alarm"`` metrics events, fused
        network-level verdicts as ``"fused_alarm"`` events (the CLI
        prints them live), and every scoring batch is accounted via
        :meth:`RuntimeMetrics.record_fleet_batch`.

        Parameters
        ----------
        seeds:
            Mobility seeds, one fresh scenario each (default: the plan's
            first attack seed, or first normal seed with
            ``attack=False``).
        attack:
            ``False`` streams intrusion-free scenarios instead.
        monitors, warmup, threshold, quorum, on_alarm, on_fused:
            The shared construction keywords (see
            :mod:`repro.stream.config`); ``monitors=None`` watches every
            node except the plan's attacker.
        attribution:
            ``True`` attaches typed verdicts per lane alarm and a fused
            verdict (majority vote over the alarming lanes) per
            :class:`~repro.stream.FleetAlarm`; the ``"alarm"`` /
            ``"fused_alarm"`` metrics events gain ``type=...``
            fragments and verdicts are counted via
            :meth:`RuntimeMetrics.record_verdict`.  Scores, alarm sets
            and fused timing are unchanged.
        row_policy, stall_timeout:
            Degraded-input handling (see :mod:`repro.stream.config`);
            ``None`` takes the shared defaults.  Every lane's
            consecutive-fault breaker is
            :data:`~repro.stream.DEFAULT_MAX_FAULTS`.  Quarantined rows,
            auto-sealed lanes and duplicate seals surface as
            ``"stream_fault"`` / ``"lane_sealed"`` /
            ``"duplicate_seal"`` metrics events and ride the
            :class:`~repro.stream.FleetResult`.
        checkpoint, checkpoint_every, resume_from:
            Durable-run knobs (see :mod:`repro.stream.durability`).
        stream_faults:
            Injected chaos — a :class:`~repro.stream.faults.StreamFaultPlan`
            or its mini-language string.

        Plain live runs bypass the artifact cache (timed as the
        ``fleet`` stage); durable runs (any of ``checkpoint`` /
        ``resume_from`` / ``stream_faults`` set) record the traces
        through the cache and replay them round-robin (see
        :func:`~repro.stream.durability.run_durable_fleet`), because the
        resume contract is anchored in the replay's deterministic
        dispatch order.  Ground-truth labels are attached post hoc per
        scenario under the plan's label policy.
        """
        return self._detect_streams(
            plan, "fleet",
            (classifier, method, false_alarm_rate, max_models, n_buckets, n_jobs),
            seeds=seeds, monitors=monitors, attack=attack, warmup=warmup,
            threshold=threshold, on_alarm=on_alarm, on_fused=on_fused,
            checkpoint=checkpoint, checkpoint_every=checkpoint_every,
            resume_from=resume_from, stream_faults=stream_faults,
            quorum=quorum, row_policy=row_policy, attribution=attribution,
            stall_timeout=stall_timeout,
        )

    def _detect_streams(
        self,
        plan: ExperimentPlan,
        stage: str,
        training: tuple,
        seeds: Sequence[int] | None,
        monitors: Sequence[int] | None,
        attack: bool,
        warmup: float | None,
        threshold: float | None,
        on_alarm: "Callable[[Alarm], None] | None",
        on_fused: "Callable[[FleetAlarm], None] | None",
        checkpoint: "str | os.PathLike | None",
        checkpoint_every: int | None,
        resume_from: "str | os.PathLike | None",
        stream_faults: "StreamFaultPlan | str | None",
        **knobs,
    ) -> "FleetResult":
        """The one streaming driver behind :meth:`stream_detect` and
        :meth:`fleet_detect` (see the latter for the keywords).

        ``stage`` names the timed stage: ``"fleet"`` wires the
        ``fused_alarm`` and ``fleet_batch`` metrics relays and gives
        every lane the :data:`~repro.stream.DEFAULT_MAX_FAULTS` breaker;
        ``"stream"`` (one lane) wires neither relay, since a one-lane
        quorum would only repeat every lane alarm, and has no breaker,
        since a seal would end the run.  ``training`` is
        :meth:`fitted_detector`'s knobs after the plan, in order;
        ``knobs`` — quorum, row policy, attribution and stall timeout —
        go to :meth:`FleetDetector.from_detector` unchanged.
        """
        import numpy as np

        from repro.simulation.scenario import run_scenario
        from repro.stream.config import DEFAULT_MAX_FAULTS
        from repro.stream.durability import run_durable_fleet
        from repro.stream.faults import StreamFaultPlan
        from repro.stream.fleet import FleetDetector

        seeds, monitors = _stream_lanes(plan, seeds, monitors, attack)

        def relay_alarm(alarm: "Alarm") -> None:
            label = (
                f"{alarm.stream} t={alarm.time:g}s score={alarm.score:.4f} "
                f"< {alarm.threshold:.4f}"
            )
            if alarm.verdict is not None:
                label += f" {alarm.verdict.summary()}"
                self.metrics.record_verdict(
                    f"{alarm.stream} t={alarm.time:g}s {alarm.verdict.summary()}"
                )
            self.metrics.record_alarm(label, alarm.latency_s)
            if on_alarm is not None:
                on_alarm(alarm)

        def relay_fused(fused: "FleetAlarm") -> None:
            label = (
                f"t={fused.time:g}s {len(fused.streams)}/{fused.reporting} "
                f"streams below {fused.threshold:.4f} "
                f"(quorum {fused.needed})"
            )
            if fused.verdict is not None:
                label += f" {fused.verdict.summary()}"
                self.metrics.record_verdict(
                    f"fused t={fused.time:g}s {fused.verdict.summary()}"
                )
            self.metrics.record_fused_alarm(label, fused.latency_s)
            if on_fused is not None:
                on_fused(fused)

        def relay_fault(fault: "StreamFault") -> None:
            self.metrics.record_stream_fault(
                f"{fault.stream} {fault.kind} row {fault.index} "
                f"t={fault.time:g}: {fault.detail}"
            )

        def relay_seal(name: str, reason: str) -> None:
            if reason == "duplicate":
                self.metrics.record_duplicate_seal(name)
            else:
                self.metrics.record_lane_sealed(f"{name}: {reason}")

        scenario_names = tuple(f"s{k}" for k in range(len(seeds)))
        warmup = plan.warmup if warmup is None else float(warmup)
        if isinstance(stream_faults, str):
            stream_faults = StreamFaultPlan.parse(stream_faults)
        durable = (
            checkpoint is not None
            or resume_from is not None
            or stream_faults is not None
        )

        fleet_lanes = stage == "fleet"
        fleet = FleetDetector.from_detector(
            self.fitted_detector(plan, *training), threshold,
            on_alarm=relay_alarm,
            on_fused=relay_fused if fleet_lanes else None,
            on_batch=self.metrics.record_fleet_batch if fleet_lanes else None,
            max_consecutive_faults=DEFAULT_MAX_FAULTS if fleet_lanes else sys.maxsize,
            faults=stream_faults, on_fault=relay_fault, on_seal=relay_seal,
            **knobs,
        )
        sampling_period = plan.scenario_config(plan.train_seeds[0]).sampling_period
        for name in scenario_names:
            for monitor in monitors:
                fleet.add_stream(monitor, scenario=name, periods=plan.periods,
                                 sampling_period=sampling_period, warmup=warmup)

        attacks = plan.build_attacks() if attack else []
        truths: dict[str, np.ndarray] = {}

        def scenario_truth(trace) -> np.ndarray:
            ticks = np.asarray(trace.tick_times, dtype=float)
            truth = np.asarray(trace.window_labels(plan.label_policy), dtype=bool)
            return truth[ticks >= warmup] if warmup > 0 else truth

        if durable:
            traces = {
                name: self.trace(plan.scenario_config(seed), attacks,
                                 label=f"{stage}[{name}]")
                for name, seed in zip(scenario_names, seeds)
            }
            with self._stage(stage) as timer:
                run_durable_fleet(
                    traces,
                    fleet,
                    checkpoint=checkpoint,
                    checkpoint_every=checkpoint_every,
                    resume_from=resume_from,
                    faults=stream_faults,
                    on_checkpoint=lambda r: self.metrics.record_checkpoint(str(r)),
                    on_restore=lambda r: self.metrics.record_restore(str(r)),
                )
            truths = {name: scenario_truth(trace) for name, trace in traces.items()}
        else:
            with self._stage(stage) as timer:
                for name, seed in zip(scenario_names, seeds):
                    trace = run_scenario(plan.scenario_config(seed),
                                         attacks=attacks, taps=fleet.taps(name))
                    truths[name] = scenario_truth(trace)
                fleet.finish()
        # Lanes that crashed, were sealed or quarantined rows hold fewer
        # scored windows than trace ticks; drop misaligned ground truth.
        labels = {
            tap.name: truths[name]
            for name in scenario_names for tap in fleet.taps(name)
            if len(truths[name]) == len(fleet._lanes[tap.name].scores)
        }
        return fleet.result(labels=labels, elapsed_s=timer.elapsed)

    def sweep(
        self,
        plans: Mapping[str, ExperimentPlan] | Sequence[ExperimentPlan],
        classifier: str = "c45",
        method: str = "calibrated_probability",
        **knobs,
    ):
        """Detection experiments over several plans, sharing one fan-out.

        Accepts a name→plan mapping (returns a name→result dict, e.g. the
        output of :func:`~repro.eval.experiments.four_scenarios`) or a
        plain sequence of plans (returns a list of results in order).
        """
        if isinstance(plans, Mapping):
            self.prefetch(list(plans.values()))
            return {
                name: self.detect(plan, classifier=classifier, method=method, **knobs)
                for name, plan in plans.items()
            }
        plans = list(plans)
        self.prefetch(plans)
        return [
            self.detect(plan, classifier=classifier, method=method, **knobs)
            for plan in plans
        ]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover
        where = str(self.cache.dir) if self.cache is not None else "disabled"
        return f"Session(jobs={self.jobs}, cache={where!r})"


# ----------------------------------------------------------------------
# Process-wide default session (backs the legacy module-level helpers).
# ----------------------------------------------------------------------
_default_session: Session | None = None


def default_session() -> Session:
    """The lazily-created session behind the legacy module-level API."""
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def set_default_session(session: Session | None) -> None:
    """Replace (or with ``None``, reset) the process-wide default session."""
    global _default_session
    _default_session = session
