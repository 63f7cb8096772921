"""The four benchmark workloads.

Every workload is driven closed-loop by :func:`bench.run.measure`: one
caller, and the next operation starts when the previous one returns.  A
workload object provides

* ``setup()``: what a user pays before the first request (loading
  cached traces, fitting the detector).  Returns the artifact-cache
  misses it saw, so a cold set-up can be timed again;
* ``op(k, record)``: the k-th operation of the run, made only of calls
  into public ``repro`` functions.  It calls ``record(start, end)`` with
  ``time.perf_counter()`` readings once per completed request and
  returns an :class:`OpResult`;
* ``digests(result)``: order-independent digests of the op's outputs,
  compared against the pinned values in ``bench/golden.json``;
* ``verify(result)``: the checks that need no pinned value (stream ==
  batch, fleet == batch, trace invariants), run outside the timed region;
* ``counts(result)``: exact ``count.*`` values read from public outputs
  (trace mode only).

Inputs are made from the run seed ``S`` only; the docstring of each
workload says how.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro import (
    ExperimentPlan,
    FleetDetector,
    OnlineDetector,
    ScenarioConfig,
    Session,
    StreamingExtractor,
    extract_features,
    replay_trace,
    run_scenario,
)
from repro.attacks.base import Attack
from repro.simulation.packet import Direction, PacketType
from repro.simulation.scenario import trace_fingerprint
from repro.stream.extractor import WindowRow

#: Packet types counted as routing control traffic.
_CONTROL = (PacketType.RREQ, PacketType.RREP, PacketType.RERR, PacketType.HELLO, PacketType.TC)
_TRANSMIT = (Direction.SENT, Direction.FORWARDED)

#: Scenario seeds of the 20-node condition's traces: normal training,
#: calibration, and the mixed black hole + dropping attack.
TRAIN_SEED, CALIBRATION_SEED, ATTACK_SEED = 11, 13, 31
#: ``scale-200``: the protocols of one request, and the scenario seeds of one op.
SCALE_PROTOCOLS = ("aodv", "dsr")
SCALE_SEEDS = (1, 2, 3)
#: ``fleet-batch``: lanes that must alarm in one tick for a fused alarm.
FLEET_QUORUM = 2


def condition_plan(config, **extra) -> ExperimentPlan:
    """The AODV/UDP plan of a 20-node-condition config, pinned seeds."""
    return ExperimentPlan(
        protocol="aodv",
        transport="udp",
        n_nodes=config.n_nodes,
        duration=config.duration,
        max_connections=config.connections,
        train_seeds=(TRAIN_SEED,),
        calibration_seed=CALIBRATION_SEED,
        normal_seeds=(),
        attack_seeds=(ATTACK_SEED,),
        warmup=config.warmup,
        **extra,
    )


def array_digest(values) -> str:
    """First 16 hex digits of the sha256 of a float64 array's bytes."""
    data = np.ascontiguousarray(np.asarray(values, dtype=np.float64)).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def text_digest(value) -> str:
    """First 16 hex digits of the sha256 of ``repr(value)``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def trace_events(stats_list) -> int:
    """Packet, route and route-length events logged at the given nodes."""
    return sum(
        sum(len(t) for t in stats.packet_times.values())
        + sum(len(t) for t in stats.route_times.values())
        + len(stats.route_length_samples)
        for stats in stats_list
    )


def control_packets(trace) -> int:
    """Routing-control transmissions (sent + forwarded) over all nodes."""
    return sum(
        len(stats.packet_times[(int(pt), int(dr))])
        for stats in trace.recorder.nodes
        for pt in _CONTROL
        for dr in _TRANSMIT
    )


def trace_counts(traces) -> dict[str, float]:
    """Network-level counts of the given traces, summed."""
    originated = sum(t.data_originated for t in traces)
    delivered = sum(t.data_delivered for t in traces)
    control = sum(control_packets(t) for t in traces)
    return {
        "count.trace_events": trace_events(s for t in traces for s in t.recorder.nodes),
        "count.data_originated": originated,
        "count.data_delivered": delivered,
        "count.control_packets": control,
        "ratio.delivery": delivered / originated if originated else 0.0,
        "ratio.control_per_delivered": control / delivered if delivered else 0.0,
    }


class ProbeAttack(Attack):
    """An attack with no sessions: it only keeps the :class:`Simulator`.

    ``run_scenario`` installs every attack before the run, so after the
    run ``probe.sim.processed_events`` is the kernel's event count.  With
    no sessions it schedules nothing and leaves the trace unchanged.
    """

    def __init__(self):
        super().__init__(attacker=0, sessions=())

    def activate(self) -> None:  # pragma: no cover - no sessions
        pass

    def deactivate(self) -> None:  # pragma: no cover - no sessions
        pass


@dataclass
class OpResult:
    """What one operation did: its work items and its outputs."""

    items: int
    data: dict = field(default_factory=dict)


class Workload:
    """Shared state: the seed, the cache directory and bench-side spans."""

    name = ""

    def __init__(self, config, seed: int, cache_dir=None):
        self.config = config
        self.seed = seed
        self.cache_dir = cache_dir
        #: Seconds per bench-side span (calls into public functions).
        self.spans: dict[str, float] = defaultdict(float)
        #: Spans of the most recent :meth:`setup` only.
        self.setup_spans: dict[str, float] = {}

    def setup(self) -> int:
        return 0

    def setup_digests(self) -> dict:
        return {}

    def counts(self, result: OpResult) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# paper-aodv: the paper pipeline through Session.detect
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PaperConfig:
    """The EXPERIMENTS.md condition (AODV/UDP, 20 nodes, 100 connections),
    shortened to ``duration`` seconds so a pass fits several times in a run."""

    n_nodes: int = 20
    duration: float = 60.0
    connections: int = 100
    warmup: float = 10.0

    def plan(self, monitor: int) -> ExperimentPlan:
        return condition_plan(self, monitor=monitor)


class PaperAodv(Workload):
    """One ``Session(cache=False, jobs=1).detect(plan, "c45")`` per op.

    The three traces (train, calibration, mixed black hole + dropping
    attack) keep their pinned seeds in every op, so each pass simulates
    the same network; op ``k`` of seed ``S`` analyses monitor
    ``(S + k) mod (n_nodes - 1)``.  Varying the scenario seeds instead
    moves the pass time by about 15 % (the forged-RREQ storm depends on
    the topology), which at a few passes per run would swamp every bound.
    """

    name = "paper-aodv"

    def monitor(self, k: int) -> int:
        return (self.seed + k) % (self.config.n_nodes - 1)

    def op(self, k: int, record) -> OpResult:
        plan = self.config.plan(self.monitor(k))
        session = Session(cache=False, jobs=1)
        t0 = time.perf_counter()
        result = session.detect(plan, "c45")
        record(t0, time.perf_counter())
        for stage, seconds in session.metrics.stage_seconds.items():
            self.spans[stage] += seconds
        raw = session.raw_traces(plan)
        traces = {
            "train": raw.train[0],
            "calibration": raw.calibration,
            "attack": raw.abnormal_evals[0],
        }
        items = trace_events(s for t in traces.values() for s in t.recorder.nodes)
        return OpResult(items, {
            "plan": plan, "session": session, "result": result, "traces": traces,
        })

    def digests(self, result: OpResult) -> dict:
        plan, det = result.data["plan"], result.data["result"]
        out = {
            f"trace.{label}": trace_fingerprint(trace)[:16]
            for label, trace in result.data["traces"].items()
        }
        m = f"m{plan.monitor}"
        out[f"{m}.scores"] = array_digest(det.scores)
        out[f"{m}.auc"] = det.auc
        out[f"{m}.threshold"] = det.threshold
        return out

    def verify(self, result: OpResult) -> list[str]:
        det = result.data["result"]
        problems = []
        if not np.all(np.isfinite(det.scores)) or not np.isfinite(det.threshold):
            problems.append("paper-aodv: non-finite scores or threshold")
        if not 0.0 <= det.auc <= 1.0:
            problems.append(f"paper-aodv: AUC {det.auc} outside [0, 1]")
        return problems

    def counts(self, result: OpResult) -> dict[str, float]:
        """Counts of one pass; re-simulates its traces with a probe."""
        plan, session = result.data["plan"], result.data["session"]
        traces = result.data["traces"]
        kernel = 0
        for label, seed, attacks in (
            ("train", plan.train_seeds[0], []),
            ("calibration", plan.calibration_seed, []),
            ("attack", plan.attack_seeds[0], plan.build_attacks()),
        ):
            probe = ProbeAttack()
            probed = run_scenario(plan.scenario_config(seed), attacks=[*attacks, probe])
            if trace_fingerprint(probed) != trace_fingerprint(traces[label]):
                raise AssertionError(f"probe attack changed the {label} trace")
            kernel += probe.sim.processed_events
        det = result.data["result"]
        detector = session.fitted_detector(plan, "c45")
        return {
            **trace_counts(list(traces.values())),
            "count.kernel_events": kernel,
            "count.windows": len(det.scores),
            "count.alarms": int((det.scores < det.threshold).sum()),
            "count.sub_models": len(detector.model.models_),
            "count.lanes": 1,
        }


# ----------------------------------------------------------------------
# scale-200: the simulator above the small-network cutoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleConfig:
    """200 nodes, so the medium takes the spatial-index and batched
    fan-out paths that ``paper-aodv`` (below 48 nodes) never runs."""

    n_nodes: int = 200
    duration: float = 10.0
    connections: int = 40

    def scenario(self, protocol: str, seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            protocol=protocol,
            n_nodes=self.n_nodes,
            duration=self.duration,
            max_connections=self.connections,
            seed=seed,
        )


class Scale200(Workload):
    """One AODV then one DSR ``run_scenario`` (one request) for every
    scenario seed of :data:`SCALE_SEEDS` per op.

    The deck is fixed and every op runs all of it, starting at
    ``SCALE_SEEDS[S mod len(SCALE_SEEDS)]`` for seed ``S``: the pass time
    of a 200-node pair moves by about 13 % with its scenario, so a run
    that simulated seed-chosen scenarios moved its median by as much.
    Items are kernel events, read through a :class:`ProbeAttack`.
    """

    name = "scale-200"

    def deck(self) -> tuple[int, ...]:
        start = self.seed % len(SCALE_SEEDS)
        return SCALE_SEEDS[start:] + SCALE_SEEDS[:start]

    def op(self, k: int, record) -> OpResult:
        pairs, kernel = [], 0
        for seed in self.deck():
            traces = {}
            start = time.perf_counter()
            for protocol in SCALE_PROTOCOLS:
                probe = ProbeAttack()
                t0 = time.perf_counter()
                traces[protocol] = run_scenario(
                    self.config.scenario(protocol, seed), attacks=[probe]
                )
                self.spans[f"simulate_{protocol}"] += time.perf_counter() - t0
                kernel += probe.sim.processed_events
            record(start, time.perf_counter())
            pairs.append((seed, traces))
        return OpResult(kernel, {"pairs": pairs, "kernel": kernel})

    def digests(self, result: OpResult) -> dict:
        return {
            f"s{seed}.{protocol}": trace_fingerprint(trace)[:16]
            for seed, traces in result.data["pairs"]
            for protocol, trace in traces.items()
        }

    def verify(self, result: OpResult) -> list[str]:
        problems = []
        for seed, traces in result.data["pairs"]:
            for protocol, trace in traces.items():
                where = f"scale-200 {protocol} seed {seed}"
                expected = int(trace.config.duration // trace.config.sampling_period)
                if len(trace.tick_times) != expected:
                    problems.append(f"{where}: {len(trace.tick_times)} ticks, expected {expected}")
                if not 0 <= trace.data_delivered <= trace.data_originated:
                    problems.append(f"{where}: delivered {trace.data_delivered} of "
                                    f"{trace.data_originated} originated")
        if result.data["kernel"] <= 0:
            problems.append("scale-200: no kernel events processed")
        return problems

    def counts(self, result: OpResult) -> dict[str, float]:
        traces = [t for _, pair in result.data["pairs"] for t in pair.values()]
        return {
            **trace_counts(traces),
            "count.kernel_events": result.data["kernel"],
        }


# ----------------------------------------------------------------------
# stream-replay and fleet-batch: online detection over a recorded trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamConfig:
    """The full EXPERIMENTS.md condition (20 nodes, 1000 s, 100
    connections); its traces come from the artifact cache."""

    n_nodes: int = 20
    duration: float = 1000.0
    connections: int = 100
    warmup: float = 100.0
    #: The monitors every ``stream-replay`` op streams, one after another.
    monitors: tuple[int, ...] = (0, 5, 10, 15)

    def plan(self) -> ExperimentPlan:
        return condition_plan(self)


class _RecordedTrace(Workload):
    """Set-up shared by the two online workloads.

    Loads the condition's three traces through ``Session(jobs=1)`` and
    its artifact cache (simulating them on a cold cache), then extracts
    and fits the detector, as a user's warm deployment does.
    """

    def setup(self) -> int:
        plan = self.config.plan()
        session = Session(cache_dir=self.cache_dir, jobs=1)
        t0 = time.perf_counter()
        raw = session.raw_traces(plan)
        t1 = time.perf_counter()
        detector = session.fitted_detector(plan, "c45")
        t2 = time.perf_counter()
        self.setup_spans = {"setup_load": t1 - t0, "setup_fit": t2 - t1}
        self.plan, self.raw, self.detector = plan, raw, detector
        self.trace = raw.abnormal_evals[0]
        self._batch: dict[int, np.ndarray] = {}
        return session.metrics.cache_misses

    def setup_digests(self) -> dict:
        return {
            "trace.train": trace_fingerprint(self.raw.train[0])[:16],
            "trace.calibration": trace_fingerprint(self.raw.calibration)[:16],
            "trace.attack": trace_fingerprint(self.trace)[:16],
            "model.threshold": float(self.detector.threshold_),
        }

    def dataset(self, monitor: int):
        return extract_features(
            self.trace, monitor=monitor, periods=self.plan.periods,
            warmup=self.plan.warmup,
        )

    def batch_scores(self, monitor: int) -> np.ndarray:
        """``detector.score(extract_features(...))``: the batch reference."""
        if monitor not in self._batch:
            self._batch[monitor] = self.detector.score(self.dataset(monitor).X)
        return self._batch[monitor]

    def input_counts(self) -> dict[str, float]:
        counts = trace_counts([self.trace])
        counts["count.sub_models"] = len(self.detector.model.models_)
        return counts


class StreamReplay(_RecordedTrace):
    """Replay the attack trace into a ``StreamingExtractor`` feeding an
    ``OnlineDetector(attribution=True)``, once per monitor of the deck.

    One op streams every deck monitor, one after another, starting at
    ``monitors[S mod len(monitors)]`` for seed ``S``.  A request is one
    window: ``on_row`` to ``consume`` returning.  Every op covers the
    whole deck because the per-window cost differs by up to 1.8x between
    monitors: a run that streamed a seed-chosen subset moved its median
    by 6-12 %.  Monitor 17 is left out: it trips the ``RouteLengthRing``
    defect (see ``bench/README.md``).
    """

    name = "stream-replay"

    def op(self, k: int, record) -> OpResult:
        monitors = self.config.monitors
        start = self.seed % len(monitors)
        onlines = [
            self.stream(monitor, record)
            for monitor in monitors[start:] + monitors[:start]
        ]
        windows = sum(online.windows for online in onlines)
        return OpResult(windows, {"onlines": onlines})

    def stream(self, monitor: int, record) -> OnlineDetector:
        online = OnlineDetector.from_detector(
            self.detector, monitor=monitor, attribution=True
        )
        consume = online.consume
        busy = 0.0

        def on_row(row: WindowRow) -> None:
            nonlocal busy
            t0 = time.perf_counter()
            consume(row)
            t1 = time.perf_counter()
            busy += t1 - t0
            record(t0, t1)

        tap = StreamingExtractor(
            monitor=monitor,
            periods=self.plan.periods,
            sampling_period=self.trace.config.sampling_period,
            warmup=self.plan.warmup,
            on_row=on_row,
            keep_rows=False,
        )
        t0 = time.perf_counter()
        replay_trace(self.trace, tap)
        total = time.perf_counter() - t0
        self.spans["consume"] += busy
        self.spans["replay_other"] += total - busy
        return online

    def digests(self, result: OpResult) -> dict:
        out = {}
        for online in result.data["onlines"]:
            m = online.monitor
            verdicts = [
                (a.time, a.verdict.anomaly_type, a.verdict.features)
                for a in online.alarms if a.verdict is not None
            ]
            out[f"m{m}.scores"] = array_digest(online.scores)
            out[f"m{m}.alarms"] = len(online.alarms)
            out[f"m{m}.verdicts"] = text_digest(verdicts)
        return out

    def verify(self, result: OpResult) -> list[str]:
        return [
            f"stream-replay: monitor {online.monitor} streamed scores differ "
            f"from batch scores"
            for online in result.data["onlines"]
            if not np.array_equal(np.asarray(online.scores),
                                  self.batch_scores(online.monitor))
        ]

    def counts(self, result: OpResult) -> dict[str, float]:
        onlines = result.data["onlines"]
        counts = self.input_counts()
        counts["count.trace_events"] = trace_events(
            self.trace.recorder[online.monitor] for online in onlines
        )
        counts["count.windows"] = sum(online.windows for online in onlines)
        counts["count.alarms"] = sum(len(online.alarms) for online in onlines)
        counts["count.verdicts"] = sum(
            a.verdict is not None for online in onlines for a in online.alarms
        )
        counts["count.lanes"] = len(onlines)
        return counts


class FleetBatch(_RecordedTrace):
    """Batch-extract the attack trace at every honest monitor, then feed
    the rows tick by tick into one ``FleetDetector(attribution=True,
    quorum=2)`` through ``attach`` / ``ingest`` / ``seal_all``.

    One op is one whole pass; a request is one tick (ingest of every
    lane's row plus ``seal_all``).  Op ``k`` of seed ``S`` attaches the
    lanes in a seeded shuffled order.  Rows come from batch extraction
    rather than ring-fed taps because the taps trip the
    ``RouteLengthRing`` defect on this trace.
    """

    name = "fleet-batch"

    @property
    def monitors(self) -> tuple[int, ...]:
        return tuple(m for m in range(self.config.n_nodes) if m != self.plan.attacker)

    def op(self, k: int, record) -> OpResult:
        order = list(self.monitors)
        random.Random(1000 * self.seed + k).shuffle(order)
        t0 = time.perf_counter()
        datasets = {m: self.dataset(m) for m in order}
        rows = {
            m: [
                WindowRow(index=i, time=float(t), monitor=m, features=ds.X[i])
                for i, t in enumerate(ds.times)
            ]
            for m, ds in datasets.items()
        }
        self.spans["batch_extract"] += time.perf_counter() - t0

        fleet = FleetDetector.from_detector(
            self.detector, quorum=FLEET_QUORUM, attribution=True
        )
        names = {m: f"n{m}" for m in order}
        for m in order:
            fleet.attach(names[m], monitor=m)
        times = datasets[order[0]].times
        ingest = fleet.ingest
        for i, t in enumerate(times):
            t0 = time.perf_counter()
            for m in order:
                ingest(names[m], rows[m][i])
            t1 = time.perf_counter()
            fleet.seal_all(float(t))
            t2 = time.perf_counter()
            self.spans["ingest"] += t1 - t0
            self.spans["seal"] += t2 - t1
            record(t0, t2)
        t0 = time.perf_counter()
        fleet.finish()
        self.spans["seal"] += time.perf_counter() - t0
        result = fleet.result()
        return OpResult(len(times) * len(order), {"result": result, "names": names})

    def digests(self, result: OpResult) -> dict:
        fleet, names = result.data["result"], result.data["names"]
        out = {
            f"n{m}.scores": array_digest(fleet.streams[names[m]].scores)
            for m in sorted(names)
        }
        fused = [(f.time, tuple(sorted(f.streams))) for f in fleet.fused]
        out["fused"] = text_digest(fused)
        out["alarms"] = fleet.alarms
        return out

    def verify(self, result: OpResult) -> list[str]:
        fleet, names = result.data["result"], result.data["names"]
        return [
            f"fleet-batch: lane {name} scores differ from batch scores"
            for m, name in names.items()
            if not np.array_equal(fleet.streams[name].scores, self.batch_scores(m))
        ]

    def counts(self, result: OpResult) -> dict[str, float]:
        fleet, names = result.data["result"], result.data["names"]
        counts = self.input_counts()
        counts["count.trace_events"] = trace_events(
            self.trace.recorder[m] for m in names
        )
        counts["count.windows"] = fleet.windows
        counts["count.alarms"] = fleet.alarms
        counts["count.verdicts"] = sum(
            a.verdict is not None
            for stream in fleet.streams.values() for a in stream.alarms
        )
        counts["count.fused_alarms"] = len(fleet.fused)
        counts["count.fleet_batches"] = fleet.batches
        counts["count.lanes"] = fleet.n_streams
        return counts


WORKLOADS = {
    cls.name: cls for cls in (PaperAodv, Scale200, StreamReplay, FleetBatch)
}

#: The configuration each workload runs with unless a test passes another.
DEFAULT_CONFIGS = {
    "paper-aodv": PaperConfig(),
    "scale-200": ScaleConfig(),
    "stream-replay": StreamConfig(),
    "fleet-batch": StreamConfig(),
}
