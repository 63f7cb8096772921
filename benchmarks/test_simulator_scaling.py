"""Benchmark: kernel and model fast paths across scenario scales.

Two suites, each timing a shipped path against its test oracle and
asserting equal results before any number is recorded:

* **simulator** — identical neighbor-query workloads through the
  medium's grid index and through
  :func:`tests.simulation.reference.scan_neighbors` at 30/100(/200)
  nodes (equal checksums), plus full scenarios end to end on the one
  shipped stack at the same counts and at 500 nodes (shorter duration),
  best of N, recording the seconds, the trace-event count and the
  :func:`~repro.simulation.scenario.trace_fingerprint` (every repeat
  must reproduce it).
* **model** — C4.5 ensemble scoring through the stacked node-table walk
  against :func:`tests.ml.reference.sub_model_outputs_rowwise`, one
  per-row oracle walk per sub-model (``np.array_equal`` outputs), and
  ensemble training through the shared-pass vectorized fit against the
  per-sub-model loop of :class:`tests.ml.reference.ReferenceC45`
  (``trees_equal`` trees).

The floors below compare the two paths of one run, so they hold on any
host.  Absolute speed is tracked by the repository benchmark
(``python -m bench.run``), not by these ratios.  Quick workloads by
default; ``REPRO_BENCH_FULL=1 REPRO_BENCH_WRITE=1`` regenerates the
committed ``BENCH_simulator.json`` and ``BENCH_model.json``.
"""

from __future__ import annotations

import operator
import random
import time
from functools import partial

import numpy as np

from repro.core.model import CrossFeatureModel
from repro.ml.decision_tree import C45Classifier, trees_equal
from repro.simulation.engine import Simulator
from repro.simulation.medium import WirelessMedium
from repro.simulation.mobility import RandomWaypointMobility
from repro.simulation.node import Node
from repro.simulation.scenario import ScenarioConfig, run_scenario, trace_fingerprint
from repro.simulation.stats import TraceRecorder
from tests.ml.reference import ReferenceC45, sub_model_outputs_rowwise
from tests.simulation.reference import scan_neighbors

from benchmarks.conftest import QUICK, bench_entry, bench_payload, write_bench


def _best_of(repeats: int, run, same=operator.eq):
    """Best-of-N seconds of ``run() -> (seconds, result)``.

    The workloads are deterministic, so repeats measure only machine
    noise, and every repeat must return the same result.
    """
    best, first = float("inf"), None
    for i in range(repeats):
        seconds, result = run()
        if i == 0:
            first = result
        else:
            assert same(result, first), "repeat diverged"
        best = min(best, seconds)
    return best, first


def _timed(fn):
    """``fn`` as a :func:`_best_of` run."""
    def run():
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result
    return run


# ----------------------------------------------------------------------
# simulator suite
# ----------------------------------------------------------------------
def _neighbor_workload(n_nodes: int, n_queries: int, seed: int, scan: bool):
    """Time an identical neighbor-query stream through the grid or the scan.

    Builds a full stack, then replays ``n_queries`` queries from a
    dedicated workload RNG at monotonically increasing times.  Returns
    ``(seconds, checksum)``; the checksum folds every returned neighbor
    list, so the two paths must agree on it.
    """
    sim = Simulator(seed=seed)
    mobility = RandomWaypointMobility(n_nodes=n_nodes, rng=sim.rng)
    medium = WirelessMedium(sim, mobility)
    recorder = TraceRecorder(n_nodes)
    for i in range(n_nodes):
        Node(i, sim, medium, recorder[i])
    query = partial(scan_neighbors, medium) if scan else medium.neighbors

    workload = random.Random(0xBEEF)
    times = []
    t = 0.0
    # Inter-query gaps match a busy scenario's transmission density
    # (hundreds of sends per simulated second at 100 nodes).
    for _ in range(n_queries):
        t += workload.uniform(0.0005, 0.005)
        times.append((t, workload.randrange(n_nodes)))

    checksum = 0
    t0 = time.perf_counter()
    for t, node_id in times:
        sim.now = t
        for neighbor in query(node_id):
            checksum = (checksum * 31 + neighbor + 1) % (1 << 61)
    return time.perf_counter() - t0, checksum


def _scenario_run(config: ScenarioConfig):
    t0 = time.perf_counter()
    trace = run_scenario(config)
    seconds = time.perf_counter() - t0
    return seconds, (trace.recorder.total_packets(), trace_fingerprint(trace))


def simulator_suite(quick: bool, seed: int = 1) -> dict:
    """Neighbor path isolated + scenarios end to end."""
    if quick:
        node_counts, n_queries, duration, repeats = (30, 100), 2_000, 15.0, 2
    else:
        node_counts, n_queries, duration, repeats = (30, 100, 200), 20_000, 60.0, 3

    entries = []
    for n in node_counts:
        scan_s, scan_sum = _best_of(
            repeats, lambda: _neighbor_workload(n, n_queries, seed, scan=True))
        grid_s, grid_sum = _best_of(
            repeats, lambda: _neighbor_workload(n, n_queries, seed, scan=False))
        assert scan_sum == grid_sum, (
            f"neighbor results diverged at {n} nodes: {scan_sum:#x} != {grid_sum:#x}")
        entries.append(bench_entry(
            f"neighbors/{n}nodes", scan_s, grid_s, kind="neighbor_path",
            n_nodes=n, n_queries=n_queries, checksum=f"{grid_sum:#x}",
        ))

    # The 500-node rows use a shorter duration (DSR rides along since its
    # promiscuous taps stress the fan-out differently from AODV).
    rows = [(n, protocol, duration) for n in node_counts for protocol in ("aodv", "dsr")]
    rows += [(500, protocol, 3.0 if quick else 12.0) for protocol in ("aodv", "dsr")]
    base_repeats = 2 if quick else 1
    for n, protocol, row_duration in rows:
        # Sub-second rows (small n) are where scheduler noise is largest
        # relative to the signal, so give them more best-of samples.
        if n < 100:
            scenario_repeats = max(base_repeats, 4)
        elif n <= 200:
            scenario_repeats = max(base_repeats, 2)
        else:
            scenario_repeats = base_repeats
        config = ScenarioConfig(
            protocol=protocol, n_nodes=n, duration=row_duration,
            max_connections=min(40, 2 * n), seed=seed,
        )
        seconds, (events, fingerprint) = _best_of(
            scenario_repeats, lambda: _scenario_run(config))
        entries.append({
            "name": f"scenario/{protocol}/{n}nodes",
            "kind": "end_to_end",
            "seconds": round(seconds, 4),
            "repeats": scenario_repeats,
            "n_nodes": n,
            "protocol": protocol,
            "duration": row_duration,
            "trace_events": events,
            "trace_fingerprint": fingerprint[:16],
        })
    return bench_payload("simulator", entries, quick=quick, seed=seed)


# ----------------------------------------------------------------------
# model suite
# ----------------------------------------------------------------------
def _synthetic_features(n_events: int, n_features: int, seed: int) -> np.ndarray:
    """Feature vectors with cross-feature structure for the sub-models.

    Half the columns are correlated mixtures of two latent variables so
    the learned trees have real depth; the rest are noise, like the
    hard-to-predict features of the actual trace data.
    """
    rng = np.random.default_rng(seed)
    latent = rng.random((n_events, 2))
    X = np.empty((n_events, n_features))
    for j in range(n_features):
        if j % 2 == 0:
            w = rng.random()
            X[:, j] = w * latent[:, 0] + (1 - w) * latent[:, 1] + 0.1 * rng.random(n_events)
        else:
            X[:, j] = rng.random(n_events)
    return X


def _same_trees(a: CrossFeatureModel, b: CrossFeatureModel) -> bool:
    """Structurally identical ensembles: same targets, and at every node
    of every sub-model the same split and the same per-class counts."""
    return a.targets_ == b.targets_ and all(
        trees_equal(x.root_, y.root_) for x, y in zip(a.models_, b.models_))


def model_suite(quick: bool, seed: int = 0) -> dict:
    """Stacked scoring vs the rowwise walk; shared-pass vs reference fit."""
    if quick:
        n_train, n_score, n_features, repeats = 800, 4_000, 10, 2
        n_fit, fit_features, fit_repeats = 200, 36, 1
    else:
        n_train, n_score, n_features, repeats = 2_000, 20_000, 16, 3
        n_fit, fit_features, fit_repeats = 500, 140, 2

    model = CrossFeatureModel()
    model.fit(_synthetic_features(n_train, n_features, seed))
    X_score = _synthetic_features(n_score, n_features, seed + 1)

    rowwise_s, p_ref = _best_of(
        repeats, _timed(lambda: sub_model_outputs_rowwise(model, X_score)[1]),
        np.array_equal)
    batched_s, p_new = _best_of(
        repeats, _timed(lambda: model._sub_model_outputs(X_score)[1]), np.array_equal)
    assert np.array_equal(p_ref, p_new), "stacked scoring diverged from the rowwise oracle"

    # Paper scale: L ~ 140 features, one C4.5 sub-model per feature.
    X_fit = _synthetic_features(n_fit, fit_features, seed + 2)
    X_probe = _synthetic_features(256, fit_features, seed + 3)

    def fit(factory):
        return _timed(lambda: CrossFeatureModel(classifier_factory=factory).fit(X_fit))

    reference_s, reference = _best_of(fit_repeats, fit(ReferenceC45), _same_trees)
    shared_s, shared = _best_of(fit_repeats, fit(C45Classifier), _same_trees)
    assert _same_trees(shared, reference), "shared-pass trees diverged from the reference fit"
    assert np.array_equal(reference._sub_model_outputs(X_probe)[1],
                          shared._sub_model_outputs(X_probe)[1])

    entries = [
        bench_entry(
            "score/c45-batched-vs-rowwise", rowwise_s, batched_s, kind="scoring",
            n_events=n_score, n_features=n_features, n_sub_models=model.n_models,
        ),
        bench_entry(
            "fit/ensemble", reference_s, shared_s, kind="training",
            n_events=n_fit, n_features=fit_features, n_sub_models=shared.n_models,
            identity="trees structurally identical to the reference fit",
        ),
    ]
    return bench_payload("model", entries, quick=quick, seed=seed)


def test_simulator_scaling():
    payload = simulator_suite(QUICK)
    by_name = {e["name"]: e for e in payload["entries"]}

    # The grid must clearly win the neighbor path at 100+ nodes.  The
    # committed full-workload baseline reads about 2x; the floor sits
    # below it so CI timing noise cannot flake the suite.
    assert by_name["neighbors/100nodes"]["speedup"] >= 1.5, by_name

    # The 500-node rows cover the regime the batched kernel and the
    # flattened routing handlers target.
    assert "scenario/aodv/500nodes" in by_name, sorted(by_name)
    assert "scenario/dsr/500nodes" in by_name, sorted(by_name)
    for entry in payload["entries"]:
        if entry["kind"] == "end_to_end":
            assert entry["seconds"] > 0 and entry["trace_events"] > 0, entry
        else:
            assert entry["baseline_seconds"] > 0 and entry["optimized_seconds"] > 0

    write_bench(payload, "simulator")


def test_model_scaling():
    payload = model_suite(QUICK)
    by_kind = {e["kind"]: e for e in payload["entries"]}

    # One stacked walk of every sub-model vs the rowwise oracle walk,
    # one sub-model at a time: the quick workload reads about 50x and
    # the committed full-workload baseline about 27x; the floor sits
    # well below both.
    assert by_kind["scoring"]["speedup"] >= 10, by_kind

    # Shared-pass fit vs the reference per-sub-model loop: the committed
    # baseline reads about 29x at paper scale and the quick workload
    # about 10x; the floor only rules out a pathological slowdown.
    assert by_kind["training"]["speedup"] >= 0.5, by_kind

    write_bench(payload, "model")
