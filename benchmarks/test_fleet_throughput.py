"""Fleet-multiplexing throughput: one batched pipeline vs N detectors.

Times the :class:`FleetDetector` tick-bucket pipeline against N
sequential :class:`OnlineDetector` runs over identical pre-extracted
window rows (extraction happens once, outside every timed region, so the
comparison isolates the scoring multiplexer).  At N = 1024 streams the
fleet must clear a 3x windows/s margin — the win the vectorized
``(N, L)`` scoring call buys over N ``(1, L)`` calls.

The speed claim is only meaningful if the numbers agree, so before any
rate is asserted the harness checks the fleet's per-lane scores
bit-identical (``np.array_equal``, no tolerance) to both the one-shot
batch score matrix and the sequential baseline's scores.

The sequential baseline is intensive — per-window cost does not depend
on N — so at large N it is measured on a capped number of windows and
extrapolated to the full workload (reported as such).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.stream import FleetDetector, OnlineDetector, extractor_for_config, replay_trace

from benchmarks.conftest import BENCH_PLAN, RUNTIME, print_header

#: Same condition as test_stream_throughput: the simulate + fit setup is
#: shared through the session cache and stays outside every timed region.
PLAN = replace(
    BENCH_PLAN,
    protocol="aodv",
    transport="udp",
    n_nodes=10,
    duration=200.0,
    max_connections=10,
    periods=(5.0, 60.0),
    warmup=0.0,
)

STREAM_COUNTS = (1, 64, 1024)

#: Hard acceptance floor at the largest fleet (the ISSUE's 3x criterion).
MIN_SPEEDUP_AT_1024 = 3.0

#: Cap on baseline windows actually consumed before extrapolating.
BASELINE_CAP = 512


def _source_rows():
    """The replayed workload's window rows, extracted once."""
    trace = RUNTIME.raw_traces(PLAN).abnormal_evals[0]
    tap = extractor_for_config(trace.config, periods=PLAN.periods, keep_rows=True)
    replay_trace(trace, tap)
    return tap.rows


def _fleet_run(detector, rows, n_streams):
    """Feed N externally-fed lanes tick by tick; return (fleet, seconds).

    Every lane replays the same closed windows (stream s's row at tick k
    is the recorded row k), so the workload scales exactly linearly in N
    while staying real extracted data.
    """
    fleet = FleetDetector.from_detector(detector)
    for s in range(n_streams):
        fleet.attach(f"n{s}")
    t0 = time.perf_counter()
    for row in rows:
        for s in range(n_streams):
            fleet.ingest(f"n{s}", row)
        fleet.seal_all(row.time)
    fleet.finish()
    return fleet, time.perf_counter() - t0


def _sequential_baseline(detector, rows, n_streams):
    """N independent consume loops, capped + extrapolated (intensive).

    Each pass over the rows gets a fresh detector: a detector's window
    times may not run backwards.  Returns the first pass's detector.
    """
    total = n_streams * len(rows)
    n_measure = min(total, BASELINE_CAP)
    passes = []
    t0 = time.perf_counter()
    for start in range(0, n_measure, len(rows)):
        online = OnlineDetector.from_detector(detector)
        for row in rows[: n_measure - start]:
            online.consume(row)
        passes.append(online)
    measured_s = time.perf_counter() - t0
    rate = n_measure / measured_s
    return passes[0], total / rate, n_measure < total


def _assert_fleet_identical(detector, fleet, rows, n_streams):
    """Every lane's scores must equal the one-shot batch matrix's bits."""
    X = np.vstack([row.features for row in rows])
    expected = detector.model.normality_score(X, detector.method)
    for s in range(n_streams):
        lane = np.asarray(fleet._lanes[f"n{s}"].scores)
        assert np.array_equal(lane, expected), f"lane {s} diverged"


def test_fleet_throughput_scales_past_sequential():
    rows = _source_rows()
    detector = RUNTIME.fitted_detector(PLAN, classifier="c45")

    print_header("Fleet multiplexing: batched pipeline vs N sequential detectors")
    speedups = {}
    for n_streams in STREAM_COUNTS:
        fleet, fleet_s = _fleet_run(detector, rows, n_streams)
        _assert_fleet_identical(detector, fleet, rows, n_streams)
        online, baseline_s, extrapolated = _sequential_baseline(
            detector, rows, n_streams
        )
        # The baseline walks the same rows in the same order, so its
        # measured prefix must also match the fleet's first lane exactly.
        probe = np.asarray(online.scores)
        lane0 = np.asarray(fleet._lanes["n0"].scores)
        n = min(len(probe), len(lane0))
        assert np.array_equal(probe[:n], lane0[:n])

        total = n_streams * len(rows)
        speedups[n_streams] = baseline_s / fleet_s
        note = " (extrapolated)" if extrapolated else ""
        print(f"  N={n_streams:5d}: {total:6d} windows  "
              f"sequential {baseline_s:8.3f}s{note}  fleet {fleet_s:7.3f}s  "
              f"-> {speedups[n_streams]:6.2f}x  "
              f"({total / fleet_s:,.0f} windows/s, "
              f"mean batch {fleet.result().mean_batch_size:.0f})")

    assert speedups[1024] >= MIN_SPEEDUP_AT_1024


def test_single_stream_fleet_matches_online_detector():
    """N=1 sanity: the multiplexer adds no numeric or alarm drift."""
    rows = _source_rows()
    detector = RUNTIME.fitted_detector(PLAN, classifier="c45")

    online = OnlineDetector.from_detector(detector, monitor=PLAN.monitor)
    for row in rows:
        online.consume(row)

    fleet, _ = _fleet_run(detector, rows, 1)
    lane = fleet.result().streams["n0"]
    assert np.array_equal(lane.scores, np.asarray(online.scores))
    assert np.array_equal(lane.times, np.asarray(online.times))
    assert [(a.index, a.time, a.score, a.threshold) for a in lane.alarms] == \
           [(a.index, a.time, a.score, a.threshold) for a in online.alarms]

    print_header("Fleet multiplexing: single-stream equivalence")
    print(f"  {lane.windows} windows, {len(lane.alarms)} alarms — "
          f"bit-identical to the solo OnlineDetector")
