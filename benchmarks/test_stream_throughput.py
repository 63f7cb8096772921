"""Streaming-detection throughput: windows per second, extract and score.

Measures the online path on a fixed replayed workload (no simulation in
the timed region):

* **extract-only** — the :class:`StreamingExtractor` consuming a full
  recorded event stream window by window;
* **extract + score** — the same stream with an
  :class:`OnlineDetector` scoring every window as it closes.

Both must sustain far more than the real-time rate (one window per 5 s of
simulated time = 0.2 windows/s), or the detector could not keep up with
the node it watches.  Wall-clock floors are deliberately conservative so
slow CI runners don't flake; the measured rates are printed for the
record.

A third, same-binary leg times the shipped one-sort replay against the
heap-merge oracle of ``tests/stream/reference.py``, both driving the
shipped extractor over the same trace, and asserts equal rows before
recording the ratio.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.stream import OnlineDetector, extractor_for_config, replay_trace

from benchmarks.conftest import BENCH_PLAN, RUNTIME, print_header
from tests.stream.reference import reference_replay

#: Streaming is per-window work; a smaller condition keeps the *setup*
#: (simulate + fit, both outside the timed region) CI-friendly.
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

#: Sanity floor: >= 50x real time for scoring, >= 500x for extraction.
MIN_SCORED_WINDOWS_PER_S = 10.0
MIN_EXTRACTED_WINDOWS_PER_S = 100.0

#: Heap-merge oracle over shipped replay, both driving the shipped
#: extractor at every monitor, best of REPEATS interleaved timings each.
#: A 2-CPU x86_64 host read 1.64-1.88x in four runs; the floor is half
#: the lowest of them.
MIN_REPLAY_SPEEDUP = 0.8
REPEATS = 7


def _streamed_trace():
    return RUNTIME.raw_traces(PLAN).abnormal_evals[0]


def test_extractor_throughput():
    trace = _streamed_trace()
    windows = 0

    def count(row):
        nonlocal windows
        windows += 1

    tap = extractor_for_config(
        trace.config, periods=PLAN.periods, on_row=count, keep_rows=False
    )
    t0 = time.perf_counter()
    replay_trace(trace, tap)
    elapsed = time.perf_counter() - t0
    rate = windows / elapsed

    print_header("Streaming throughput: extraction only")
    print(f"  {windows} windows in {elapsed:.3f}s -> {rate:,.0f} windows/s "
          f"({rate * trace.config.sampling_period:,.0f}x real time)")
    assert windows == len(trace.tick_times)
    assert rate > MIN_EXTRACTED_WINDOWS_PER_S


def test_end_to_end_scoring_throughput():
    trace = _streamed_trace()
    detector = RUNTIME.fitted_detector(PLAN, classifier="c45")
    online = OnlineDetector.from_detector(detector, monitor=PLAN.monitor)
    tap = extractor_for_config(
        trace.config, periods=PLAN.periods, on_row=online.consume, keep_rows=False
    )
    t0 = time.perf_counter()
    replay_trace(trace, tap)
    elapsed = time.perf_counter() - t0
    result = online.result(elapsed_s=elapsed)

    print_header("Streaming throughput: extraction + online scoring")
    print(f"  {result.summary()}")
    print(f"  ({result.windows_per_second * trace.config.sampling_period:,.0f}x "
          f"real time at a {trace.config.sampling_period:.0f}s window)")
    assert result.windows == len(trace.tick_times)
    assert result.windows_per_second > MIN_SCORED_WINDOWS_PER_S
    # Latency accounting is per window and strictly positive.
    assert 0.0 < result.mean_latency_s <= result.max_latency_s


def test_replay_against_the_heap_merge_oracle():
    trace = _streamed_trace()

    def timed(replay):
        """Replay + extract at every monitor of the trace."""
        taps = [
            extractor_for_config(trace.config, monitor=m, periods=PLAN.periods)
            for m in range(trace.n_nodes)
        ]
        t0 = time.perf_counter()
        for tap in taps:
            replay(trace, tap)
        return time.perf_counter() - t0, [tap.to_matrix() for tap in taps]

    best = {replay_trace: float("inf"), reference_replay: float("inf")}
    rows = {}
    for _ in range(REPEATS):  # interleaved, so drift hits both alike
        for replay in best:
            elapsed, rows[replay] = timed(replay)
            best[replay] = min(best[replay], elapsed)
    for shipped, oracle in zip(rows[replay_trace], rows[reference_replay]):
        assert all(np.array_equal(a, b) for a, b in zip(shipped, oracle))
    ratio = best[reference_replay] / best[replay_trace]

    print_header("Streaming throughput: one-sort replay vs heap-merge oracle")
    print(f"  {trace.n_nodes} monitors: oracle {best[reference_replay]:.3f}s, "
          f"shipped {best[replay_trace]:.3f}s -> {ratio:.2f}x "
          f"(floor {MIN_REPLAY_SPEEDUP}x)")
    assert ratio >= MIN_REPLAY_SPEEDUP
