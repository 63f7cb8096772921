"""Stream-layer chaos benchmark: kill-anywhere resume and fleet survival.

Exercises the durable-streams contract at benchmark scale, on the same
recorded workload as test_stream_throughput:

* **kill-anywhere resume** — a durable single-stream run (a one-lane
  fleet through ``run_durable_fleet``, the one durable driver) is killed
  at a spread of tick positions across the whole trace; each
  interrupted run is restored from its checkpoint and replayed to the
  end, and every resumed run must produce scores and alarms **bit
  identical** to the uninterrupted baseline.
* **fleet chaos** — a fleet run with an injected lane crash, a corrupted
  row, a duplicated row and a dropped row completes without raising,
  quarantines exactly the damaged rows, seals exactly the crashed lane,
  and leaves the untouched lane's scores bit identical to a fault-free
  fleet over the same traces.

Counters and equality (not clocks) carry the assertions; wall-clock and
the survival summary are printed for the record.  Tier-1 checks the same
contracts on small traces in ``tests/stream/test_durability.py``
(``TestStreamResume``, ``TestFleetResume``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import numpy as np

from repro.runtime import RuntimeMetrics, Session
from repro.stream import FleetDetector
from repro.stream.durability import run_durable_fleet

from benchmarks.conftest import BENCH_PLAN, RUNTIME, print_header

#: Same scaled-down streaming condition as test_stream_throughput: the
#: contract is per-window, so the setup (simulate + fit, outside the
#: timed region) stays CI-friendly.
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

#: Injected fleet damage: one lane crashes mid-run, one row arrives
#: corrupted (NaN features), one is duplicated, one never arrives.
CHAOS = ("crash-lane:s0/n1:6,corrupt-row:s0/n2:4,"
         "dup-row:s0/n2:9,drop-row:s0/n3:3")


def _streamed_trace():
    return RUNTIME.raw_traces(PLAN).abnormal_evals[0]


def test_kill_anywhere_resume_bit_identical(tmp_path):
    trace = _streamed_trace()
    detector = RUNTIME.fitted_detector(PLAN, classifier="c45")

    def run(ckpt=None, every=1, resume=None, stop=None):
        fleet = FleetDetector.from_detector(detector, max_consecutive_faults=sys.maxsize)
        fleet.add_stream(PLAN.monitor, periods=PLAN.periods,
                         sampling_period=trace.config.sampling_period)
        _, finished = run_durable_fleet(
            {"s0": trace}, fleet,
            checkpoint=ckpt, checkpoint_every=every,
            resume_from=resume, stop_after_rounds=stop,
        )
        return fleet.result().streams[f"s0/n{PLAN.monitor}"], finished

    clean, _ = run()
    n = clean.windows
    assert n == len(trace.tick_times)

    # Kill positions spread across the run, first tick through last-1.
    kills = sorted({1, n // 4, n // 2, (3 * n) // 4, n - 1})
    t0 = time.perf_counter()
    for kill in kills:
        ckpt = tmp_path / f"kill{kill}.ckpt"
        _, finished = run(ckpt=ckpt, stop=kill)
        assert not finished
        resumed, finished = run(resume=ckpt)
        assert finished
        # The headline: the numbers never move, wherever the kill lands.
        assert np.array_equal(resumed.scores, clean.scores)
        assert np.array_equal(resumed.times, clean.times)
        assert ([(a.index, a.time) for a in resumed.alarms]
                == [(a.index, a.time) for a in clean.alarms])
    elapsed = time.perf_counter() - t0

    ckpt_bytes = max((tmp_path / f"kill{k}.ckpt").stat().st_size for k in kills)
    print_header("Durable stream: kill-anywhere resume")
    print(f"  {n} windows; killed at ticks {kills}; "
          f"{len(kills)} interrupt/resume cycles in {elapsed:.2f}s")
    print(f"  every resumed run bit-identical "
          f"({len(clean.alarms)} alarms; checkpoint <= {ckpt_bytes:,} bytes)")


def test_fleet_survives_chaos_with_quarantine_accounting():
    sampling = PLAN.scenario_config(PLAN.attack_seeds[0]).sampling_period
    chaos = Session(metrics=RuntimeMetrics())
    t0 = time.perf_counter()
    result = chaos.fleet_detect(
        PLAN, monitors=(0, 1, 2, 3),
        row_policy="quarantine",
        stall_timeout=4 * sampling,
        stream_faults=CHAOS,
    )
    chaos_seconds = time.perf_counter() - t0
    m = chaos.metrics

    clean = Session().fleet_detect(PLAN, monitors=(0, 1, 2, 3))

    print_header("Durable fleet: injected crash + corrupt/dup/drop rows")
    print(f"  chaos fleet: {chaos_seconds:6.2f}s  ({m.summary()})")
    print(f"  quarantined: "
          f"{[(f.stream, f.kind, f.index) for f in result.fault_records]}")
    print(f"  sealed lanes: {result.sealed}")

    # The run survived every injected fault without raising...
    assert result.n_streams == 4
    # ...the damaged rows were quarantined with typed verdicts...
    kinds = sorted(f.kind for f in result.fault_records)
    assert kinds == ["duplicate", "nan"]
    # ...the crashed lane was sealed with a reason, the rest were not...
    assert result.sealed.get("s0/n1") in ("stalled", "crashed")
    assert set(result.sealed) == {"s0/n1"}
    # ...and the damage is accounted in the runtime metrics.
    assert m.stream_faults == 2
    assert m.lanes_sealed == 1

    # The untouched lane never notices its siblings' failures.
    assert np.array_equal(result.streams["s0/n0"].scores,
                          clean.streams["s0/n0"].scores)
    # The dropped row costs lane n3 exactly one window.
    assert clean.streams["s0/n3"].windows - result.streams["s0/n3"].windows == 1
