"""Benchmark: kernel and model fast paths across scenario scales.

Runs the :mod:`repro.runtime.bench` suites — neighbor-path and
end-to-end scenario timings at 30/100(/200/500) nodes, model fit/score
timings — asserting both correctness (the harness itself fails on any
result divergence: naive scan vs grid index, repeated scenario runs,
optimized vs reference model paths) and conservative speedup floors
where two shipped or reference paths are compared.

Defaults to the quick (CI-scale) workloads; set ``REPRO_BENCH_FULL=1``
for the full workloads behind the committed ``BENCH_*.json`` baselines,
and ``REPRO_BENCH_WRITE=1`` to (re)write those files at the repo root.
``python -m repro bench`` is the command-line equivalent.
"""

import os
from pathlib import Path

from repro.runtime.bench import run_model_bench, run_simulator_bench, write_bench

QUICK = os.environ.get("REPRO_BENCH_FULL", "0") in ("0", "false", "")
REPO_ROOT = Path(__file__).resolve().parent.parent


def _maybe_write(payload: dict, name: str) -> None:
    if os.environ.get("REPRO_BENCH_WRITE", "0") not in ("0", "false", ""):
        write_bench(payload, REPO_ROOT / f"BENCH_{name}.json")


def test_simulator_scaling():
    payload = run_simulator_bench(quick=QUICK)
    by_name = {e["name"]: e for e in payload["entries"]}

    # The grid index must clearly win the neighbor path at 100+ nodes.
    # The committed full-workload baseline shows >= 3x; the floor here is
    # deliberately lower so CI timing noise cannot flake the suite.
    assert by_name["neighbors/100nodes"]["speedup"] >= 1.5, by_name

    # The 500-node rows must exist for both protocols: they cover the
    # regime the batched kernel and the flattened routing handlers
    # target (the harness asserted their fingerprints repeat already).
    assert "scenario/aodv/500nodes" in by_name, sorted(by_name)
    assert "scenario/dsr/500nodes" in by_name, sorted(by_name)

    # Spot-check the records are well-formed.  End-to-end rows time the
    # one shipped stack (absolute speed is tracked by the repository
    # benchmark's scale-200 workload, not by a ratio here).
    for entry in payload["entries"]:
        if entry["kind"] == "end_to_end":
            assert entry["seconds"] > 0
            assert entry["trace_events"] > 0
            assert entry["trace_fingerprint"], entry
        else:
            assert entry["baseline_seconds"] > 0
            assert entry["optimized_seconds"] > 0

    _maybe_write(payload, "simulator")


def test_model_scaling():
    payload = run_model_bench(quick=QUICK)
    by_kind = {e["kind"]: e for e in payload["entries"]}

    # Batched tree scoring vs the rowwise reference walk; the committed
    # baseline shows >= 2x, the CI floor is again conservative.
    assert by_kind["scoring"]["speedup"] >= 1.3, by_kind

    # Threaded fit cannot be faster on a single-CPU runner; just require
    # it not to be pathologically slower.
    assert by_kind["training"]["speedup"] >= 0.5, by_kind

    _maybe_write(payload, "model")
