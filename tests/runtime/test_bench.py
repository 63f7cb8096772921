"""Unit tests for the benchmark harness plumbing and stage metrics."""

import json

import pytest

from repro.runtime.bench import _entry, write_bench
from repro.runtime.metrics import RuntimeMetrics


class TestBenchEntries:
    def test_entry_speedup(self):
        e = _entry("x", 2.0, 0.5, n_nodes=30)
        assert e["speedup"] == 4.0
        assert e["n_nodes"] == 30

    def test_entry_zero_optimized(self):
        assert _entry("x", 1.0, 0.0)["speedup"] == float("inf")

    def test_write_bench_round_trip(self, tmp_path):
        payload = {"suite": "model", "entries": [_entry("a", 1.0, 0.5)]}
        path = tmp_path / "BENCH_model.json"
        write_bench(payload, path)
        assert json.loads(path.read_text()) == payload
        # Stable output: keys sorted, trailing newline (diff-friendly).
        assert path.read_text().endswith("\n")


class TestStageMetrics:
    def test_record_stage_accumulates(self):
        m = RuntimeMetrics()
        m.record_stage("fit", 1.5)
        m.record_stage("fit", 0.5)
        m.record_stage("score", 0.25)
        assert m.stage_seconds == {"fit": 2.0, "score": 0.25}

    def test_stage_event_emitted(self):
        events = []
        m = RuntimeMetrics(on_event=events.append)
        m.record_stage("simulate", 3.0)
        assert events[-1].kind == "stage"
        assert events[-1].label == "simulate"
        assert events[-1].seconds == 3.0

    def test_summary_includes_stages(self):
        m = RuntimeMetrics()
        m.record_stage("extract", 1.0)
        assert "extract=1.0s" in m.summary()

    def test_reset_clears_stages(self):
        m = RuntimeMetrics()
        m.record_stage("fit", 1.0)
        m.reset()
        assert m.stage_seconds == {}


class TestSimulatorBenchRows:
    def test_scenario_row_times_the_one_stack(self):
        """An end-to-end row records the shipped stack's best-of-N seconds,
        its trace-event count and fingerprint (repeats must agree)."""
        from repro.runtime.bench import _scenario_config, _scenario_seconds
        from repro.simulation.scenario import run_scenario, trace_fingerprint

        config = _scenario_config(8, 10.0, "aodv", seed=1)
        seconds, events, fingerprint = _scenario_seconds(config, repeats=2)
        trace = run_scenario(config)
        assert seconds > 0
        assert events == trace.recorder.total_packets() > 0
        assert fingerprint == trace_fingerprint(trace)


class TestModelBenchQuick:
    def test_quick_model_bench_runs_and_verifies(self):
        """The quick model suite asserts scoring *and* fit equivalence
        internally (batched-vs-rowwise probabilities, tree identity)."""
        from repro.runtime.bench import run_model_bench

        payload = run_model_bench(quick=True)
        kinds = {e["kind"] for e in payload["entries"]}
        assert kinds == {"scoring", "training"}
        for e in payload["entries"]:
            assert e["optimized_seconds"] > 0
        names = {e["name"] for e in payload["entries"]}
        assert "fit/ensemble" in names
        fit_entry = next(e for e in payload["entries"] if e["name"] == "fit/ensemble")
        # The identity assert ran in-harness; the entry records the contract.
        assert "identical" in fit_entry["identity"]


class TestStreamChaosBenchQuick:
    def test_quick_stream_chaos_bench_runs_and_verifies(self):
        """The quick chaos suite asserts the kill-anywhere resume contract
        and the corrupt-checkpoint fingerprint check in-harness; the
        entries carry the survival stats."""
        from repro.runtime.bench import run_stream_chaos_bench

        payload = run_stream_chaos_bench(quick=True)
        assert payload["suite"] == "stream-chaos"
        names = {e["name"] for e in payload["entries"]}
        assert names == {"stream/resume", "fleet/chaos"}
        for e in payload["entries"]:
            assert e["kind"] == "durability"
            assert e["optimized_seconds"] > 0
        chaos = next(e for e in payload["entries"] if e["name"] == "fleet/chaos")
        # The injected chaos actually landed and was survived.
        assert chaos["quarantined"] > 0
        assert chaos["sealed"]  # the crashed lane was sealed, with a reason
        assert set(chaos["sealed"].values()) <= {"stalled", "crashed"}


class TestFleetBenchQuick:
    def test_quick_fleet_bench_runs_and_verifies(self):
        """The quick fleet suite asserts per-lane bit-identity against the
        one-shot batch score matrix before any timing is reported."""
        from repro.runtime.bench import run_fleet_bench

        payload = run_fleet_bench(quick=True)
        assert payload["suite"] == "fleet"
        names = {e["name"] for e in payload["entries"]}
        assert names == {"fleet/1streams", "fleet/64streams", "fleet/1024streams"}
        for e in payload["entries"]:
            assert e["kind"] == "multiplex"
            assert e["windows"] == e["n_streams"] * e["ticks"]
            assert e["optimized_seconds"] > 0
            assert "bit-identical" in e["identity"]
            # The capped baseline is honest about extrapolating.
            assert e["baseline_extrapolated"] == (
                e["baseline_measured_windows"] < e["windows"]
            )
