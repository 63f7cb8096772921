"""Tests of the benchmark itself (``python -m pytest bench -q``).

The workloads run with tiny test-only configurations passed to
:func:`bench.run.run_once`, so the whole file takes seconds; the real
configurations are exercised by ``python -m bench.run``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from bench.compare import compare
from bench.run import ROOT, SPEC_PATH, SRC, check_digests, load_spec, measure, run_once
from bench.sampler import BUCKETS, Sampler
from bench.speed import REFERENCE_PROBE_S, SpeedProbe
from bench.workloads import (
    OpResult,
    PaperConfig,
    ScaleConfig,
    Scale200,
    StreamConfig,
)
from repro import ScenarioConfig, run_scenario

TINY = {
    "paper-aodv": PaperConfig(n_nodes=6, duration=40.0, connections=4, warmup=5.0),
    "scale-200": ScaleConfig(n_nodes=50, duration=5.0, connections=4),
    "stream-replay": StreamConfig(n_nodes=6, duration=150.0, connections=4,
                                  warmup=20.0, monitors=(0, 1)),
    "fleet-batch": StreamConfig(n_nodes=6, duration=150.0, connections=4, warmup=20.0),
}
#: Exact per-layer values: everything but the sampler's own readings.
EXACT = re.compile(r"^(count|ratio)\.(?!samples$|sampler_overhead_pct$)")


def tiny_run(name, tmp_path, trace=False, golden=None):
    return run_once(name, 0, 0.001, trace, config=TINY[name], golden=golden,
                    cache_dir=tmp_path / "cache")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One untraced and two traced tiny runs of every workload."""
    tmp = tmp_path_factory.mktemp("bench")
    return {
        name: (tiny_run(name, tmp), tiny_run(name, tmp, True), tiny_run(name, tmp, True))
        for name in TINY
    }


def test_spec_is_well_formed():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench/"]
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    baseline = json.loads((ROOT / "bench" / "baseline.json").read_text())
    for workload in baseline["workloads"].values():
        assert all(workload[name]["spread"] <= b for name, b in bounds.items())
    assert len(spec["per_layer"]) <= 128


def test_emitted_metric_names_match_the_spec(records):
    spec = load_spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert {f"self_pct.{b}" for b in BUCKETS} <= set(layers)
    for name, (plain, traced, _) in records.items():
        assert plain["correct"] and traced["correct"], (name, plain["problems"], traced["problems"])
        assert list(plain["metrics"]) == e2e, name
        assert list(traced["metrics"]) == layers, name
        assert all(plain["metrics"][m]["value"] > 0 for m in e2e), name


def test_counts_are_identical_across_two_runs(records):
    for name, (_, first, second) in records.items():
        a = {k: v["value"] for k, v in first["metrics"].items() if EXACT.match(k)}
        b = {k: v["value"] for k, v in second["metrics"].items() if EXACT.match(k)}
        assert a == b, name
        assert first["digests"] == second["digests"], name
        assert a["count.trace_events"] > 0, name


def test_stream_and_fleet_agree_with_batch_scores(records):
    stream_digests = records["stream-replay"][0]["digests"]
    fleet_digests = records["fleet-batch"][0]["digests"]
    assert stream_digests["m0.scores"] == fleet_digests["n0.scores"]


class _Stub:
    """A workload whose second op raises."""

    def op(self, k, record):
        if k == 1:
            raise RuntimeError("boom")
        t0 = time.perf_counter()
        time.sleep(0.005)
        record(t0, time.perf_counter())
        return OpResult(1)

    def verify(self, result):
        return []

    def digests(self, result):
        return {}


def test_a_raising_op_is_counted_not_propagated():
    m = measure(_Stub(), seconds=0.03)
    assert m.failed == 1
    assert m.ops == len(m.latencies) >= 3
    assert m.problems == ["op 1 failed: RuntimeError('boom')"]


def _records(failed: int, rate: float) -> list[dict]:
    metrics = {m["name"]: {"value": rate if m["better"] == "higher" else 1 / rate}
               for m in load_spec()["end_to_end"]}
    return [{"workload": "scale-200", "seed": s, "trace": 0, "attempted": 100,
             "failed": failed, "metrics": metrics, "tail_ms": {"p90": 1, "p95": 1, "p99": 1}}
            for s in range(10)]


def test_more_failures_regress_and_block_improved(capsys):
    parent = _records(failed=0, rate=1.0)
    assert compare(parent, _records(failed=0, rate=2.0), load_spec()) == 0
    assert "improved" in capsys.readouterr().out
    assert compare(parent, _records(failed=1, rate=2.0), load_spec()) == 1
    out = capsys.readouterr().out
    assert "improved" not in out
    assert "A 0 / 1000  B 10 / 1000  regressed" in out


def test_a_tampered_digest_fails_the_run(tmp_path):
    honest = tiny_run("scale-200", tmp_path)
    pinned = dict(honest["digests"])
    assert tiny_run("scale-200", tmp_path, golden=pinned)["correct"]
    tampered = dict(pinned, **{"s1.aodv": "0" * 16})
    record = tiny_run("scale-200", tmp_path, golden=tampered)
    assert not record["correct"]
    assert any(p.startswith("s1.aodv") for p in record["problems"])


def test_the_reference_op_must_be_pinned():
    assert check_digests({"a": 1}, {}, required=True) == ["a: no pinned value"]
    assert check_digests({"a": 1}, {}, required=False) == []
    assert check_digests({"a": 1}, None, required=True) == []


def test_the_sampler_charges_repro_modules():
    sampler = Sampler(SRC / "repro")
    with sampler:
        run_scenario(ScenarioConfig(n_nodes=50, duration=10.0, max_connections=4, seed=3))
    shares = sampler.shares()
    assert sampler.samples > 0
    assert set(shares) == set(BUCKETS)
    simulator = sum(v for k, v in shares.items() if k.startswith(("simulation.", "routing.")))
    assert simulator > 50.0
    assert sampler._bucket(str(SRC / "repro" / "simulation" / "engine.py")) == "simulation.engine"
    assert sampler._bucket(str(SRC / "repro" / "eval" / "report.py")) == "repro_other"
    assert sampler._bucket(json.__file__) is None


def test_normalize_charges_each_interval_at_the_probed_speed():
    probe = SpeedProbe()
    with pytest.raises(ValueError):
        probe.normalize(0.0, 1.0)
    for i in range(40):  # a probe every 50 ms; the host halves its speed at t = 1 s
        t = i * 0.05
        probe.starts.append(t)
        probe.ends.append(t + 0.001)
        probe.durations.append(REFERENCE_PROBE_S * (2.0 if t >= 1.0 else 1.0))
    fast, slow, across = probe.normalize([0.31, 1.51, 0.91], [0.34, 1.54, 1.11])
    assert fast == pytest.approx(0.03)
    assert slow == pytest.approx(0.015)
    # 4 probes inside (4 ms) come off; 2 of the 6 probes around run at full speed.
    assert across == pytest.approx((0.2 - 0.004) * (2 + 4 * 0.5) / 6)


def test_the_speed_probe_runs_while_entered():
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    count = len(probe.starts)
    assert count >= 3
    assert all(d > 0 for d in probe.durations)
    time.sleep(0.1)
    assert len(probe.starts) == count


def test_the_seed_rotates_the_scale_deck():
    assert Scale200(TINY["scale-200"], seed=0).deck() == (1, 2, 3)
    assert Scale200(TINY["scale-200"], seed=2).deck() == (3, 1, 2)


def test_run_fails_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and bench/ exits non-zero, silently."""
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".cache"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "scale-200",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
