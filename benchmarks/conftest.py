"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures.  The
simulation/fitting pipeline routes through one shared
:class:`repro.Session` (``RUNTIME``), which

* fans the independent traces of each condition out across worker
  processes (``$REPRO_JOBS`` overrides the default of one worker per
  core, capped at 8; results are seed-deterministic at any job count),
* persists every simulated trace in the on-disk artifact cache
  (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), so a *second* benchmark
  session starts warm and performs zero simulations, and
* memoises bundles/results in memory, so benchmarks that share a test
  condition — Figures 1-4 all use the same four scenarios — only pay for
  it once per session.

Scale note: the paper's traces are 10 000 s with ~50-node topologies on a
testbed of one; the benchmark plan below is scaled down (16 nodes, 600 s)
so the full suite finishes on one laptop CPU.  The reproduction targets
the *shapes* — who wins, what separates, where the orderings fall — not
the paper's absolute digits; `EXPERIMENTS.md` records both.

The timing modules (simulator/model scaling, fleet throughput,
attribution) record their rows as ``BENCH_<suite>.json`` payloads through
the helpers at the bottom: quick CI-scale workloads by default,
``REPRO_BENCH_FULL=1`` for the full workloads behind the committed files,
``REPRO_BENCH_WRITE=1`` to rewrite those files at the repo root.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.eval.experiments import ExperimentPlan, four_scenarios
from repro.runtime import Session


def _bench_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(8, os.cpu_count() or 1))


#: The one runtime session every benchmark shares: parallel trace
#: fan-out + the persistent artifact cache + in-memory memoisation.
RUNTIME = Session(jobs=_bench_jobs())

#: The scaled-down default test condition used by all figure benchmarks.
#: 1000 s / 20 nodes / 100 connections is the smallest scale at which the
#: paper's qualitative shapes reproduce robustly (shorter traces starve
#: the 900 s-window features that carry the persistent-damage signal).
BENCH_PLAN = ExperimentPlan(
    n_nodes=20,
    duration=1000.0,
    max_connections=100,
    train_seeds=(11, 12),
    calibration_seed=13,
    normal_seeds=(21, 22),
    attack_seeds=(31, 32),
    warmup=100.0,
)

#: The four paper scenarios (AODV/DSR x TCP/UDP) at benchmark scale.
SCENARIOS = four_scenarios(BENCH_PLAN)

CLASSIFIER_ORDER = ("c45", "ripper", "nbc")


@pytest.fixture(scope="session")
def bench_plan() -> ExperimentPlan:
    return BENCH_PLAN


@pytest.fixture(scope="session")
def runtime() -> Session:
    return RUNTIME


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def _switch(name: str) -> bool:
    return os.environ.get(name, "0") not in ("0", "false", "")


#: Quick CI-scale workloads unless ``REPRO_BENCH_FULL=1``.
QUICK = not _switch("REPRO_BENCH_FULL")

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_entry(name: str, baseline: float, optimized: float, **meta) -> dict:
    """One comparative record; speedup is baseline over optimized."""
    return {
        "name": name,
        "baseline_seconds": round(baseline, 4),
        "optimized_seconds": round(optimized, 4),
        "speedup": round(baseline / optimized, 2) if optimized > 0 else float("inf"),
        **meta,
    }


def bench_payload(suite: str, entries: list[dict], **meta) -> dict:
    """A suite's records plus the environment they were measured in."""
    return {
        "suite": suite,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "repro_version": repro.__version__,
        },
        "entries": entries,
        **meta,
    }


def write_bench(payload: dict, name: str) -> None:
    """Under ``REPRO_BENCH_WRITE=1``, rewrite ``BENCH_<name>.json`` as
    stable, diff-friendly JSON."""
    if _switch("REPRO_BENCH_WRITE"):
        with open(REPO_ROOT / f"BENCH_{name}.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
