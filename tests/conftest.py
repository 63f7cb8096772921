"""Shared fixtures: small, session-cached simulation traces.

Full scenario runs are the expensive part of this suite, so the fixtures
here are deliberately tiny (few nodes, short durations) and session-scoped;
tests that need bigger runs build their own.

The suite also redirects the runtime layer's persistent artifact cache
(``$REPRO_CACHE_DIR``) into a per-run temporary directory, so tests never
read or pollute the user's ``~/.cache/repro`` and every run starts cold.
"""

from __future__ import annotations

import os

import pytest

from repro.simulation.scenario import ScenarioConfig, SimulationTrace, run_scenario


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the default artifact cache at a throwaway directory."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("artifact-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


def small_config(**overrides) -> ScenarioConfig:
    """A fast scenario: 10 nodes, 200 s, light traffic."""
    defaults = dict(
        protocol="aodv",
        transport="udp",
        n_nodes=10,
        duration=200.0,
        max_connections=10,
        seed=42,
        traffic_seed=7,
        traffic_start_window=50.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


@pytest.fixture(scope="session")
def aodv_udp_trace() -> SimulationTrace:
    return run_scenario(small_config(protocol="aodv", transport="udp"))


@pytest.fixture(scope="session")
def dsr_udp_trace() -> SimulationTrace:
    return run_scenario(small_config(protocol="dsr", transport="udp"))


@pytest.fixture(scope="session")
def aodv_tcp_trace() -> SimulationTrace:
    return run_scenario(small_config(protocol="aodv", transport="tcp"))


@pytest.fixture(scope="session")
def dsr_tcp_trace() -> SimulationTrace:
    return run_scenario(small_config(protocol="dsr", transport="tcp"))
