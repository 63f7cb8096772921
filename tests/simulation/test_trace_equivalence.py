"""End-to-end trace equivalence: fast-pathed kernel vs naive reference.

The PR's hard constraint: the fast-pathed kernel must produce traces that
are *byte-identical* to the pre-optimization reference — every packet
event, every sampling tick, every RNG-dependent jitter.  Three kill
switches gate the fast paths independently:

* ``REPRO_SPATIAL_INDEX`` — grid neighbor index vs naive O(N) scan;
* ``REPRO_EVENT_BATCH`` — macro-event delivery fan-out + bucketed
  scheduling + packet pooling vs per-receiver heap scheduling;
* ``REPRO_ROUTING_FAST`` — flattened hot routing handlers + per-origin
  duplicate-RREQ seen structures vs the reference handler bodies.

Each test runs the same seeded scenario under the pure reference mode
(all switches off) and the fully optimized mode (all on) and compares
the complete serialized trace via the shared
:func:`~repro.simulation.scenario.trace_fingerprint` digest — the same
digest the benchmark harness asserts in-run.  The 30-node matrix
additionally runs every mixed mode (all 2^3 = 8 switch combinations) so
each switch is validated in isolation *and* against every interaction
with the other two.  Note the spatial index resolves its env default to
the naive scan below ``SMALL_N_CUTOFF`` (48) nodes — at 30 nodes the mode
matrix drives the macro fan-out through the batched pre-classification
path, the bucketed run loop, the flattened handlers and the
default-resolution plumbing, while the 64- and 100-node tests are the
ones that actually drive the grid index.
"""

import pytest

from repro.attacks import BlackholeAttack, DropMode, PacketDroppingAttack
from repro.simulation.scenario import (
    ScenarioConfig,
    run_scenario,
    trace_fingerprint,
)

#: Mode tuples: (REPRO_SPATIAL_INDEX, REPRO_EVENT_BATCH, REPRO_ROUTING_FAST).
REFERENCE = ("0", "0", "0")
OPTIMIZED = ("1", "1", "1")
#: Every combination with at least one switch flipped either way — with
#: REFERENCE and OPTIMIZED this is the full 8-mode matrix.
MIXED = tuple(
    (index, batch, routing)
    for index in ("0", "1")
    for batch in ("0", "1")
    for routing in ("0", "1")
    if (index, batch, routing) not in (REFERENCE, OPTIMIZED)
)


def run_modes(config, attacks, monkeypatch, modes):
    traces = []
    for index, batch, routing in modes:
        monkeypatch.setenv("REPRO_SPATIAL_INDEX", index)
        monkeypatch.setenv("REPRO_EVENT_BATCH", batch)
        monkeypatch.setenv("REPRO_ROUTING_FAST", routing)
        traces.append(run_scenario(config, attacks))
    return traces


def assert_equivalent(reference, other):
    # Counters first: a cheap mismatch gives a readable failure before
    # the byte-level comparison.
    assert reference.recorder.total_packets() == other.recorder.total_packets()
    assert reference.data_originated == other.data_originated
    assert reference.data_delivered == other.data_delivered
    assert reference.tick_times == other.tick_times
    assert trace_fingerprint(reference) == trace_fingerprint(other)


def make_attacks(kind: str, n_nodes: int, duration: float):
    if kind == "none":
        return []
    attacker = n_nodes - 1
    sessions = [(0.3 * duration, 0.6 * duration)]
    if kind == "blackhole":
        return [BlackholeAttack(attacker=attacker, sessions=sessions)]
    return [
        PacketDroppingAttack(
            attacker=attacker, sessions=sessions, mode=DropMode.CONSTANT
        )
    ]


@pytest.mark.parametrize("protocol", ["aodv", "dsr", "olsr"])
@pytest.mark.parametrize("attack", ["none", "blackhole"])
def test_30_node_trace_equivalence(protocol, attack, monkeypatch):
    """30-node scenarios: every kill-switch combination (8 modes) agrees."""
    config = ScenarioConfig(
        protocol=protocol, n_nodes=30, duration=60.0, max_connections=20, seed=11
    )
    attacks = make_attacks(attack, 30, 60.0)
    reference, optimized, *mixed = run_modes(
        config, attacks, monkeypatch, (REFERENCE, OPTIMIZED, *MIXED)
    )
    assert_equivalent(reference, optimized)
    for trace in mixed:
        assert_equivalent(reference, trace)
    # The scenarios must actually exercise the medium.
    assert optimized.recorder.total_packets() > 0


@pytest.mark.parametrize(
    "protocol,attack",
    [("aodv", "dropping"), ("dsr", "blackhole"), ("olsr", "dropping")],
)
def test_100_node_trace_equivalence(protocol, attack, monkeypatch):
    """100-node scenarios: the scale where the grid actually prunes.

    DSR runs promiscuous taps, exercising the skipped-bystander-sweep
    fast path; the dropping attack exercises unicast failure feedback;
    OLSR covers the proactive (TC/HELLO-flood) control plane that the
    reactive-protocol rows never touch.  Lossy variants of these run in
    ``test_medium.py``; here the macro batches are full-size (no loss
    culling).  Beyond the full-off/full-on pair, the routing-fast-only
    mode pins the flattened handlers against the reference kernel at a
    scale where the duplicate-RREQ pre-classification dominates.
    """
    config = ScenarioConfig(
        protocol=protocol, n_nodes=100, duration=12.0, max_connections=30, seed=23
    )
    attacks = make_attacks(attack, 100, 12.0)
    reference, optimized, routing_only = run_modes(
        config, attacks, monkeypatch, (REFERENCE, OPTIMIZED, ("0", "0", "1"))
    )
    assert_equivalent(reference, optimized)
    assert_equivalent(reference, routing_only)


def test_lossy_medium_equivalence(monkeypatch):
    """Packet loss culls macro-batch entries mid-draw; RNG order must hold.

    64 nodes: above ``SMALL_N_CUTOFF``, so the lossy macro fan-out runs
    over grid-index neighbour lists.
    """
    config = ScenarioConfig(
        protocol="aodv", n_nodes=64, duration=30.0, max_connections=20,
        loss_rate=0.15, seed=47,
    )
    reference, optimized = run_modes(
        config, [], monkeypatch, (REFERENCE, OPTIMIZED)
    )
    assert_equivalent(reference, optimized)


def test_tcp_transport_equivalence(monkeypatch):
    """TCP feedback loops amplify any RNG drift; keep them covered."""
    config = ScenarioConfig(
        protocol="dsr", transport="tcp", n_nodes=25, duration=50.0,
        max_connections=15, seed=31,
    )
    reference, optimized = run_modes(config, [], monkeypatch, (REFERENCE, OPTIMIZED))
    assert_equivalent(reference, optimized)
