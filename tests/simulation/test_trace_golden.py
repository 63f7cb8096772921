"""Golden trace digests for a seeded corpus below the spatial-index cutoff.

The trace-equivalence suite compares kernel modes with *each other*, so a
change to code every mode shares — mobility's ``position()`` and
``advance_all``, the medium's unicast taps, the event kernel's ordering —
would move all modes together and pass it.  This file pins a digest of
each run instead, so any behaviour change in the simulator fails here
first.

The corpus is 20 nodes (the paper's evaluation condition, below
``SMALL_N_CUTOFF``: the naive neighbour scan), 60 s of simulated time
each: AODV, DSR and OLSR with no attack and with a black hole, one lossy
AODV run and one DSR/TCP run.

The digest covers what :func:`~repro.simulation.scenario.trace_fingerprint`
covers, but not its bytes: that function pickles the recorder's dicts
keyed by ``IntEnum`` members, and how an enum member pickles differs
between Python releases (by name in early 3.11 releases such as 3.11.2,
by value in 3.10, later 3.11 releases and 3.12).
:func:`portable_digest` turns every key into an ``int`` and pickles only
ints, floats, lists and tuples with protocol 4; rebuilding each pinned
payload from its ``repr`` gives the same bytes under CPython 3.10, 3.11,
3.12 and 3.13.  The trace itself comes from ``random.Random`` draws,
``math.hypot`` and IEEE-754 float arithmetic; the digests were generated
by simulating under CPython 3.11.  After a deliberate behaviour change,
regenerate the digests by printing ``portable_digest(run(case))`` for
each case and say why in the change's notes.
"""

import hashlib
import pickle

import pytest

from repro.attacks import BlackholeAttack
from repro.simulation.scenario import ScenarioConfig, SimulationTrace, run_scenario

N_NODES = 20
DURATION = 60.0

#: case -> (scenario overrides, black hole?, portable digest of the trace).
GOLDEN = {
    "aodv-none": (
        dict(protocol="aodv"), False,
        "d8a2d8dc6a2c89ce34b977433eb715ebacb41003703be744a03286f6c42fc24f",
    ),
    "aodv-blackhole": (
        dict(protocol="aodv"), True,
        "d953d5e1625ef7a6554bad62ed9269edc174224124162215593c15d777291668",
    ),
    "dsr-none": (
        dict(protocol="dsr"), False,
        "2d0fe7d86f1ae51ac6a068d7568ad8425aea78a9214a57837cf559e4ba3511bb",
    ),
    "dsr-blackhole": (
        dict(protocol="dsr"), True,
        "0b846a3e31e49133c519d8f595ac2f2a6062be1c268c3265e22d9dd1f8889d2f",
    ),
    "olsr-none": (
        dict(protocol="olsr"), False,
        "5a1dddea1749cfd8fe72a1b55d1c7b3c362420f9f0597576ba37bf40124a2c51",
    ),
    "olsr-blackhole": (
        dict(protocol="olsr"), True,
        "0472081de71ab1c8d2dddd80f16eb26256606c52445984abb7fd19a064514cee",
    ),
    "aodv-lossy": (
        dict(protocol="aodv", loss_rate=0.15), False,
        "17c02acf45e548794b3c079755d338f200d249951f1a16e770e43a1ae9c3c12b",
    ),
    "dsr-tcp": (
        dict(protocol="dsr", transport="tcp"), False,
        "494a4b587707f1309f843aff11cb4124e5d0bf498deada7d0b52cda3244cb81e",
    ),
}


def portable_digest(trace: SimulationTrace) -> str:
    """sha256 of the trace's content in builtin types, independent of the Python version."""
    nodes = [
        (
            [(int(p), int(d), times) for (p, d), times in node.packet_times.items()],
            [(int(kind), times) for kind, times in node.route_times.items()],
            node.route_length_samples,
        )
        for node in trace.recorder.nodes
    ]
    payload = (
        nodes,
        trace.tick_times,
        trace.speeds,
        trace.attack_intervals,
        trace.data_originated,
        trace.data_delivered,
    )
    return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()


def run(case: str) -> SimulationTrace:
    overrides, blackhole, _ = GOLDEN[case]
    config = ScenarioConfig(
        n_nodes=N_NODES, duration=DURATION, max_connections=20, seed=7, **overrides
    )
    attacks = (
        [BlackholeAttack(attacker=N_NODES - 1, sessions=[(18.0, 36.0)])]
        if blackhole
        else []
    )
    return run_scenario(config, attacks)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_digest_is_pinned(case):
    trace = run(case)
    # The run must exercise the medium and the traffic layer.
    assert trace.recorder.total_packets() > 0
    assert trace.data_delivered > 0
    assert portable_digest(trace) == GOLDEN[case][2]
