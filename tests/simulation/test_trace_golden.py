"""Golden trace digests for a seeded corpus from 20 to 100 nodes.

Each case runs one seeded scenario and compares a digest of its complete
trace with a pinned value, so any behaviour change in the simulator —
event kernel ordering, medium fan-out, spatial index, routing handlers,
mobility, traffic — fails here first.

The corpus:

* 20 nodes, 60 s (the paper's evaluation condition): AODV, DSR and OLSR
  with no attack and with a black hole, one lossy AODV run and one
  DSR/TCP run;
* 30 nodes, 60 s: AODV, DSR and OLSR with no attack and with a black
  hole;
* 100 nodes, 12 s (the grid index, the batched fan-out at full size and
  the flattened routing handlers): AODV under packet dropping, DSR under
  a black hole (promiscuous taps) and OLSR under packet dropping;
* a lossy 64-node AODV run (loss culls batch entries mid-draw, over grid
  neighbour lists) and a 25-node DSR/TCP run (TCP feedback amplifies any
  RNG drift).

Each case also pins the kernel's event counts after the run:
``processed_events`` (every delivery of a batch counts once) and
``pending_events`` (events still queued past the end, a parked delivery
batch counting as one entry).  They are read through a session-less
:class:`ProbeAttack`, which keeps the run's :class:`Simulator` and leaves
the trace unchanged, and they catch a kernel that keeps the order but
drops, duplicates or double-counts events.

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
regenerate the digests and counts by printing ``portable_digest(trace)``,
``sim.processed_events`` and ``sim.pending_events`` of ``trace, sim =
run(case)`` for each case and say why in the change's notes.
"""

import hashlib
import pickle

import pytest

from repro.attacks import Attack, BlackholeAttack, DropMode, PacketDroppingAttack
from repro.simulation.engine import Simulator
from repro.simulation.scenario import ScenarioConfig, SimulationTrace, run_scenario

#: 20 nodes: the paper's evaluation condition.
PAPER = dict(n_nodes=20, duration=60.0, max_connections=20, seed=7)
#: 30 nodes: a denser flood fan-out.
MID = dict(n_nodes=30, duration=60.0, max_connections=20, seed=11)
#: 100 nodes: the scale where the grid index actually prunes.
LARGE = dict(n_nodes=100, duration=12.0, max_connections=30, seed=23)

#: case -> (ScenarioConfig fields, attack, portable digest of the trace).
GOLDEN = {
    "aodv-none": (
        dict(PAPER, protocol="aodv"), "none",
        "d8a2d8dc6a2c89ce34b977433eb715ebacb41003703be744a03286f6c42fc24f",
    ),
    "aodv-blackhole": (
        dict(PAPER, protocol="aodv"), "blackhole",
        "d953d5e1625ef7a6554bad62ed9269edc174224124162215593c15d777291668",
    ),
    "dsr-none": (
        dict(PAPER, protocol="dsr"), "none",
        "2d0fe7d86f1ae51ac6a068d7568ad8425aea78a9214a57837cf559e4ba3511bb",
    ),
    "dsr-blackhole": (
        dict(PAPER, protocol="dsr"), "blackhole",
        "0b846a3e31e49133c519d8f595ac2f2a6062be1c268c3265e22d9dd1f8889d2f",
    ),
    "olsr-none": (
        dict(PAPER, protocol="olsr"), "none",
        "5a1dddea1749cfd8fe72a1b55d1c7b3c362420f9f0597576ba37bf40124a2c51",
    ),
    "olsr-blackhole": (
        dict(PAPER, protocol="olsr"), "blackhole",
        "0472081de71ab1c8d2dddd80f16eb26256606c52445984abb7fd19a064514cee",
    ),
    "aodv-lossy": (
        dict(PAPER, protocol="aodv", loss_rate=0.15), "none",
        "17c02acf45e548794b3c079755d338f200d249951f1a16e770e43a1ae9c3c12b",
    ),
    "dsr-tcp": (
        dict(PAPER, protocol="dsr", transport="tcp"), "none",
        "494a4b587707f1309f843aff11cb4124e5d0bf498deada7d0b52cda3244cb81e",
    ),
    "aodv-30-none": (
        dict(MID, protocol="aodv"), "none",
        "a919049a7030e5d51ee69ad2c358b12a72b316871fe890e3c3de92c96d05e895",
    ),
    "aodv-30-blackhole": (
        dict(MID, protocol="aodv"), "blackhole",
        "79110dde012b1e0a89216f344b1258b404a0fc11cd4d404b102d019129b6cca4",
    ),
    "dsr-30-none": (
        dict(MID, protocol="dsr"), "none",
        "535da81866c03986cc34c5fa292deb5661539834d0af26fb1df1d1fd17c8f8fa",
    ),
    "dsr-30-blackhole": (
        dict(MID, protocol="dsr"), "blackhole",
        "15de7fc4785484a1a0b4fbe211903afce97563686d828b7f29d20efffc93a1c6",
    ),
    "olsr-30-none": (
        dict(MID, protocol="olsr"), "none",
        "2e73cffec680baff214c19297d5c52440b3420a7c2af6873a71e58ce7b608255",
    ),
    "olsr-30-blackhole": (
        dict(MID, protocol="olsr"), "blackhole",
        "4dd9ee54c6771cfcc2ea350c06ac48e6160b5e1cb6d05e987ca2ea06ed8a4a3d",
    ),
    "aodv-100-dropping": (
        dict(LARGE, protocol="aodv"), "dropping",
        "077690f16539be660c21ab1e799d0c7c710c83693f183482dcdc63693199b81f",
    ),
    "dsr-100-blackhole": (
        dict(LARGE, protocol="dsr"), "blackhole",
        "98dec6723248bd6f9bb9b0019ae9d482b7fb86a40d3161463164943cdbb455ab",
    ),
    "olsr-100-dropping": (
        dict(LARGE, protocol="olsr"), "dropping",
        "a39198ca9463b8fac7040ff1f383c03bc28c1945d2ff8517599c5721e0df1d1d",
    ),
    "aodv-64-lossy": (
        dict(protocol="aodv", n_nodes=64, duration=30.0, max_connections=20,
             loss_rate=0.15, seed=47),
        "none",
        "8ef9d90f5094a2811ca2b011daf9da8746d60c3c8ed32428c26dc27a32436de4",
    ),
    "dsr-25-tcp": (
        dict(protocol="dsr", transport="tcp", n_nodes=25, duration=50.0,
             max_connections=15, seed=31),
        "none",
        "e1429d6449d87972404c9344e20e568171a6390d75ad14edd83aef3347d629fd",
    ),
}

#: case -> (processed_events, pending_events) after the run.
KERNEL_COUNTS = {
    "aodv-none": (25134, 61),
    "aodv-blackhole": (127120, 75),
    "aodv-lossy": (31305, 65),
    "aodv-30-none": (42431, 85),
    "aodv-30-blackhole": (244432, 93),
    "aodv-64-lossy": (113386, 171),
    "aodv-100-dropping": (105527, 234),
    "dsr-none": (12038, 40),
    "dsr-blackhole": (17189, 41),
    "dsr-tcp": (72351, 48),
    "dsr-25-tcp": (49734, 53),
    "dsr-30-none": (21898, 51),
    "dsr-30-blackhole": (44641, 52),
    "dsr-100-blackhole": (239188, 133),
    "olsr-none": (15795, 80),
    "olsr-blackhole": (18078, 80),
    "olsr-30-none": (28618, 110),
    "olsr-30-blackhole": (37846, 110),
    "olsr-100-dropping": (75665, 330),
}


class ProbeAttack(Attack):
    """An attack with no sessions: it only keeps the :class:`Simulator`.

    ``run_scenario`` installs every attack before the run, so afterwards
    ``probe.sim`` is the kernel that ran it.  With no sessions it
    schedules nothing and leaves the trace unchanged.
    """

    def __init__(self):
        super().__init__(attacker=0, sessions=())

    def activate(self) -> None:  # pragma: no cover - no sessions
        pass

    def deactivate(self) -> None:  # pragma: no cover - no sessions
        pass


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


def make_attacks(kind: str, n_nodes: int, duration: float) -> list:
    """The last node attacks from 30 % to 60 % of the run."""
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


def run(case: str) -> tuple[SimulationTrace, Simulator]:
    """Run one golden case; return its trace and the kernel that ran it."""
    fields, attack, _ = GOLDEN[case]
    config = ScenarioConfig(**fields)
    probe = ProbeAttack()
    attacks = make_attacks(attack, config.n_nodes, config.duration)
    return run_scenario(config, [*attacks, probe]), probe.sim


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_digest_is_pinned(case):
    trace, sim = run(case)
    # The run must exercise the medium and the traffic layer.
    assert trace.recorder.total_packets() > 0
    assert trace.data_delivered > 0
    observed = (portable_digest(trace), sim.processed_events, sim.pending_events)
    assert observed == (GOLDEN[case][2], *KERNEL_COUNTS[case])
