"""Property test: the shipped routing handlers match the reference bodies.

Hypothesis drives randomized RREQ flood fan-outs — arbitrary static
topologies, forged origins, duplicate-heavy request ids, short TTLs —
through two stacks on the same kernel and medium:

* **shipped** — :class:`AodvProtocol` / :class:`DsrProtocol`: the typed
  fan-out rows call the flattened per-type handlers (per-origin seen
  structures + pre-classified duplicate discards);
* **reference** — the tests-only subclasses in
  ``tests/routing/reference.py``: every delivery goes through
  ``handle_packet`` to the plain handler bodies and the tuple-keyed seen
  dict.

After the floods (and the protocols' own background HELLO traffic) play
out, the two stacks must agree on

1. **seen-state** — every ``(origin, rreq_id)`` membership answer and the
   total seen count on every node;
2. **stats counters** — the complete per-node packet/route event streams,
   timestamp for timestamp (not just the counts);
3. **rebroadcast order** — the globally merged RREQ ``FORWARDED``
   schedule.  Identical timestamps imply identical order: every
   delivery jitter is drawn from the shared simulator RNG in dispatch
   order, so any reordering would shift every draw after it.

This is the micro-scale complement of the golden scenario digests in
``tests/simulation/test_trace_golden.py``: instead of a handful of seeded
scenarios it samples the space of flood patterns directly, and shrinks to
a minimal counterexample on failure.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.aodv import AodvProtocol
from repro.routing.dsr import DsrProtocol
from repro.simulation.engine import Simulator
from repro.simulation.medium import WirelessMedium
from repro.simulation.mobility import StaticMobility
from repro.simulation.node import Node
from repro.simulation.packet import BROADCAST, Direction, Packet, PacketType
from repro.simulation.stats import TraceRecorder
from tests.routing.reference import ReferenceAodv, ReferenceDsr

MAX_NODES = 6
#: Flood ids are drawn tiny on purpose: most generated fan-outs contain
#: duplicates, which is exactly the path the pre-classifier optimizes.
RREQ_IDS = st.integers(min_value=0, max_value=3)
NODE_IDS = st.integers(min_value=0, max_value=MAX_NODES - 1)

positions = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
    ),
    min_size=3,
    max_size=MAX_NODES,
)

#: One injected flood copy: (sender, forged origin, rreq id, target,
#: ttl, injection delay).  Origins are *not* tied to the sender — forged
#: floods (the impersonation lever) must take the same path either way.
floods = st.lists(
    st.tuples(
        NODE_IDS,
        NODE_IDS,
        RREQ_IDS,
        NODE_IDS,
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


#: protocol -> (shipped class, reference class).
STACKS = {
    "aodv": (AodvProtocol, ReferenceAodv),
    "dsr": (DsrProtocol, ReferenceDsr),
}


def _build(protocol, places, reference):
    """One full stack with the shipped or the reference protocol."""
    sim = Simulator(seed=7)
    mobility = StaticMobility(list(places))
    medium = WirelessMedium(sim, mobility, tx_range=250.0)
    recorder = TraceRecorder(len(places))
    nodes = [Node(i, sim, medium, recorder[i]) for i in range(len(places))]
    cls = STACKS[protocol][reference]
    protocols = [cls(node) for node in nodes]
    return sim, nodes, protocols, recorder


def _make_rreq(protocol, origin, rreq_id, target, ttl):
    if protocol == "aodv":
        info = {
            "rreq_id": rreq_id,
            "origin_seq": 1,
            "target": target,
            "target_seq": 0,
        }
    else:
        info = {"rreq_id": rreq_id, "target": target, "route": [origin]}
    return Packet(
        ptype=PacketType.RREQ, origin=origin, dest=BROADCAST,
        size=48, ttl=ttl, info=info,
    )


def _run_floods(protocol, places, plan, reference):
    sim, nodes, protocols, recorder = _build(protocol, places, reference)
    for sender, origin, rreq_id, target, ttl, delay in plan:
        packet = _make_rreq(protocol, origin, rreq_id, target, ttl)
        sim.schedule(delay, nodes[sender].broadcast, packet)
    sim.run(until=6.0)
    return protocols, recorder


@pytest.mark.parametrize("protocol", ["aodv", "dsr"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(places=positions, plan=floods)
def test_randomized_rreq_fanouts_equivalent(protocol, places, plan):
    n = len(places)
    plan = [
        (s % n, o % n, r, t % n, ttl, delay)
        for s, o, r, t, ttl, delay in plan
    ]
    fast_protos, fast_rec = _run_floods(protocol, places, plan, reference=False)
    ref_protos, ref_rec = _run_floods(protocol, places, plan, reference=True)

    for i in range(n):
        fast, ref = fast_protos[i], ref_protos[i]
        # (1) seen-state: membership answers and totals agree on every
        # node for the whole generated (origin, rreq_id) universe.
        assert fast._seen_size() == ref._seen_size(), f"node {i}"
        for origin in range(n):
            for rreq_id in range(4):
                assert fast._seen_has(origin, rreq_id) == \
                    ref._seen_has(origin, rreq_id), (i, origin, rreq_id)
        # (2) stats: the complete event streams, timestamp for timestamp.
        assert fast_rec[i].packet_times == ref_rec[i].packet_times, f"node {i}"
        assert fast_rec[i].route_times == ref_rec[i].route_times, f"node {i}"

    # (3) rebroadcast order: merge every node's RREQ FORWARDED stream
    # into one global (time, node) schedule and compare.
    def schedule(recorder):
        merged = []
        for i in range(n):
            merged.extend(
                (t, i)
                for t in recorder[i].packet_times[
                    (PacketType.RREQ, Direction.FORWARDED)
                ]
            )
        return sorted(merged)

    assert schedule(fast_rec) == schedule(ref_rec)
