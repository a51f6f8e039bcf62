"""The message lifecycle after a fault, driven branch by branch on both
engines.

``Network`` states once what happens to a stuck, dropped or healed
worm; the batched engine supplies only the data-path steps.  These
tests reach the two dead-letter exits of fast reroute that campaigns
never hit (every campaign dead letter comes from the source-retry
path): a stuck worm that has used up its local retries, and a healed
worm whose remainder cannot be re-offered at the detecting endpoint.
Each runs on both engines and must give the same dead letters, summary
and decision digest — and the absolute outcome is pinned too, since a
fault in the shared policy would move both engines alike.
"""

import pytest

from repro.routing import make_algorithm
from repro.sim import FaultSchedule, Mesh2D, Network, SimConfig
from repro.sim.batched import BatchedNetwork, batched_fallback_reason
from repro.sim.stats import DecisionDigest

pytestmark = pytest.mark.skipif(
    batched_fallback_reason() is not None,
    reason=f"batched engine unavailable: {batched_fallback_reason()}")

BACKUPS = SimConfig(fault_mode="harsh", backup_routes=True)


def _outcome(net, topo):
    return {
        "dead_letters": list(net.dead_letters),
        "summary": net.stats.summary(topo.n_nodes),
        "messages": {
            m.header.msg_id: (m.header.src, m.header.length, m.delivered,
                              m.dropped, dict(m.header.fields))
            for m in net.messages.values()},
    }


def _stuck_after_local_retries(engine_cls):
    """A worm already re-injected locally three times is declared
    stuck while its tail is still entering the network."""
    topo = Mesh2D(4, 2)
    net = engine_cls(topo, make_algorithm("nafta"), config=BACKUPS)
    net.stats.digest = DecisionDigest()
    stuck = net.offer(0, 7, 12, local_retries=3, root_id=41)
    net.offer(4, 3, 6)
    net.run(5)
    assert net.in_flight() > 0
    net.message_stuck(stuck.header.msg_id)
    net.run_until_drained(2000)
    assert net.in_flight() == 0
    return _outcome(net, topo)


def _heal_refused(engine_cls):
    """On a 4x1 line the dying link (1, 2) cuts the detecting endpoint
    off from the destination: the fragment past the break delivers,
    but the remainder's re-offer at node 1 is refused."""
    topo = Mesh2D(4, 1)
    net = engine_cls(topo, make_algorithm("nafta"), config=BACKUPS)
    net.stats.digest = DecisionDigest()
    sched = FaultSchedule()
    sched.add_link_fault(6, 1, 2)
    net.schedule_faults(sched)
    net.offer(0, 3, 12)
    net.run_until_drained(2000)
    return _outcome(net, topo)


def test_stuck_worm_past_the_local_retry_cap_is_dead_lettered():
    obj = _stuck_after_local_retries(Network)
    assert _stuck_after_local_retries(BatchedNetwork) == obj
    assert obj["dead_letters"] == [41]
    s = obj["summary"]
    assert (s["messages_stuck"], s["messages_dead_lettered"]) == (1, 1)
    assert s["reroute"]["worms_absorbed"] == 0
    assert s["messages_delivered"] == 1          # the bystander only
    src, _length, delivered, dropped, fields = obj["messages"][0]
    assert (src, delivered, dropped, fields["stuck"]) == (0, None, True,
                                                          True)
    assert set(obj["messages"]) == {0, 1}         # no re-injection
    assert "decision_digest" in s


def test_healed_worm_refused_at_the_endpoint_is_dead_lettered():
    obj = _heal_refused(Network)
    assert _heal_refused(BatchedNetwork) == obj
    assert obj["dead_letters"] == [0]
    s = obj["summary"]
    assert s["reroute"]["worms_healed"] == 1
    assert (s["messages_unroutable"], s["messages_dead_lettered"]) == (1, 1)
    assert set(obj["messages"]) == {0}            # no copy was created
    _src, length, delivered, dropped, _fields = obj["messages"][0]
    assert delivered is not None and not dropped  # the fragment arrived
    assert length == 12
    assert "decision_digest" in s
