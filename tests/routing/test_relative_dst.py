"""The ``native_relative_dst`` contract, checked exhaustively.

``NaftaRouting`` and ``RuleDrivenNafta`` declare that, while the fault
knowledge stands, a decision reads the destination only through its
class relative to the deciding node: (sign dx, sign dy), plus the
exact dy when dx == 0 — unless the destination is irregular (blocked).
The batched engine keys its decision cache on that class, so one
cached decision answers for every congruent destination.  Here every
(node, destination) pair of an 8x8 mesh is grouped by that folded key
under several fault sets, for injection and a fixed set of header
states, and every member of a group must decide identically.
"""

import pytest

from repro.routing.registry import make_algorithm
from repro.sim.faults import FaultSchedule
from repro.sim.flit import Header
from repro.sim.network import Network
from repro.sim.router import LOCAL
from repro.sim.topology import EAST, NORTH, SOUTH, WEST, Mesh2D

#: (in_port, header fields) the decisions are taken in: injection,
#: transit in either virtual network, committed terminal runs and
#: misrouted detours with a sticky search direction
STATES = (
    (LOCAL, {}),
    (LOCAL, {"vn": 1}),
    (WEST, {"vn": 0}),
    (EAST, {"vn": 1}),
    (SOUTH, {"vn": 1, "term": True}),
    (NORTH, {"vn": 0, "term": True}),
    (NORTH, {"vn": 1, "sdir": EAST, "misrouted": True}),
    (SOUTH, {"vn": 0, "sdir": WEST, "misrouted": True}),
    (EAST, {"vn": 0, "sdir": NORTH, "misrouted": True}),
)

#: fault sets on the 8x8 mesh: two node faults whose convex completion
#: deactivates two healthy nodes, two link faults, a mixed set
FAULT_SETS = {
    "deactivating-nodes": [((3, 3),), ((4, 4),)],
    "links": [((2, 5), (3, 5)), ((5, 1), (5, 2))],
    "mixed": [((6, 1),), ((1, 6), (2, 6)), ((0, 3), (0, 4))],
}


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _faulted(name: str, faults) -> Network:
    topo = Mesh2D(8, 8)
    net = Network(topo, make_algorithm(name))
    sched = FaultSchedule()
    for f in faults:
        if len(f) == 1:
            sched.add_node_fault(0, topo.node_at(*f[0]))
        else:
            sched.add_link_fault(0, topo.node_at(*f[0]), topo.node_at(*f[1]))
    net.schedule_faults(sched)
    return net


def fold(topo, irregular, node: int, dst: int):
    """The batched engine's dst slot (``dst_slot`` in the kernel)."""
    if dst in irregular:
        return dst
    (x, y), (dx, dy) = topo.coords(node), topo.coords(dst)
    if dx == x:
        return ("column", dy - y)
    return (_sign(dx - x), _sign(dy - y))


@pytest.mark.parametrize("fault_set", sorted(FAULT_SETS))
@pytest.mark.parametrize("name", ["nafta", "nafta_rules"])
def test_congruent_destinations_decide_alike(name, fault_set):
    net = _faulted(name, FAULT_SETS[fault_set])
    topo, algo = net.topology, net.algorithm
    contract = algo.native_contract(topo)
    assert contract.relative_dst
    irregular = set(contract.irregular_dsts())
    if fault_set == "deactivating-nodes":
        # the faulty pair plus the two healthy nodes it deactivates
        assert len(irregular) == 4
    groups: dict = {}
    for node in topo.nodes():
        if not net.known_faults.node_ok(node):
            continue
        router = net.routers[node]
        for dst in topo.nodes():
            key = fold(topo, irregular, node, dst)
            for i, (in_port, fields) in enumerate(STATES):
                header = Header(msg_id=0, src=node, dst=dst, length=4,
                                created=0)
                header.fields.update(fields)
                dec = algo.route(router, header, in_port, 0)
                outcome = (dec.deliver, dec.stuck, dec.steps,
                           dec.refresh_hint, dec.stored,
                           sorted(header.fields.items()))
                groups.setdefault((node, key, i), []).append(
                    (dst, outcome))
    shared = total = 0
    for (node, key, i), members in groups.items():
        first_dst, first = members[0]
        for dst, outcome in members[1:]:
            assert outcome == first, (
                f"{name}/{fault_set}: node {topo.coords(node)} state "
                f"{STATES[i]}: dst {topo.coords(first_dst)} -> {first} "
                f"but congruent dst {topo.coords(dst)} -> {outcome}")
        total += len(members)
        shared += len(members) if len(members) > 1 else 0
    # not vacuous: most decisions share their key with another
    # destination's
    assert shared > total * 3 // 4
