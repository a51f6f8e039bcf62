"""Active-router scheduling is a pure iteration-order optimization: the
network only visits routers that hold flits (plus sources with pending
worms), in the same ascending node order a full scan of every router
would use.  Every observable — stats summary and each message's full
lifecycle — must be bit-identical to the full scan, including across
fault events in both fault modes.

The full scan itself is gone; the pinned digests below were recorded
while both schedules still existed and agreed bit-for-bit, so a match
here is the same check against the same reference.
"""

import hashlib
import json

import pytest

from repro.routing.registry import make_algorithm
from repro.sim.config import SimConfig
from repro.sim.faults import FaultSchedule
from repro.sim.network import Network
from repro.sim.topology import Hypercube, Mesh2D
from repro.sim.traffic import TrafficGenerator


def _run(algo_name, topo_factory, faulty=False, harsh=False, cycles=600):
    topo = topo_factory()
    algo = make_algorithm(algo_name)
    kw = dict(fault_mode="harsh", detection_delay=5) if harsh else {}
    net = Network(topo, algo, config=SimConfig(**kw))
    if faulty:
        fs = FaultSchedule()
        fs.add_link_fault(200, 5, 11)
        fs.add_node_fault(350, 27)
        net.schedule_faults(fs)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.25,
                                        message_length=6, seed=7))
    for _ in range(cycles):
        net.step()
    messages = [(m.header.src, m.header.dst, m.header.created,
                 m.injected, m.delivered, m.dropped, m.header.path_len)
                for m in net.messages.values()]
    return net.stats.summary(topo.n_nodes), messages


def _digest(summary, messages) -> str:
    blob = json.dumps([summary, messages], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: (algorithm, topology, faulty, harsh, sha256 of (summary, lifecycle));
#: fault-free NAFTA collapses onto NARA, so their digests coincide
SCENARIOS = [
    ("xy", lambda: Mesh2D(6, 6), False, False,
     "f11fcfe08abfc314ffe3ab5ac94796cccee562e26977a14288e19a61cf3ab620"),
    ("nara", lambda: Mesh2D(6, 6), False, False,
     "b1c38cdf9722d578bc02646e905beca5cb50f9bc6f442aa51917b25fd8558d5e"),
    ("nafta", lambda: Mesh2D(6, 6), False, False,
     "b1c38cdf9722d578bc02646e905beca5cb50f9bc6f442aa51917b25fd8558d5e"),
    ("ecube", lambda: Hypercube(5), False, False,
     "f91a3c9b980b67339d994aef03678a7e6f381367f725d1253a36ef398ae276f5"),
    ("spanning_tree", lambda: Mesh2D(6, 6), True, False,
     "d6b28214c00b2e0ff9f3c750e471447287447dac3c1ffcdf86a9af30cab0ce38"),
    ("nafta", lambda: Mesh2D(6, 6), True, False,
     "d306451c5cc1f590eaa56fdff06e565f2bc577e734f46ab892c7ffc86d8ef6d1"),
    ("nafta", lambda: Mesh2D(6, 6), True, True,
     "3b0608cdbc172721fbdcb65bc791e575ca04fe745c34ed2499e7b01e6dc70ec9"),
]


@pytest.mark.parametrize("algo,topo_factory,faulty,harsh,expected",
                         SCENARIOS,
                         ids=[f"{a}{'-faults' if f else ''}"
                              f"{'-harsh' if h else ''}"
                              for a, _, f, h, _ in SCENARIOS])
def test_active_scheduling_is_invisible(algo, topo_factory, faulty, harsh,
                                        expected):
    summary, messages = _run(algo, topo_factory, faulty, harsh)
    assert _digest(summary, messages) == expected


def test_active_set_drains_to_empty():
    """After the network drains, lazy pruning must leave no live
    routers in the active scan (stale entries are allowed in the set
    but must be pruned on the next pass)."""
    topo = Mesh2D(4, 4)
    net = Network(topo, make_algorithm("xy"), config=SimConfig())
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.1,
                                        message_length=4, seed=3))
    net.run(100)
    net.traffic = None
    net.run_until_drained()
    assert net._live_routers() == []
    assert all(r.n_flits == 0 for r in net.routers)
