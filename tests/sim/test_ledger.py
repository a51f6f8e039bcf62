"""The message ledger both engines keep.

On the batched engine the kernel admits, queues, injects and delivers a
message on ledger columns alone; Python builds a ``Message`` view only
when it asks for one.  On the object engine every message is a row and
a view from its admission.  These tests check that a fault-free native
run builds no view, that the views and the ledger's reductions answer
the same on both engines, that the columns survive their growth, and —
on every cycle of the parity scenarios with faults, retries and heals,
on both engines — that messages are conserved: every admitted message
is queued, injecting, in flight, delivered, dropped or lost with its
dead source, and each class agrees with the counters and structures
that track it independently.
"""

import numpy as np
import pytest

from repro.experiments.runners import _logical_accounting
from repro.routing.registry import ALGORITHM_META, make_algorithm
from repro.sim.batched import BatchedNetwork, batched_fallback_reason
from repro.sim.config import SimConfig
from repro.sim.faults import FaultSchedule
from repro.sim.flit import LEDGER_ROWS, M_DROPPED
from repro.sim.network import Network
from repro.sim.topology import Mesh2D
from repro.sim.traffic import TrafficGenerator

from .test_batched_parity import TOPOLOGIES, _fault_plan, _scenarios

pytestmark = pytest.mark.skipif(
    batched_fallback_reason() is not None,
    reason=f"batched engine unavailable: {batched_fallback_reason()}")

#: message classes, in the order a message is tested against them
CLASSES = ("delivered", "dropped", "injecting", "queued", "lost",
           "in_flight")


def _columns(net):
    """Per message, in id order, from the ledger both engines keep:
    source, injected and delivered cycle (-1 = not yet), dropped; plus
    the injecting message ids and the number of queued messages, as
    each engine keeps them."""
    lg = net._lg
    n = lg.cs.n_msgs
    if isinstance(net, BatchedNetwork):
        cur = net._src_cur
        injecting, n_queued = cur[cur >= 0], int(net._src_qlen.sum())
    else:
        injecting = np.array([s.current_msg.header.msg_id
                              for s in net.sources if s.current],
                             dtype=np.int64)
        n_queued = sum(len(s.queue) for s in net.sources)
    return (lg.msg_src[:n], lg.msg_inj[:n], lg.msg_dlv[:n],
            (lg.msg_flags[:n] & M_DROPPED) != 0, injecting, n_queued)


def census(net) -> dict:
    """Each admitted message's class, counted in one reduction, after
    checking every class against what tracks it independently."""
    src, inj, dlv, dropped, injecting, n_queued = _columns(net)
    n = src.shape[0]
    assert n == len(net.messages)
    ids = np.arange(n)
    alive = np.array([net.faults.node_ok(v) for v in
                      range(net.topology.n_nodes)], dtype=bool)
    is_injecting = np.isin(ids, injecting)
    waiting = (inj < 0) & ~is_injecting
    state = np.select(
        [dlv >= 0, dropped, is_injecting, waiting & alive[src], waiting],
        [0, 1, 2, 3, 4], default=5)
    counts = dict(zip(CLASSES, np.bincount(state, minlength=6).tolist()))
    stats = net.stats
    assert sum(counts.values()) == n
    assert counts["delivered"] == stats.messages_delivered
    assert counts["dropped"] == stats.messages_dropped + stats.messages_stuck
    assert counts["injecting"] == injecting.shape[0]
    assert counts["queued"] == n_queued
    # a buffered flit belongs to a worm still entering or in flight
    buffered = {m for node in net.topology.nodes()
                for m in net._buffered_msgs(node)}
    assert set(state[sorted(buffered)].tolist()) <= {2, 5}
    return counts


def _conservation_params():
    for algo, meta in sorted(ALGORITHM_META.items()):
        for topo_kind in meta.topologies:
            for scenario, schedule_kind, cfg in _scenarios(algo):
                if schedule_kind == "timed" and (cfg.get("retry_limit")
                                                 or cfg.get("backup_routes")):
                    yield pytest.param(algo, topo_kind, cfg,
                                       id=f"{algo}-{topo_kind}-{scenario}")


def _timed_net(cls, algo, topo_kind, cfg):
    """The parity suite's timed-fault network for this scenario."""
    topo = TOPOLOGIES[topo_kind]()
    net = cls(topo, make_algorithm(algo), config=SimConfig(**cfg))
    links, nodes = _fault_plan(topo, ALGORITHM_META[algo])
    sched = FaultSchedule()
    for i, (a, b) in enumerate(links):
        sched.add_link_fault(50 + 25 * i, a, b)
    for i, n in enumerate(nodes):
        sched.add_node_fault(80 + 25 * i, n)
    net.schedule_faults(sched)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.15,
                                        message_length=4, seed=7))
    return net


@pytest.mark.parametrize("algo,topo_kind,cfg", list(_conservation_params()))
def test_messages_are_conserved_every_cycle(algo, topo_kind, cfg):
    cycles = 120 if ALGORITHM_META[algo].rule_driven else 260
    nets = [_timed_net(cls, algo, topo_kind, cfg)
            for cls in (Network, BatchedNetwork)]
    for _ in range(cycles):
        seen = []
        for net in nets:
            net.step()
            seen.append(census(net))
        assert seen[0] == seen[1], f"cycle {nets[0].cycle - 1}"
    assert seen[0]["delivered"] and nets[0].faults.n_faults()


def test_fault_free_native_run_builds_no_message():
    topo = Mesh2D(16, 16)
    out = []
    for cls in (Network, BatchedNetwork):
        net = cls(topo, make_algorithm("nafta"))
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.04,
                                            message_length=6, seed=1))
        net.set_warmup(100)
        net.run(500)
        out.append((net.stats.summary(topo.n_nodes), net.n_undelivered(),
                    _logical_accounting(net)))
    assert out[0] == out[1]
    assert out[1][0]["messages_delivered"] > 500
    assert len(net.messages) > out[1][0]["messages_delivered"]
    assert not net.messages.held


def test_views_read_and_write_the_ledger():
    topo = Mesh2D(4, 4)
    net = BatchedNetwork(topo, make_algorithm("nafta"))
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.2,
                                        message_length=3, seed=3))
    net.run(40)
    assert 0 not in net.messages.held and 0 in net.messages
    assert len(net.messages) not in net.messages
    assert net.messages.get(len(net.messages)) is None
    first = net.messages[0]                 # built from the ledger
    assert first.delivered is not None and first.hops >= 1
    assert first.latency == first.delivered - first.header.created
    # a Python admission is held from the start; its stamps are columns
    msg = net.offer(0, 15, 2, path_len=1)
    mid = msg.header.msg_id
    assert net.messages[mid] is msg and msg.header.fields == {"path_len": 1}
    assert msg.injected is None and msg.delivered is None
    msg.dropped = True
    assert net._lg.msg_flags[mid] & M_DROPPED
    msg.dropped = False
    net.run(30)
    assert msg.injected is not None and msg.delivered is not None
    assert msg.hops == msg.header.path_len > 1 + 6     # 6 links at least
    assert net.n_undelivered() == len(net.undelivered())


def test_refused_offers_count_as_unroutable():
    topo = Mesh2D(4, 4)
    for cls in (Network, BatchedNetwork):
        net = cls(topo, make_algorithm("nafta"))
        net.schedule_faults(FaultSchedule.static(nodes=[5]))
        assert net.offer(0, 5, 4) is None           # dead destination
        assert net.offer(5, 0, 4) is None           # dead source
        with pytest.raises(ValueError, match="length"):
            net.offer(0, 1, 0)
        assert net.offer(0, 1, 4) is not None
        assert net.stats.messages_unroutable == 2
        assert len(net.messages) == 1


def test_object_ledger_keeps_every_stamp_across_its_growth():
    """Every column value written into the object engine's ledger stays
    as written while the ledger grows past its first 4,096 rows: a
    stamp only ever fills a not-yet (-1) cell with the cycle that wrote
    it, and a flag bit is only ever added."""
    topo = Mesh2D(8, 8)
    net = Network(topo, make_algorithm("xy"))
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.3,
                                        message_length=2, seed=5))
    lg = net._lg
    first = lg.dims["msgs"]
    names = [row[0] for row in LEDGER_ROWS]
    seen = {name: getattr(lg, name)[:0].copy() for name in names}
    stamps = ("msg_inj", "msg_dlv")
    while lg.cs.n_msgs <= first + 500:      # grown, then run on
        cycle = net.cycle
        net.step()
        n_old = seen["msg_src"].shape[0]
        for name in names:
            now, old = getattr(lg, name)[:n_old], seen[name]
            same = now == old
            if name in stamps:
                same |= (old == -1) & (now == cycle)
            elif name == "msg_flags":
                same = (now & old) == old
            elif name == "msg_plen":        # written at delivery
                same |= (lg.msg_dlv[:n_old] == cycle)
            if same.ndim > 1:                   # the field mirrors
                same = same.all(axis=1)
            bad = np.flatnonzero(~same)
            assert not bad.size, f"{name} of message {bad[0]} changed"
            seen[name] = getattr(lg, name)[:lg.cs.n_msgs].copy()
    assert lg.dims["msgs"] == 2 * first
    # the stamps add up to what the counters counted
    n = lg.cs.n_msgs
    assert np.count_nonzero(lg.msg_dlv[:n] >= 0) \
        == net.stats.messages_delivered > first
    assert [net.messages[m].header.src for m in (0, first, n - 1)] \
        == lg.msg_src[[0, first, n - 1]].tolist()
