"""Batched-vs-object engine parity: the struct-of-arrays engine must be
an invisible optimization.

Every algorithm in the registry runs the same workload on both engines
— small meshes, tori and hypercubes, fault-free and with
static and timed (mid-run) fault schedules in both fault modes — and
the complete ``SimStats.summary`` must match bit-for-bit, per-decision
SHA-256 digest and fault log included (fast reroute's healing and
absorption rows among them).  A digest mismatch localizes to the first
differing routing decision; a summary mismatch to the first differing
counter.

The conformance hook rides along: ``run_case_payload`` with an
``engine: batched`` key (what ``conform run --engine batched`` sends)
must reproduce the object engine's digests on generated cases.
"""

import collections
import itertools
from dataclasses import replace

import pytest

from repro.conformance.generate import generate_cases
from repro.conformance.runner import run_case_payload
from repro.routing.base import REFRESH_ARGMIN, REFRESH_RESORT, RouteDecision
from repro.routing.registry import ALGORITHM_META, make_algorithm
from repro.sim._batched_kernel import SCAN_PURGE, SCAN_ROUTE
from repro.sim.batched import (BatchedNetwork, batched_fallback_reason,
                               build_network)
from repro.sim.config import SimConfig
from repro.sim.faults import FaultSchedule
from repro.sim.network import Network
from repro.sim.stats import DecisionDigest
from repro.sim.topology import Hypercube, Mesh2D
from repro.sim.traffic import TrafficGenerator

pytestmark = pytest.mark.skipif(
    batched_fallback_reason() is not None,
    reason=f"batched engine unavailable: {batched_fallback_reason()}")

#: one small topology per kind the registry metadata names
TOPOLOGIES = {
    "mesh2d": lambda: Mesh2D(5, 4),
    "hypercube": lambda: Hypercube(3),
}


def _fault_plan(topo, meta):
    """Deterministic links/nodes within the algorithm's declared fault
    budget (an empty plan means fault-free cases only)."""
    links = sorted(topo.links())
    picked_links = []
    for i in range(meta.max_link_faults):
        picked_links.append(links[(i + 1) * len(links) // 4])
    picked_nodes = []
    for i in range(meta.max_node_faults):
        picked_nodes.append((i + 1) * topo.n_nodes // 3)
    return picked_links, picked_nodes


def _scenarios(algo):
    """(scenario-id, schedule builder, config kwargs) per algorithm."""
    meta = ALGORITHM_META[algo]
    out = [("clean", None, {})]
    if not (meta.max_link_faults or meta.max_node_faults):
        return out
    harsh = {"fault_mode": "harsh", "retry_limit": 2, "retry_backoff": 8}
    # delayed detection + hop-by-hop diagnosis flood, the richest
    # fault-knowledge path the reliability layer has
    diagnosis = {**harsh, "detection_delay": 5, "diagnosis_hop_delay": 1}
    backups = {"backup_routes": True}
    out.append(("static", "static", {}))
    out.append(("timed-quiesce", "timed", {"fault_mode": "quiesce"}))
    out.append(("timed-harsh", "timed", harsh))
    if algo in ("nafta", "nafta_rules", "route_c_rules"):
        # for nafta_rules also the cached decisions' link-status window:
        # route() reads the dead link before its detection advances the
        # route epoch; for route_c_rules the node classes and sunsafe
        # destinations the flood's convergence changes
        out.append(("timed-diagnosis", "timed", diagnosis))
    if algo == "nafta":
        # fast reroute: worms healed and absorbed on the arrays, backup
        # substitutions kept out of the native caches
        out.append(("timed-harsh-backups", "timed", {**harsh, **backups}))
    if algo in ("nafta", "nafta_rules", "updown"):
        out.append(("timed-diagnosis-backups", "timed",
                    {**diagnosis, **backups}))
    return out


def _run(engine_cls, algo, topo_kind, schedule_kind, cfg_kwargs):
    rule_driven = ALGORITHM_META[algo].rule_driven
    cycles = 120 if rule_driven else 260
    topo = TOPOLOGIES[topo_kind]()
    net = engine_cls(topo, make_algorithm(algo),
                     config=SimConfig(**cfg_kwargs))
    net.stats.digest = DecisionDigest()
    if schedule_kind is not None:
        links, nodes = _fault_plan(topo, ALGORITHM_META[algo])
        if schedule_kind == "static":
            sched = FaultSchedule.static(links=links, nodes=nodes)
        else:
            sched = FaultSchedule()
            for i, (a, b) in enumerate(links):
                sched.add_link_fault(50 + 25 * i, a, b)
            for i, n in enumerate(nodes):
                sched.add_node_fault(80 + 25 * i, n)
        net.schedule_faults(sched)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.15,
                                        message_length=4, seed=7))
    net.run(cycles)
    out = net.stats.summary(topo.n_nodes)
    out["fault_events"] = net.fault_log
    return out


def _parity_params():
    for algo, meta in sorted(ALGORITHM_META.items()):
        for topo_kind in meta.topologies:
            for scenario, schedule_kind, cfg in _scenarios(algo):
                yield pytest.param(algo, topo_kind, schedule_kind, cfg,
                                   id=f"{algo}-{topo_kind}-{scenario}")


@pytest.mark.parametrize("algo,topo_kind,schedule_kind,cfg",
                         list(_parity_params()))
def test_summary_and_digest_parity(algo, topo_kind, schedule_kind, cfg):
    obj = _run(Network, algo, topo_kind, schedule_kind, cfg)
    bat = _run(BatchedNetwork, algo, topo_kind, schedule_kind, cfg)
    assert obj["decision_digest_count"] > 0
    diffs = {k: (obj.get(k), bat.get(k))
             for k in sorted(set(obj) | set(bat))
             if obj.get(k) != bat.get(k)}
    assert not diffs, f"engine divergence on {algo}: {diffs}"


def test_build_network_selects_and_falls_back():
    topo = Mesh2D(4, 4)
    cfg = SimConfig(engine="batched")
    net = build_network(topo, make_algorithm("xy"), cfg)
    assert isinstance(net, BatchedNetwork)
    assert net.engine_name == "batched"
    # a tracer forces the documented fallback to the object oracle —
    # and the summary says so, so sweep outputs record which engine ran
    class _Tracer:
        enabled = True
    fell_back = build_network(topo, make_algorithm("xy"), cfg,
                              tracer=_Tracer())
    assert type(fell_back) is Network
    assert fell_back.engine_name == "object"
    summary = fell_back.stats.summary(topo.n_nodes)
    assert "tracing" in summary["engine_fallback"]
    # engines that never fell back must not carry the key at all
    assert "engine_fallback" not in net.stats.summary(topo.n_nodes)


def test_build_network_with_metrics_stays_batched():
    """Metrics no longer force the object engine: the batched build
    keeps the timeseries and fills it natively."""
    from repro.obs import MetricsTimeseries
    topo = Mesh2D(4, 4)
    net = build_network(topo, make_algorithm("nafta"),
                        SimConfig(engine="batched"),
                        metrics=MetricsTimeseries(stride=1))
    assert isinstance(net, BatchedNetwork)
    assert net.engine_name == "batched"
    assert net.metrics is not None


# ---------------------------------------------------------------------------
# array-native metrics: gauge columns and link counters must match the
# object engine sample-for-sample
# ---------------------------------------------------------------------------

def _run_with_metrics(engine_cls, algo, schedule=None, cfg_kwargs=None,
                      cycles=220):
    from repro.obs import MetricsTimeseries
    topo = Mesh2D(5, 4)
    metrics = MetricsTimeseries(stride=1)
    net = engine_cls(topo, make_algorithm(algo),
                     config=SimConfig(**(cfg_kwargs or {})),
                     metrics=metrics)
    net.stats.digest = DecisionDigest()
    if schedule is not None:
        net.schedule_faults(schedule())
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.15,
                                        message_length=4, seed=7))
    net.run(cycles)
    return net.stats.summary(topo.n_nodes), metrics.to_dict()


@pytest.mark.parametrize("algo", ["nafta", "nara", "xy"])
def test_metrics_parity_clean(algo):
    obj_s, obj_m = _run_with_metrics(Network, algo)
    bat_s, bat_m = _run_with_metrics(BatchedNetwork, algo)
    assert obj_s == bat_s
    assert obj_m == bat_m       # columns, link_flits, everything


def test_metrics_parity_under_timed_faults():
    """Fault arrival prunes worms and rebuilds the active set; gauges
    and link counters must stay in lockstep through it."""
    def schedule():
        sched = FaultSchedule()
        sched.add_link_fault(60, 0, 1)
        sched.add_node_fault(90, 7)
        return sched
    kw = {"fault_mode": "harsh", "retry_limit": 2, "retry_backoff": 8}
    obj_s, obj_m = _run_with_metrics(Network, "nafta", schedule, kw)
    bat_s, bat_m = _run_with_metrics(BatchedNetwork, "nafta", schedule, kw)
    assert obj_s == bat_s
    assert obj_m == bat_m
    assert obj_m["link_flits"]  # the run actually moved flits


# ---------------------------------------------------------------------------
# active-set edge cases: the compact occupied-node list must survive
# worm death, source re-entry and full quiesce/refill without skipping
# (or double-scanning) a node — divergence shows up in the digest
# ---------------------------------------------------------------------------

def _digest_run(engine_cls, algo, cfg_kwargs, schedule=None, cycles=300,
                load=0.15, topo=None):
    topo = topo or Mesh2D(5, 4)
    net = engine_cls(topo, make_algorithm(algo),
                     config=SimConfig(**cfg_kwargs))
    net.stats.digest = DecisionDigest()
    if schedule is not None:
        net.schedule_faults(schedule())
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=load,
                                        message_length=4, seed=23))
    net.run(cycles)
    return net.stats.summary(topo.n_nodes)


def test_active_set_worm_death_mid_route():
    """Harsh node faults kill worms mid-flight: their nodes must leave
    the active list exactly when the object engine forgets them."""
    def schedule():
        sched = FaultSchedule()
        sched.add_node_fault(70, 9)
        sched.add_node_fault(110, 12)
        sched.add_link_fault(140, 2, 3)
        return sched
    kw = {"fault_mode": "harsh", "retry_limit": 2, "retry_backoff": 8}
    obj = _digest_run(Network, "nafta", kw, schedule)
    bat = _digest_run(BatchedNetwork, "nafta", kw, schedule)
    assert obj == bat


def test_active_set_retransmission_reentry():
    """Source retry re-activates a node whose queue had drained; a
    one-cycle backoff releases the copy almost at once."""
    def schedule():
        sched = FaultSchedule()
        sched.add_node_fault(60, 9)
        return sched
    kw = {"fault_mode": "harsh", "retry_limit": 1, "retry_backoff": 1}
    obj = _digest_run(Network, "nafta", kw, schedule)
    bat = _digest_run(BatchedNetwork, "nafta", kw, schedule)
    assert obj["messages_retried"] > 0
    assert obj == bat


def test_active_set_quiesce_empty_then_refill():
    """A timed fault under quiesce drains the network to empty, then
    traffic refills it: the active list must rebuild from zero."""
    def schedule():
        sched = FaultSchedule()
        sched.add_link_fault(100, 5, 6)
        return sched
    kw = {"fault_mode": "quiesce"}
    # low load so the quiesce drain genuinely empties the mesh
    obj = _digest_run(Network, "nafta", kw, schedule, cycles=400,
                      load=0.05)
    bat = _digest_run(BatchedNetwork, "nafta", kw, schedule, cycles=400,
                      load=0.05)
    assert obj == bat


# ---------------------------------------------------------------------------
# the arrival list: k_flush admits only the staging slots filled since
# the last flush, skipping those a purge or a fast-reroute walk cleared
# ---------------------------------------------------------------------------

class _FlushWatch:
    """The kernel library with every flush's arrival list inspected: it
    must list each slot at most once, and the ``(cycle, gid)`` of every
    listed slot found cleared is recorded."""

    def __init__(self, net):
        self.net, self.lib = net, net._lib
        self.cleared = []

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def k_flush(self, cs):
        net = self.net
        listed = net._arr_list[:cs.n_arr].tolist()
        assert len(set(listed)) == len(listed) <= net._arr_list.shape[0]
        assert sorted(listed) == net._arr_on.nonzero()[0].tolist()
        self.cleared += [(net.cycle, g) for g in listed
                         if not net._inc_val[g]]
        self.lib.k_flush(cs)
        assert cs.n_arr == 0 and not net._arr_on.any()


def test_arrival_list_skips_the_staged_flit_of_a_stuck_purge():
    """Every seventh worm is declared stuck at its source in one step,
    so it is purged in the route stage of the cycle after its head
    entered, after the inject phase staged its next flit: the flush
    must skip that slot.  Both engines agree."""
    out = []
    for cls in (Network, BatchedNetwork):
        topo = Mesh2D(5, 4)
        algo = make_algorithm("xy")
        route = algo.route
        algo.route = lambda router, header, in_port, in_vc: (
            RouteDecision.unroutable()
            if in_port == -1 and header.msg_id % 7 == 0
            else route(router, header, in_port, in_vc))
        net = cls(topo, algo, config=SimConfig(
            fault_mode="harsh", retry_limit=2, retry_backoff=8))
        net.stats.digest = DecisionDigest()
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.2,
                                            message_length=4, seed=23))
        if cls is BatchedNetwork:
            watch = net._lib = _FlushWatch(net)
        net.run(300)
        out.append(net.stats.summary(topo.n_nodes))
    assert out[0] == out[1]
    assert out[0]["messages_stuck"] > 0
    assert any(net._iv_port[g] == -1 for _, g in watch.cleared)


def test_arrival_list_skips_flits_ripped_up_at_a_dying_link():
    """Harsh link faults with fast reroute: the worms caught on the
    dying link are healed, absorbed or ripped up at the fault, before
    the flush that would admit their staged flits."""
    def schedule():
        sched = FaultSchedule()
        sched.add_link_fault(60, 6, 7)
        sched.add_link_fault(90, 12, 13)
        sched.add_link_fault(120, 7, 12)
        return sched
    kw = {"fault_mode": "harsh", "backup_routes": True, "retry_limit": 2,
          "retry_backoff": 8}
    out = []
    for cls in (Network, BatchedNetwork):
        topo = Mesh2D(5, 4)
        net = cls(topo, make_algorithm("nafta"), config=SimConfig(**kw))
        net.stats.digest = DecisionDigest()
        net.schedule_faults(schedule())
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.3,
                                            message_length=4, seed=23))
        if cls is BatchedNetwork:
            watch = net._lib = _FlushWatch(net)
        net.run(300)
        out.append(net.stats.summary(topo.n_nodes))
    assert out[0] == out[1]
    assert out[0]["reroute"]["worms_healed"] > 0
    assert {cycle for cycle, _ in watch.cleared} & {60, 90, 120}


def test_arrival_list_lists_a_refilled_slot_once():
    """A staged flit purged and replaced by a new arrival before the
    flush: the slot is listed once and admitted once."""
    net = BatchedNetwork(Mesh2D(4, 4), make_algorithm("xy"))
    mid = net.offer(0, 15, 4).header.msg_id
    net.step()                  # the head is staged at node 0's LOCAL VC
    lib, cs = net._lib, net._cs
    g = int(net._portbase[0, 0])
    assert net._inc_val[g] and cs.n_arr == 1
    lib.k_purge_all(cs, mid)
    assert not net._inc_val[g] and cs.n_arr == 1
    assert lib.k_inject(cs, net._heads_ptr) == 0   # flit 1 refills it
    assert net._inc_val[g] and net._arr_list[:cs.n_arr].tolist() == [g]
    lib.k_flush(cs)
    assert cs.n_arr == 0 and not net._arr_on[g] and not net._inc_val[g]
    assert net._ring(g) == [(mid, 1)]


def test_purge_keeps_another_worms_staged_flit_staged():
    """A purge that empties an input VC's ring while a different worm's
    flit waits in its staging slot moves that flit to the ring position
    past the kept ones, where the flush admits it."""
    net = BatchedNetwork(Mesh2D(4, 4), make_algorithm("xy"))
    lib, cs = net._lib, net._cs
    g = int(net._portbase[0, 0])            # node 0's LOCAL VC 0
    net._buf_msg[g, 0], net._buf_seq[g, 0] = 7, 3   # worm 7's tail
    net._buf_cnt[g] = net._r_nflits[0] = 1
    # worm 0 (2 flits, node 0 to 5) queued at node 0, unscreened
    assert lib.k_admit(cs, 1, [0], [5], [2], 0, 0) == 1
    assert lib.k_start_scan(cs, net._heads_ptr) == 1
    assert lib.k_inject(cs, net._heads_ptr) == 1
    assert net._ring(g) == [(7, 3), (0, 0)]
    assert lib.k_purge(cs, 0, 7) == 1
    lib.k_flush(cs)
    assert net._ring(g) == [(0, 0)]


def test_rule_decisions_follow_undetected_link_faults():
    """nafta_rules reads the physical link status (its free-output
    mask), which changes at a harsh fault cycles before detection
    advances the route epoch: cached decisions, the clean table and
    the refreshes of blocked heads must all follow it."""
    def schedule():
        sched = FaultSchedule()
        sched.add_link_fault(100, 14, 15)
        sched.add_link_fault(150, 20, 21)
        return sched
    cfg = SimConfig(fault_mode="harsh", retry_limit=2, retry_backoff=8,
                    detection_delay=7)
    topo = Mesh2D(6, 6)
    for seed in (1, 2):
        out = []
        for cls in (Network, BatchedNetwork):
            net = cls(topo, make_algorithm("nafta_rules"), config=cfg)
            net.stats.digest = DecisionDigest()
            net.schedule_faults(schedule())
            net.attach_traffic(TrafficGenerator(
                topo, "uniform", load=0.35, message_length=4, seed=seed))
            net.run(250)
            out.append(net.stats.summary(topo.n_nodes))
        assert out[0] == out[1], f"traffic seed {seed}"


# ---------------------------------------------------------------------------
# relative destination keys: one cached decision per destination class
# ---------------------------------------------------------------------------

def _deactivating_run(cls, algo, seed, cycles=400):
    """8x8 nafta under harsh faults: (3, 3) dies at boot and (4, 4) at
    cycle 150, so the convex completion deactivates the healthy (3, 4)
    and (4, 3) while worms are in flight toward them."""
    topo = Mesh2D(8, 8)
    net = cls(topo, algo, config=SimConfig(fault_mode="harsh",
                                           retry_limit=2, retry_backoff=8))
    net.stats.digest = DecisionDigest()
    sched = FaultSchedule()
    sched.add_node_fault(0, topo.node_at(3, 3))
    sched.add_node_fault(150, topo.node_at(4, 4))
    net.schedule_faults(sched)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.3,
                                        message_length=4, seed=seed))
    net.run(cycles)
    return net


def test_worms_toward_a_newly_deactivated_destination():
    """A destination deactivated mid-run is irregular: its decisions
    (unroutable) must not be answered by a cached decision of a
    congruent healthy destination."""
    for seed in (1, 2):
        out = [_deactivating_run(cls, make_algorithm("nafta"), seed)
               .stats.summary(64) for cls in (Network, BatchedNetwork)]
        assert out[0] == out[1], f"traffic seed {seed}"
        assert out[0]["messages_stuck"] > 0


def test_relative_keys_save_route_calls():
    """The same faulted batched run, keyed by relative destination and
    by exact destination: identical results, far fewer route() calls.
    Only the run's calls count, not the clean-table probes a build
    makes when the table cache is cold."""
    calls, summaries = {}, {}
    for relative in (True, False):
        algo = make_algorithm("nafta")
        if not relative:
            contract = algo.native_contract
            algo.native_contract = lambda topo, contract=contract: \
                replace(contract(topo), relative_dst=False)
        net = _deactivating_run(BatchedNetwork, algo, seed=1, cycles=0)
        route, n = algo.route, []
        algo.route = lambda *a, route=route, n=n: n.append(1) or route(*a)
        net.run(600)
        calls[relative] = len(n)
        summaries[relative] = net.stats.summary(64)
    assert summaries[True] == summaries[False]
    assert calls[True] < 0.7 * calls[False], calls


# ---------------------------------------------------------------------------
# the crossing protocol: the kernel hands Python one input VC at a time
# and resumes inside the node after the decision's commit
# ---------------------------------------------------------------------------

class _ScanWatch:
    """The kernel library with its route-scan returns counted.  For a
    node whose first crossing in a cycle is a fresh decision, it also
    records what the kernel then did itself at the node's later input
    VCs: a cache hit, an expired ROUTING timer, a re-sorted blocked
    head, a stuck head among the node's purges."""

    def __init__(self, net):
        self.net, self.lib = net, net._lib
        self.returns = collections.Counter()
        self.nodes = []                 # (cycle, node, events)
        self._watch = None
        self._last = None               # (cycle, node) of the last crossing

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def _later(self, g):
        """(gid, state, hint) and head messages of the occupied input
        VCs after ``g`` in its node."""
        net = self.net
        vcs, mids = [], set()
        for h in range(g + 1, int(net._iv_off[net._iv_node[g] + 1])):
            if net._buf_cnt[h]:
                st = int(net._st[h])
                vcs.append((h, st, int(net._hint[h])))
                mids.add(int(net._head_msg[h]) if st else
                         int(net._buf_msg[h, net._buf_head[h]]))
        return vcs, mids

    def k_route_scan(self, cs, cycle, epoch, resume):
        r = self.lib.k_route_scan(cs, cycle, epoch, resume)
        self.returns[r] += 1
        net = self.net
        g, _, fresh = net._xing[:3].tolist()
        node = int(net._iv_node[g]) if r == SCAN_ROUTE else None
        if self._watch is not None:
            watched, vcs, mids, events = self._watch
            stop = g if node == watched else None
            while vcs and (stop is None or vcs[0][0] < stop):
                h, st, hint = vcs.pop(0)
                now = int(net._st[h])
                if st == 0 and now:
                    events.add("hit")
                elif st == 1 and now == 2:
                    events.add("timer")
                elif st == now == 2 \
                        and hint in (REFRESH_RESORT, REFRESH_ARGMIN):
                    events.add("resort")
            if vcs and vcs[0][0] == stop:
                vcs.pop(0)
            if r == SCAN_PURGE \
                    and mids & set(net._stuck[:cs.n_stuck].tolist()):
                events.add("stuck")
            if stop is None:
                self.nodes.append((cycle, watched, events))
                self._watch = None
        if r == SCAN_ROUTE:
            if fresh and self._last != (cycle, node):
                self._watch = (node, *self._later(g), set())
            self._last = (cycle, node)
        return r


def _crossing_net(cls):
    """8x8 nafta with two dead nodes, a 3-hop budget and two cycles per
    rule step: misses, hits, ROUTING timers, blocked heads and stuck
    heads all crowd the same nodes."""
    topo = Mesh2D(8, 8)
    net = cls(topo, make_algorithm("nafta"), config=SimConfig(
        fault_mode="harsh", retry_limit=2, retry_backoff=8,
        cycles_per_step=2, hop_budget=3))
    net.stats.digest = DecisionDigest()
    sched = FaultSchedule()
    sched.add_node_fault(0, topo.node_at(3, 3))
    sched.add_node_fault(150, topo.node_at(4, 4))
    net.schedule_faults(sched)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.6,
                                        message_length=4, seed=1))
    return net


def test_kernel_resumes_inside_the_node_after_a_python_decision():
    """In one cycle a node's first input VC misses the cache, and after
    that decision's commit the kernel serves the node's later VCs
    itself: one hits, one's ROUTING timer expires, a blocked head is
    re-sorted and a stuck head is purged at the node's end.  Both
    engines agree summary for summary and decision for decision."""
    out = []
    for cls in (Network, BatchedNetwork):
        net = _crossing_net(cls)
        if cls is BatchedNetwork:
            watch = net._lib = _ScanWatch(net)
        net.run(300)
        out.append(net.stats.summary(64))
    assert out[0] == out[1]
    full = {"hit", "timer", "resort", "stuck"}
    assert any(events >= full for _, _, events in watch.nodes), \
        "no node saw a miss followed by all four kernel-side steps"


def test_one_crossing_per_route_call_or_node_purge():
    """Every kernel-to-Python crossing of the route stage is one
    route() call or one node's stuck purge."""
    net = _crossing_net(BatchedNetwork)
    algo = net.algorithm
    route, calls = algo.route, []
    algo.route = lambda *a: calls.append(1) or route(*a)
    watch = net._lib = _ScanWatch(net)
    net.run(300)
    crossings = sum(n for r, n in watch.returns.items() if r > 0)
    assert calls and watch.returns[SCAN_PURGE]
    assert crossings == len(calls) + watch.returns[SCAN_PURGE]


def test_commit_refuses_more_candidates_than_a_vc_holds():
    """A decision with more candidates than an input VC's slots is an
    error, not a write past them."""
    topo = Mesh2D(4, 4)
    net = BatchedNetwork(topo, make_algorithm("xy"))
    route = net.algorithm.route
    net.algorithm.route = lambda *a: replace(
        route(*a), candidates=route(*a).candidates * 64)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.3,
                                        message_length=4, seed=1))
    with pytest.raises(ValueError, match="candidates"):
        net.run(50)


# ---------------------------------------------------------------------------
# rule-driven ROUTE_C: pinned re-sort under the load cap, node classes
# ---------------------------------------------------------------------------

def test_route_c_rules_resort_past_the_load_cap():
    """route_c_rules offers adaptivity's pick first and the rest by load
    clamped at the qload domain's top (2d-1 = 5 on the 3-cube); the C
    replay re-sorts with that pin and cap.  8-flit buffers let one
    virtual channel's load pass the cap, and this run makes decisions
    whose re-sorted candidates carry such a load."""
    topo = Hypercube(3)
    out, over = [], []
    for cls in (Network, BatchedNetwork):
        algo = make_algorithm("route_c_rules")
        if cls is Network:
            route = algo.route

            def watched(router, header, in_port, in_vc, route=route):
                loads = router.port_loads()
                dec = route(router, header, in_port, in_vc)
                over.extend(p for p, _ in dec.candidates[1:] if loads[p] > 5)
                return dec
            algo.route = watched
        net = cls(topo, algo, config=SimConfig(buffer_depth=8))
        net.stats.digest = DecisionDigest()
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.6,
                                            message_length=8, seed=2))
        net.run(200)
        out.append(net.stats.summary(topo.n_nodes))
    assert out[0] == out[1]
    assert algo.native_contract(topo).load_cap == 5
    assert over, "no re-sorted candidate saw a load above the cap"


def test_kernel_resort_keeps_the_pin_and_clamps_at_the_cap():
    """The C re-sort of a route_c_rules decision keeps adaptivity's pick
    first and compares the other loads clamped at the cap (5 on the
    3-cube): two ports loaded past it tie and go by port id."""
    topo = Hypercube(3)
    net = BatchedNetwork(topo, make_algorithm("route_c_rules"),
                         config=SimConfig(buffer_depth=8))
    node, g = 0, int(net._portbase[0, 0])        # node 0's LOCAL VC 0
    for pid, load in ((0, 7), (1, 6), (2, 8)):
        net._buf_cnt[net._ov_down[net._portbase[node, pid + 1]]] = load
    assert net.routers[node].port_loads() == {0: 7, 1: 6, 2: 8}
    net._ncand[g] = 3
    net._cand_p[g, :3] = (2, 1, 0)
    net._cand_v[g, :3] = 0
    net._lib.k_resort(net._cs, g)
    assert net._cand_p[g, :3].tolist() == [2, 0, 1]


def test_route_c_rules_detours_commit_their_class_bump():
    """Three dead links at node 0 of a 4-cube force detours; each
    detour's channel-class bump is applied by the kernel's departure
    rule when the head leaves, not by a Python on_depart."""
    topo = Hypercube(4)
    out = []
    for cls in (Network, BatchedNetwork):
        net = cls(topo, make_algorithm("route_c_rules"), config=SimConfig())
        net.stats.digest = DecisionDigest()
        net.schedule_faults(FaultSchedule.static(
            links=[(0, 1), (0, 2), (0, 4)]))
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.2,
                                            message_length=4, seed=1))
        net.run(300)
        out.append(net.stats.summary(topo.n_nodes))
    assert out[0] == out[1]
    assert out[0]["misrouted_fraction"] > 0.05


def _route_c_classes_run(classes: bool):
    """6-cube route_c_rules with two faulty nodes, batched; ``classes``
    False keys every node's decisions apart."""
    topo = Hypercube(6)
    algo = make_algorithm("route_c_rules")
    if not classes:
        contract = algo.native_contract
        algo.native_contract = lambda topo, contract=contract: \
            replace(contract(topo), node_class=None)
    route, n = algo.route, []
    algo.route = lambda *a, route=route, n=n: n.append(1) or route(*a)
    net = BatchedNetwork(topo, algo, config=SimConfig())
    net.stats.digest = DecisionDigest()
    net.schedule_faults(FaultSchedule.static(nodes=[5, 40]))
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.2,
                                        message_length=4, seed=1))
    net.run(400)
    return net.stats.summary(topo.n_nodes), len(n)


def test_node_classes_save_route_calls():
    """The same faulted batched route_c_rules run with node classes and
    with one class per node: identical results, under half the route()
    calls."""
    with_classes, calls = _route_c_classes_run(True)
    per_node, calls_per_node = _route_c_classes_run(False)
    assert with_classes == per_node
    assert calls < 0.5 * calls_per_node, (calls, calls_per_node)


# ---------------------------------------------------------------------------
# fast reroute: worms split at a dying link, absorbed when stuck, and
# re-injected through the backup subbases — all on the arrays
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algo", ["nafta", "updown"])
def test_fast_reroute_heals_on_the_arrays(algo):
    """Three central links die one after another under load, each
    detected five cycles late: the healed and absorbed worms and the
    backup substitutions must match the oracle digest for digest."""
    def schedule():
        sched = FaultSchedule()
        sched.add_link_fault(60, 6, 7)
        sched.add_link_fault(90, 12, 13)
        sched.add_link_fault(120, 7, 12)
        return sched
    kw = {"fault_mode": "harsh", "backup_routes": True, "retry_limit": 2,
          "retry_backoff": 8, "detection_delay": 5,
          "diagnosis_hop_delay": 1}
    obj = _digest_run(Network, algo, kw, schedule)
    bat = _digest_run(BatchedNetwork, algo, kw, schedule)
    assert obj == bat
    assert obj["reroute"]["worms_healed"] > 0
    assert obj["reroute"]["backup_route_decisions"] > 0


def test_route_c_rules_armed_endpoints_keep_their_own_keys():
    """Under fast reroute an injection at an armed endpoint may take a
    backup substitution, so it must never be answered by a decision a
    node of the same class cached; a slow flood (20 cycles a hop) keeps
    the links armed long enough for class-mates to fill the cache."""
    def schedule():
        sched = FaultSchedule()
        sched.add_link_fault(60, 0, 1)
        sched.add_link_fault(90, 5, 7)
        sched.add_link_fault(120, 10, 14)
        return sched
    kw = {"fault_mode": "harsh", "backup_routes": True, "retry_limit": 2,
          "retry_backoff": 8, "detection_delay": 5,
          "diagnosis_hop_delay": 20}
    obj, bat = (_digest_run(cls, "route_c_rules", kw, schedule, load=0.3,
                            topo=Hypercube(4))
                for cls in (Network, BatchedNetwork))
    assert obj == bat
    assert obj["reroute"]["backup_route_decisions"] > 0


# ---------------------------------------------------------------------------
# build-time clean tables: bit-exact with the object oracle (which has
# no table), and correctly bypassed the moment faults are known
# ---------------------------------------------------------------------------

def test_port_loads_match_output_load_on_both_engines():
    """``port_loads`` (one kernel call on the batched engine) equals
    ``output_load`` port by port, and both engines agree cycle by
    cycle, a dead link included."""
    topo = Mesh2D(5, 4)
    nets = []
    for cls in (Network, BatchedNetwork):
        net = cls(topo, make_algorithm("nafta"),
                  config=SimConfig(fault_mode="harsh"))
        sched = FaultSchedule()
        sched.add_link_fault(40, 6, 7)
        net.schedule_faults(sched)
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.3,
                                            message_length=6, seed=3))
        nets.append(net)
    busy = 0
    for _ in range(8):
        loads = []
        for net in nets:
            net.run(10)
            per_node = [r.port_loads() for r in net.routers]
            for r, got in zip(net.routers, per_node):
                assert got == {p: r.output_load(p) for p in r.ports}
            loads.append(per_node)
        assert loads[0] == loads[1]
        busy += sum(map(sum, (d.values() for d in loads[0])))
    assert busy > 0


@pytest.mark.parametrize("algo", ["nafta", "nara", "nafta_rules"])
def test_clean_table_ab_digest_equality(algo):
    """Clean-table decisions must be behaviorally invisible: the batched
    run, table installed, matches the object engine digest for digest."""
    net = BatchedNetwork(Mesh2D(5, 4), make_algorithm(algo))
    assert net._ct_ready, "the clean table was not installed"
    assert _digest_run(BatchedNetwork, algo, {}, cycles=260) == \
        _digest_run(Network, algo, {}, cycles=260)


def test_clean_table_bypassed_under_known_faults():
    """With faults known from cycle 0 the table never fires on
    fault-epoch decisions: the batched run still matches the oracle."""
    def schedule():
        return FaultSchedule.static(links=[(5, 6)])
    assert _digest_run(BatchedNetwork, "nafta", {}, schedule,
                       cycles=260) == \
        _digest_run(Network, "nafta", {}, schedule, cycles=260)


# ---------------------------------------------------------------------------
# the conformance hook: `conform run --engine batched`
# ---------------------------------------------------------------------------

def test_conform_payload_engine_parity():
    """The payload-level hook the conform CLI uses: same case, both
    engines, identical digests and case keys — and the engine key must
    not leak into the scenario identity."""
    cases = itertools.islice(
        generate_cases(["nafta", "route_c", "xy"], 5), 6)
    checked = 0
    for case in cases:
        obj = run_case_payload(case.to_dict())
        bat = run_case_payload({**case.to_dict(), "engine": "batched"})
        assert bat["digest"] == obj["digest"]
        assert bat["decisions"] == obj["decisions"]
        assert bat["case_key"] == obj["case_key"]
        assert "engine" not in bat["case"]
        assert bat["violations"] == obj["violations"] == []
        checked += 1
    assert checked == 6


def test_conform_cli_engine_flag(capsys):
    from repro.tools.conform import main as conform_main
    rc = conform_main(["run", "--cases", "4", "--seed", "1",
                       "--engine", "batched", "--no-shrink"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "engine batched" in out


def test_conform_payload_metrics_invisible():
    """A stride-1 metrics observer attached via the payload's
    ``metrics_stride`` key must not perturb digests, and batched runs
    with metrics must actually run batched (no fallback)."""
    case = next(iter(generate_cases(["nafta"], 3)))
    plain = run_case_payload(case.to_dict())
    sampled = run_case_payload({**case.to_dict(), "metrics_stride": 1})
    batched = run_case_payload({**case.to_dict(), "engine": "batched",
                                "metrics_stride": 1})
    assert sampled["digest"] == plain["digest"]
    assert batched["digest"] == plain["digest"]
    assert "metrics_stride" not in sampled["case"]
    assert sampled["metrics"]["rows"] > 0
    assert batched["metrics"]["engine"] == "batched"
