"""Integration: routers driven by the actual compiled rule machine
(the full Figure-3 architecture), differentially checked against the
native Python NAFTA."""

import pytest

from repro.routing import NaftaRouting, RuleDrivenNafta
from repro.sim import (FaultSchedule, Mesh2D, Network, SimConfig,
                       TrafficGenerator)
from repro.sim.faults import FaultState


def drained_net(algo, topo=None, fault_nodes=(), **cfg):
    topo = topo or Mesh2D(5, 5)
    net = Network(topo, algo, config=SimConfig(**cfg))
    if fault_nodes:
        net.schedule_faults(FaultSchedule.static(
            nodes=[topo.node_at(*c) for c in fault_nodes]))
    return net


class TestRuleDrivenBasics:
    def test_fault_free_delivery_minimal(self):
        net = drained_net(RuleDrivenNafta())
        m = net.offer(0, 24, 3)
        net.run_until_drained()
        assert m.delivered is not None
        assert m.hops == net.topology.distance(0, 24) + 1
        assert net.stats.max_decision_steps == 1

    def test_detour_with_three_steps(self):
        topo = Mesh2D(5, 5)
        net = drained_net(RuleDrivenNafta(), topo, fault_nodes=[(2, 2)],
                          trace_paths=True)
        m = net.offer(topo.node_at(0, 2), topo.node_at(4, 2), 3)
        net.run_until_drained()
        assert m.delivered is not None
        assert m.header.misrouted
        assert net.stats.max_decision_steps == 3
        trace = {topo.coords(n) for n in m.header.fields["trace"]}
        assert (2, 2) not in trace

    def test_engine_state_tracks_deactivation(self):
        topo = Mesh2D(5, 5)
        algo = RuleDrivenNafta()
        net = drained_net(algo, topo, fault_nodes=[(1, 1), (2, 2)])
        # the diagonal pair deactivates (1,2) and (2,1) in the engines
        for coords in [(1, 2), (2, 1)]:
            node = topo.node_at(*coords)
            assert algo.engines[node].registers.read("mystate") == "deact"
        # healthy far nodes stay safe
        assert algo.engines[topo.node_at(4, 4)].registers.read(
            "mystate") == "safe"

    def test_engine_run_counters_match_native_map(self):
        from repro.routing.mesh_state import MeshFaultMap
        topo = Mesh2D(5, 5)
        algo = RuleDrivenNafta()
        net = drained_net(algo, topo, fault_nodes=[(2, 2)])
        fmap = MeshFaultMap(topo, net.faults)
        for node in topo.nodes():
            if not net.faults.node_ok(node):
                continue
            for dir_ in range(4):
                got = algo.engines[node].registers.read("runc", (dir_,))
                want = min(fmap.clear_run(node, dir_), algo._rmax)
                assert got == want, (topo.coords(node), dir_)

    def test_usable_sets_reflect_borders_and_faults(self):
        topo = Mesh2D(4, 4)
        algo = RuleDrivenNafta()
        net = drained_net(algo, topo, fault_nodes=[(1, 1)])
        # corner (0,0): only east(0) and north(2) exist; (1,1) faulty
        # does not remove them
        usable = algo.engines[topo.node_at(0, 0)].registers.read("usable_set")
        assert usable == frozenset({0, 2})
        # (1,0): north neighbour (1,1) is faulty -> north unusable
        usable = algo.engines[topo.node_at(1, 0)].registers.read("usable_set")
        assert 2 not in usable
        assert 0 in usable and 1 in usable

    def test_refuses_deactivated_destinations(self):
        topo = Mesh2D(5, 5)
        net = drained_net(RuleDrivenNafta(), topo,
                          fault_nodes=[(1, 1), (2, 2)])
        assert net.offer(0, topo.node_at(1, 2), 3) is None


class TestRuleDrivenDifferential:
    def test_matches_native_nafta_fault_free(self):
        pairs = [(s, d) for s in range(0, 25, 3) for d in (7, 18) if s != d]
        results = {}
        for algo in (NaftaRouting(), RuleDrivenNafta()):
            net = drained_net(algo)
            msgs = [net.offer(s, d, 3) for s, d in pairs]
            net.run_until_drained()
            results[algo.name] = [m.hops for m in msgs]
        assert results["nafta"] == results["nafta_rules"]

    def test_same_delivery_set_under_faults(self):
        topo = Mesh2D(5, 5)
        pairs = [(s, d) for s in range(25) for d in range(25)
                 if s != d and (s * 25 + d) % 11 == 0]
        delivered = {}
        for algo_cls in (NaftaRouting, RuleDrivenNafta):
            ok = set()
            for s, d in pairs:
                net = drained_net(algo_cls(), Mesh2D(5, 5),
                                  fault_nodes=[(2, 2)])
                m = net.offer(s, d, 2)
                if m is None:
                    continue
                net.run_until_drained()
                if m.delivered is not None:
                    ok.add((s, d))
            delivered[algo_cls.__name__] = ok
        assert delivered["NaftaRouting"] == delivered["RuleDrivenNafta"]

    def test_traffic_run_without_deadlock(self):
        topo = Mesh2D(5, 5)
        net = drained_net(RuleDrivenNafta(), topo, fault_nodes=[(2, 2)])
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.1,
                                            message_length=3, seed=4))
        net.run(600)
        net.traffic = None
        net.run_until_drained()
        assert not net.undelivered()
        assert net.stats.mean_decision_steps > 1.0  # ft paths were used


# -- the diagnosis fixpoint --------------------------------------------------

def full_sweep(algo, topo, faults) -> int:
    """Reference diagnosis: ``fault_occured`` at the fault sites, then
    waves that re-run *every* healthy node's state rule bases, in
    ascending order, until no register file changes.  Returns the
    number of rule-machine runs."""
    runs = 0

    def fire(eng, inputs, posts):
        nonlocal runs
        eng.set_inputs(inputs)
        for event, arg in posts:
            eng.post(event, arg)
        eng.run()
        eng.drain_external()
        runs += 1

    for node in topo.nodes():
        eng = algo.engines[node]
        if not faults.node_ok(node):
            fire(eng, {"fault_kind": 0}, [("fault_occured", 0)])
            continue
        for d in range(4):
            port = topo.port(node, d)
            if port is not None and not faults.link_ok(node, port.neighbor):
                fire(eng, {"fault_kind": 1}, [("fault_occured", d)])
    for _ in range(topo.n_nodes + 2):
        changed = False
        for node in topo.nodes():
            if not faults.node_ok(node):
                continue
            nnew, nrun, linkok = {}, {}, {}
            for d in range(4):
                port = topo.port(node, d)
                view = ("ok", 0, "false")
                if port is not None:
                    nb = algo.engines[port.neighbor].registers
                    if not faults.link_ok(node, port.neighbor):
                        view = ("blocked", 0, "false")
                    elif nb.read("mystate") != "safe":
                        view = ("blocked", 0, "true")
                    else:
                        view = ("ok", nb.read("runc", (d,)), "true")
                nnew[(d,)], nrun[(d,)], linkok[(d,)] = view
            eng = algo.engines[node]
            before = eng.registers.snapshot()
            fire(eng, {"nnew": nnew, "nrun": nrun, "linkok": linkok,
                       "fault_kind": 1},
                 [(event, d) for d in range(4)
                  for event in ("calculate_new_node_state",
                                "consider_neighbor_state")])
            changed |= eng.registers.snapshot() != before
        if not changed:
            break
    return runs


def _snapshots(algo):
    return [eng.registers.snapshot() for eng in algo.engines]


FIXPOINT_FAULTS = {
    "node": ([(3, 3)], []),
    "deactivating-pair": ([(3, 3), (4, 4)], []),
    "node-and-link": ([(1, 5)], [((5, 2), (6, 2))]),
    "links": ([], [((0, 0), (1, 0)), ((7, 7), (7, 6)), ((3, 4), (4, 4))]),
}


class TestDiagnosisFixpoint:
    @pytest.mark.parametrize("case", sorted(FIXPOINT_FAULTS))
    def test_dirty_waves_reach_the_full_sweep_fixpoint(self, case):
        """Re-running only nodes whose registers or neighbour view
        changed settles every register file exactly where the full
        sweep does, with far fewer rule-machine runs."""
        topo = Mesh2D(8, 8)
        nodes, links = FIXPOINT_FAULTS[case]
        nodes = [topo.node_at(*c) for c in nodes]
        links = [(topo.node_at(*a), topo.node_at(*b)) for a, b in links]
        faults = FaultState(topo)
        for node in nodes:
            faults.fail_node(node)
        for link in links:
            faults.fail_link(*link)
        ref = RuleDrivenNafta()
        Network(topo, ref)
        for eng in ref.engines:
            eng.reset_state()
        full_sweep(ref, topo, FaultState(topo))
        clean = _snapshots(ref)
        full_runs = full_sweep(ref, topo, faults)

        algo = RuleDrivenNafta()
        net = Network(topo, algo)
        assert _snapshots(algo) == clean
        runs = []
        for eng in algo.engines:
            eng.run = lambda run=eng.run: runs.append(1) or run()
        net.schedule_faults(FaultSchedule.static(links=links, nodes=nodes))
        assert _snapshots(algo) == _snapshots(ref)
        assert _snapshots(algo) != clean
        assert len(runs) < full_runs / 3, (len(runs), full_runs)

    def test_fail_and_repair_restore_the_fault_free_registers(self):
        """Each update starts from the fault-free fixpoint, so a
        repaired link or node leaves no stale state (flt_links,
        deactivations) behind, whatever failed before it."""
        topo = Mesh2D(6, 6)
        algo = RuleDrivenNafta()
        net = Network(topo, algo)
        clean = _snapshots(algo)
        for a, b in sorted(topo.links())[::3]:
            net.faults.fail_link(a, b)
            algo.on_fault_update(net)
            assert _snapshots(algo) != clean
            net.faults.repair_link(a, b)
            algo.on_fault_update(net)
            assert _snapshots(algo) == clean, (a, b)
        for node in (topo.node_at(0, 0), topo.node_at(2, 3)):
            net.faults.fail_node(node)
            algo.on_fault_update(net)
            net.faults.repair_node(node)
            algo.on_fault_update(net)
            assert _snapshots(algo) == clean, node
