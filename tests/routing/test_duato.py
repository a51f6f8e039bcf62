"""Tests for the Duato-style dynamic deadlock-avoidance scheme and the
paper's Section-3 claim about its fault vulnerability."""

import networkx as nx

from repro.analysis import build_cdg, check_deadlock_free
from repro.routing import DuatoMeshRouting, NaftaRouting
from repro.sim import (FaultSchedule, Mesh2D, Network, SimConfig,
                       TrafficGenerator)


class TestFaultFreeBehaviour:
    def test_minimal_delivery(self):
        net = Network(Mesh2D(5, 5), DuatoMeshRouting())
        m = net.offer(0, 24, 3)
        net.run_until_drained()
        assert m.hops == net.topology.distance(0, 24) + 1

    def test_heavy_load_no_deadlock(self):
        """Duato's protocol survives loads that would wedge a purely
        adaptive scheme: the escape network drains blocked worms."""
        net = Network(Mesh2D(6, 6), DuatoMeshRouting(),
                      config=SimConfig(buffer_depth=2))
        net.attach_traffic(TrafficGenerator(net.topology, "transpose",
                                            load=0.35, message_length=4,
                                            seed=5))
        net.run(2000)
        net.traffic = None
        net.run_until_drained()
        assert not net.undelivered()

    def test_escape_commitment_is_sticky(self):
        """Once a worm departs on the escape VC it never returns to the
        adaptive network (the conservative Duato variant)."""
        algo = DuatoMeshRouting()
        net = Network(Mesh2D(5, 5), algo)
        from repro.sim.flit import Header
        hdr = Header(msg_id=0, src=0, dst=12, length=2, created=0)
        algo.on_depart(net.routers[0], hdr, 0, 0)  # escape departure
        decision = algo.route(net.routers[1], hdr, 1, 0)
        assert all(vc == 0 for _, vc in decision.candidates)


class TestCdgIsCyclicYetDeadlockFree:
    """The adaptive channels form dependency cycles: this algorithm is
    the living proof that Dally/Seitz acyclicity is sufficient but not
    necessary (Duato's theorem covers it)."""

    def test_cdg_has_cycles(self):
        r = check_deadlock_free(Mesh2D(4, 4), DuatoMeshRouting())
        assert not r.acyclic

    def test_cycles_confined_to_adaptive_channels(self):
        net = Network(Mesh2D(4, 4), DuatoMeshRouting())
        r = build_cdg(net)
        g = nx.DiGraph(r.edges())
        escape_sub = g.subgraph([c for c in g.nodes if c[2] == 0])
        assert nx.is_directed_acyclic_graph(escape_sub)


class TestFaultVulnerability:
    """Paper Section 3: 'the fault of one link can separate several
    node pairs in the statically deadlock-free network which cannot be
    compensated by the dynamic extensions'."""

    def test_single_link_fault_severs_adjacent_pair(self):
        topo = Mesh2D(6, 6)
        net = Network(topo, DuatoMeshRouting())
        a, b = topo.node_at(2, 2), topo.node_at(3, 2)
        net.schedule_faults(FaultSchedule.static(links=[(a, b)]))
        m = net.offer(a, b, 3)
        net.run_until_drained()
        assert m.delivered is None
        assert net.stats.messages_stuck == 1

    def test_nafta_survives_the_same_fault(self):
        topo = Mesh2D(6, 6)
        net = Network(topo, NaftaRouting())
        a, b = topo.node_at(2, 2), topo.node_at(3, 2)
        net.schedule_faults(FaultSchedule.static(links=[(a, b)]))
        m = net.offer(a, b, 3)
        net.run_until_drained()
        assert m.delivered is not None
        assert m.hops == 4  # the 3-hop detour + ejection

    def test_pairs_with_surviving_minimal_path_still_work(self):
        topo = Mesh2D(6, 6)
        net = Network(topo, DuatoMeshRouting())
        net.schedule_faults(FaultSchedule.static(
            links=[(topo.node_at(2, 2), topo.node_at(3, 2))]))
        m = net.offer(topo.node_at(0, 0), topo.node_at(5, 5), 3)
        net.run_until_drained()
        assert m.delivered is not None

    def test_severed_pair_count_single_fault(self):
        """Count how many ordered pairs one central link fault severs
        for the dynamic scheme (> 0) versus NAFTA (0)."""
        topo = Mesh2D(5, 5)
        fault = (topo.node_at(2, 2), topo.node_at(2, 3))
        severed = {}
        for algo_cls in (DuatoMeshRouting, NaftaRouting):
            count = 0
            for s, d in [(fault[0], fault[1]), (fault[1], fault[0])]:
                net = Network(Mesh2D(5, 5), algo_cls())
                net.schedule_faults(FaultSchedule.static(links=[fault]))
                m = net.offer(s, d, 2)
                if m is None:
                    count += 1
                    continue
                net.run_until_drained()
                if m.delivered is None:
                    count += 1
            severed[algo_cls.__name__] = count
        assert severed["DuatoMeshRouting"] == 2
        assert severed["NaftaRouting"] == 0
