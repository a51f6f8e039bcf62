"""CDG deadlock-freedom checks — the machine-checked counterpart of
the deadlock arguments in the routing module docstrings."""

import networkx as nx
import pytest

from repro.analysis import build_cdg, check_deadlock_free
from repro.analysis.deadlock import find_cycle
from repro.routing import (DuatoMeshRouting, ECubeRouting, NaftaRouting,
                           NaraRouting, RouteCRouting, SpanningTreeRouting,
                           StrippedRouteC, XYRouting)
from repro.routing.base import RouteDecision, RoutingAlgorithm
from repro.sim import FaultSchedule, Hypercube, Mesh2D, Network


class TestFaultFree:
    @pytest.mark.parametrize("algo_cls", [XYRouting, NaraRouting,
                                          NaftaRouting])
    def test_mesh_algorithms_acyclic(self, algo_cls):
        r = check_deadlock_free(Mesh2D(5, 5), algo_cls())
        assert r.acyclic, r.cycle

    @pytest.mark.parametrize("algo_cls", [ECubeRouting, StrippedRouteC,
                                          RouteCRouting])
    def test_cube_algorithms_acyclic(self, algo_cls):
        r = check_deadlock_free(Hypercube(3), algo_cls())
        assert r.acyclic, r.cycle

    def test_spanning_tree_acyclic(self):
        r = check_deadlock_free(Mesh2D(5, 5), SpanningTreeRouting())
        assert r.acyclic, r.cycle


class TestWithFaults:
    @pytest.mark.parametrize("fault_coords", [
        [(2, 2)],
        [(2, 2), (3, 3)],
        [(1, 2), (2, 2), (3, 2)],        # a wall
        [(0, 2), (1, 2)],                # wall at the west border
    ])
    def test_nafta_acyclic_under_node_faults(self, fault_coords):
        topo = Mesh2D(6, 6)
        sched = FaultSchedule.static(
            nodes=[topo.node_at(*c) for c in fault_coords])
        r = check_deadlock_free(topo, NaftaRouting(), sched)
        assert r.acyclic, r.cycle

    @pytest.mark.parametrize("links", [
        [((2, 2), (3, 2))],
        [((0, 4), (1, 4)), ((2, 3), (2, 4))],
        [((4, 5), (5, 5)), ((4, 4), (5, 4)), ((4, 3), (5, 3))],
    ])
    def test_nafta_acyclic_under_link_faults(self, links):
        topo = Mesh2D(6, 6)
        sched = FaultSchedule.static(
            links=[(topo.node_at(*a), topo.node_at(*b)) for a, b in links])
        r = check_deadlock_free(topo, NaftaRouting(), sched)
        assert r.acyclic, r.cycle

    @pytest.mark.parametrize("dead", [[3], [3, 9], [1, 2, 4]])
    def test_route_c_acyclic_under_faults(self, dead):
        r = check_deadlock_free(Hypercube(4), RouteCRouting(),
                                FaultSchedule.static(nodes=dead))
        assert r.acyclic, r.cycle

    def test_route_c_acyclic_under_link_faults(self):
        r = check_deadlock_free(Hypercube(3), RouteCRouting(),
                                FaultSchedule.static(links=[(0, 1), (2, 6)]))
        assert r.acyclic, r.cycle


class BadUTurnRouting(RoutingAlgorithm):
    """Deliberately broken: minimal XY that also offers the reverse
    port, creating two-channel cycles — the checker must catch it."""

    name = "bad_uturn"
    n_vcs = 1

    def check_topology(self, topology):
        pass

    def route(self, router, header, in_port, in_vc):
        topo = router.topology
        if router.node == header.dst:
            return RouteDecision.delivery()
        ports = list(topo.minimal_ports(router.node, header.dst))
        if in_port >= 0:
            ports.append(in_port)  # the poison: u-turn dependency
        return RouteDecision(candidates=[(p, 0) for p in ports])


class BadRingRouting(RoutingAlgorithm):
    """Deliberately broken: unrestricted clockwise routing on a mesh
    ring — the classic cyclic-dependency example."""

    name = "bad_ring"
    n_vcs = 1

    def check_topology(self, topology):
        pass

    def route(self, router, header, in_port, in_vc):
        from repro.sim import EAST, NORTH, SOUTH, WEST
        topo = router.topology
        if router.node == header.dst:
            return RouteDecision.delivery()
        x, y = topo.coords(router.node)
        w, h = topo.width - 1, topo.height - 1
        # walk the outer ring clockwise: E along the bottom, N up the
        # east side, W along the top, S down the west side
        if y == 0 and x < w:
            port = EAST
        elif x == w and y < h:
            port = NORTH
        elif y == h and x > 0:
            port = WEST
        else:
            port = SOUTH
        return RouteDecision(candidates=[(port, 0)])


class TestNegativeControls:
    def test_uturn_cycle_detected(self):
        r = check_deadlock_free(Mesh2D(4, 4), BadUTurnRouting())
        assert not r.acyclic
        assert len(r.cycle) >= 2

    def test_ring_cycle_detected(self):
        r = check_deadlock_free(Mesh2D(4, 4), BadRingRouting())
        assert not r.acyclic


class TestCdgMechanics:
    def test_channel_counts(self):
        # 5x5 mesh: 40 links x 2 directions x 1 vc = 80 channels for XY
        r = check_deadlock_free(Mesh2D(5, 5), XYRouting())
        assert r.summary()["channels"] == 80

    def test_reachability_pruning(self):
        """The CDG only contains channels some message can use: XY never
        enters a north/south channel and then an east/west one."""
        net = Network(Mesh2D(4, 4), XYRouting())
        r = build_cdg(net)
        from repro.sim import EAST, NORTH, SOUTH, WEST
        for (na, pa, _), (nb, pb, _) in r.edges():
            if pa in (NORTH, SOUTH):
                assert pb in (NORTH, SOUTH), "XY turned off the y axis"


def _closed_path_in(cycle, succ) -> bool:
    return (len(cycle) >= 2 and cycle[0] == cycle[-1]
            and all(b in succ[a] for a, b in zip(cycle, cycle[1:])))


class TestFindCycle:
    """The cycle finder on planted graphs: a reported cycle is a closed
    path whose every step is an edge; an acyclic graph reports None."""

    def test_two_cycle(self):
        succ = {"a": {"b": None}, "b": {"a": None}}
        cycle = find_cycle(succ)
        assert _closed_path_in(cycle, succ) and len(cycle) == 3

    def test_self_loop(self):
        assert find_cycle({"a": {"a": None}}) == ["a", "a"]

    def test_self_loop_among_others(self):
        # successor lists and int nodes, as the stall watchdog's
        # wait-for graph has them; a successor with no entry is a leaf
        assert find_cycle({0: [1], 1: [3], 2: [2]}) == [2, 2]

    def test_empty_graph(self):
        assert find_cycle({}) is None

    def test_long_cycle_behind_a_tail(self):
        n = 500
        succ = {i: {i + 1: None} for i in range(n)}
        succ[n] = {100: None}
        cycle = find_cycle(succ)
        assert _closed_path_in(cycle, succ)
        assert sorted(set(cycle)) == list(range(100, n + 1))

    def test_diamond_dag_is_acyclic(self):
        succ = {"s": {"l": None, "r": None}, "l": {"t": None},
                "r": {"t": None}, "t": {}}
        assert find_cycle(succ) is None

    def test_deep_chain_does_not_recurse(self):
        n = 100_000
        succ = {i: {i + 1: None} for i in range(n)}
        assert find_cycle(succ) is None

    @pytest.mark.parametrize("algo", [BadUTurnRouting, BadRingRouting,
                                      DuatoMeshRouting])
    def test_same_cycle_as_networkx(self, algo):
        r = check_deadlock_free(Mesh2D(4, 4), algo())
        g = nx.DiGraph()
        g.add_nodes_from(r.succ)
        g.add_edges_from(r.edges())
        edges = nx.find_cycle(g)
        assert r.cycle == [a for a, _ in edges] + [edges[-1][1]]
        assert _closed_path_in(r.cycle, r.succ)


class DictFieldRouting(RoutingAlgorithm):
    """Minimal mesh routing with a dict-valued header field mutated in
    place: ``route()`` stamps the node into ``hop``, ``on_depart`` the
    chosen port.  Were the successors of one state to share ``hop``,
    the last candidate's port would show at every successor's next
    ``route()``, which records it as a leak."""

    name = "dict_field"
    n_vcs = 1

    def __init__(self):
        super().__init__()
        self.leaks = []
        self.checked = 0

    def check_topology(self, topology):
        pass

    def route(self, router, header, in_port, in_vc):
        topo = router.topology
        hop = header.fields.get("hop")
        if hop is not None:
            came = topo.port(hop["node"], hop["port"])
            self.checked += 1
            if (came.neighbor, came.neighbor_port) != (router.node, in_port):
                self.leaks.append((router.node, in_port, dict(hop)))
        if router.node == header.dst:
            return RouteDecision.delivery()
        header.fields.setdefault("hop", {})["node"] = router.node
        return RouteDecision(candidates=[
            (p, 0) for p in topo.minimal_ports(router.node, header.dst)])

    def on_depart(self, router, header, out_port, out_vc):
        super().on_depart(router, header, out_port, out_vc)
        header.fields["hop"]["port"] = out_port


def test_dict_header_field_never_leaks_between_states():
    algo = DictFieldRouting()
    build_cdg(Network(Mesh2D(4, 4), algo))
    assert algo.checked > 0
    assert algo.leaks == []
