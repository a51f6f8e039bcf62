"""Tests for up*/down* routing (any-topology fault tolerance)."""

import numpy as np
import pytest

from repro.analysis import check_condition1, check_deadlock_free
from repro.routing import SpanningTreeRouting, UpDownRouting
from repro.sim import (FaultSchedule, Hypercube, Mesh2D, Network, SimConfig,
                       TrafficGenerator, random_link_faults)


class TestConfiguration:
    def test_every_healthy_node_keyed(self):
        net = Network(Mesh2D(4, 4), UpDownRouting())
        algo = net.algorithm
        assert set(algo.key) == set(range(16))
        assert algo.key[0] == (0, 0)  # the root

    def test_root_reaches_everything_downward(self):
        net = Network(Mesh2D(4, 4), UpDownRouting())
        algo = net.algorithm
        assert algo.down_reach[0] == frozenset(range(16))

    def test_everyone_reaches_everything_updown(self):
        net = Network(Mesh2D(4, 4), UpDownRouting())
        algo = net.algorithm
        for n in range(16):
            assert algo.updown_reach[n] == frozenset(range(16))

    def test_faults_shrink_key_set(self):
        topo = Mesh2D(3, 1)
        net = Network(topo, UpDownRouting())
        net.schedule_faults(FaultSchedule.static(nodes=[1]))
        algo = net.algorithm
        assert set(algo.key) == {0}  # nodes 2 disconnected from root 0

    def test_dead_root_relocates(self):
        net = Network(Mesh2D(3, 3), UpDownRouting())
        net.schedule_faults(FaultSchedule.static(nodes=[0]))
        algo = net.algorithm
        assert 0 not in algo.key
        assert len(algo.key) == 8


class TestDelivery:
    @pytest.mark.parametrize("topo_factory", [
        lambda: Mesh2D(5, 5), lambda: Mesh2D(4, 4),
        lambda: Hypercube(3), lambda: Mesh2D(3, 5)])
    def test_delivers_on_every_topology(self, topo_factory):
        topo = topo_factory()
        net = Network(topo, UpDownRouting())
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.1,
                                            message_length=3, seed=2))
        net.run(800)
        net.traffic = None
        net.run_until_drained()
        assert not net.undelivered()
        assert net.stats.messages_stuck == 0

    def test_uses_cross_links_unlike_tree(self):
        """up*/down* beats pure tree routing on hop counts because it
        may use every healthy link."""
        hops = {}
        for algo_cls in (SpanningTreeRouting, UpDownRouting):
            topo = Mesh2D(5, 5)
            net = Network(topo, algo_cls())
            pairs = [(s, d) for s in range(25) for d in range(25)
                     if s != d and (s + 2 * d) % 7 == 0]
            msgs = [net.offer(s, d, 2) for s, d in pairs]
            net.run_until_drained()
            hops[algo_cls.__name__] = sum(m.hops for m in msgs)
        assert hops["UpDownRouting"] < hops["SpanningTreeRouting"]

    def test_condition3_on_connected_faulty_mesh(self):
        topo = Mesh2D(4, 4)
        rng = np.random.default_rng(7)
        links = random_link_faults(topo, 6, rng)
        net = Network(topo, UpDownRouting())
        net.schedule_faults(FaultSchedule.static(links=links))
        for s in range(16):
            for d in range(16):
                if s != d:
                    assert net.algorithm.accepts(s, d)
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.08,
                                            message_length=3, seed=9))
        net.run(1000)
        net.traffic = None
        net.run_until_drained()
        assert not net.undelivered()
        assert net.stats.messages_stuck == 0

    def test_phase_is_one_way(self):
        topo = Mesh2D(4, 4)
        net = Network(topo, UpDownRouting(), config=SimConfig(trace_paths=True))
        algo = net.algorithm
        msgs = [net.offer(s, d, 2) for s in (5, 15, 12) for d in (3, 10)
                if s != d]
        net.run_until_drained()
        for m in msgs:
            trace = m.header.fields["trace"]
            keys = [algo.key[n] for n in trace]
            went_down = False
            for a, b in zip(keys, keys[1:]):
                if b > a:
                    went_down = True
                else:
                    assert not went_down, "up move after a down move"


class TestDeadlockAndConditions:
    @pytest.mark.parametrize("topo_factory", [
        lambda: Mesh2D(4, 4), lambda: Mesh2D(3, 5), lambda: Hypercube(3)])
    def test_cdg_acyclic(self, topo_factory):
        r = check_deadlock_free(topo_factory(), UpDownRouting())
        assert r.acyclic, r.cycle

    def test_cdg_acyclic_with_faults(self):
        topo = Mesh2D(4, 4)
        rng = np.random.default_rng(1)
        links = random_link_faults(topo, 4, rng)
        r = check_deadlock_free(topo, UpDownRouting(),
                                FaultSchedule.static(links=links))
        assert r.acyclic, r.cycle

    def test_not_fully_adaptive(self):
        """up*/down* concentrates traffic near the root: Condition 1
        does not hold (it is the price of topology independence)."""
        net = Network(Mesh2D(4, 4), UpDownRouting())
        res = check_condition1(net, [(15, 0), (12, 3)])
        assert not res.satisfied
