"""Integration tests of the wormhole network with oblivious baselines."""

import pytest

from repro.routing.dimension_order import ECubeRouting, XYRouting
from repro.sim import (FaultSchedule, Hypercube, Mesh2D, Network, SimConfig,
                       TrafficGenerator)


def drain(net, max_cycles=100_000):
    net.run_until_drained(max_cycles)


class TestSingleMessage:
    def test_mesh_delivery(self):
        net = Network(Mesh2D(4, 4), XYRouting())
        m = net.offer(0, 15, 4)
        drain(net)
        assert m.delivered is not None
        assert m.hops == 7  # 6 router-to-router + ejection

    def test_zero_hop_to_self_adjacent(self):
        net = Network(Mesh2D(4, 4), XYRouting())
        m = net.offer(0, 1, 2)
        drain(net)
        assert m.delivered is not None
        assert m.hops == 2

    def test_latency_grows_with_length(self):
        lat = {}
        for length in (1, 8):
            net = Network(Mesh2D(4, 4), XYRouting())
            m = net.offer(0, 15, length)
            drain(net)
            lat[length] = m.latency
        assert lat[8] == lat[1] + 7  # pipelined worm: +1 cycle per flit

    def test_xy_path_is_x_first(self):
        net = Network(Mesh2D(4, 4), XYRouting(),
                      config=SimConfig(trace_paths=True))
        m = net.offer(0, 15, 2)
        drain(net)
        topo = net.topology
        trace = m.header.fields["trace"]
        xs = [topo.coords(n)[0] for n in trace]
        ys = [topo.coords(n)[1] for n in trace]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        # x is fully corrected before y moves
        assert ys[: xs.index(3) + 1] == [0] * (xs.index(3) + 1)

    def test_hypercube_delivery(self):
        net = Network(Hypercube(4), ECubeRouting())
        m = net.offer(0b0000, 0b1011, 4)
        drain(net)
        assert m.delivered is not None
        assert m.hops == 4  # 3 dimensions + ejection

    def test_unroutable_to_dead_destination(self):
        net = Network(Mesh2D(4, 4), XYRouting())
        net.schedule_faults(FaultSchedule.static(nodes=[15]))
        assert net.offer(0, 15, 4) is None
        assert net.stats.messages_unroutable == 1


class TestWormholeInvariants:
    def test_no_buffer_overflow_under_load(self):
        cfg = SimConfig(buffer_depth=2)
        net = Network(Mesh2D(4, 4), XYRouting(), config=cfg)
        net.attach_traffic(TrafficGenerator(net.topology, "uniform",
                                            load=0.4, message_length=6,
                                            seed=11))
        for _ in range(800):
            net.step()
            for r in net.routers:
                for vcs in r.input_vcs.values():
                    for iv in vcs:
                        assert len(iv.buffer) + len(iv.incoming) <= iv.capacity

    def test_flit_conservation(self):
        net = Network(Mesh2D(4, 4), XYRouting())
        net.attach_traffic(TrafficGenerator(net.topology, "uniform",
                                            load=0.3, message_length=4,
                                            seed=5))
        net.run(500)
        net.traffic = None
        drain(net)
        created = sum(m.header.length for m in net.messages.values())
        assert net.stats.flits_delivered == created

    def test_worms_do_not_interleave(self):
        """All flits of a message arrive contiguously per message id."""
        seen_order = []
        net = Network(Mesh2D(4, 4), XYRouting())
        orig_eject = net.eject

        def spy(node, flit, cycle):
            seen_order.append((node, flit.msg_id, flit.seq))
            orig_eject(node, flit, cycle)

        net.eject = spy
        net.offer(0, 5, 6)
        net.offer(3, 5, 6)
        net.offer(12, 5, 6)
        drain(net)
        per_node: dict = {}
        for node, msg_id, seq in seen_order:
            per_node.setdefault(node, []).append((msg_id, seq))
        for flits in per_node.values():
            # sequence numbers per message strictly increase
            last = {}
            for msg_id, seq in flits:
                assert seq == last.get(msg_id, -1) + 1
                last[msg_id] = seq

    def test_messages_all_delivered_moderate_load(self):
        net = Network(Mesh2D(6, 6), XYRouting())
        net.attach_traffic(TrafficGenerator(net.topology, "uniform",
                                            load=0.15, message_length=4,
                                            seed=9))
        net.run(1000)
        net.traffic = None
        drain(net)
        assert not net.undelivered()
        assert net.stats.messages_dropped == 0


class TestDecisionLatency:
    def test_slower_decisions_increase_latency(self):
        lat = {}
        for cps in (1, 3):
            net = Network(Mesh2D(4, 4), XYRouting(),
                          config=SimConfig(cycles_per_step=cps))
            m = net.offer(0, 15, 4)
            drain(net)
            lat[cps] = m.latency
        # 7 decisions on the path, each 2 cycles slower
        assert lat[3] - lat[1] == 7 * 2


class TestHarshFaults:
    def test_worm_ripped_up_on_link_fault(self):
        cfg = SimConfig(fault_mode="harsh")
        net = Network(Mesh2D(4, 4), XYRouting(), config=cfg)
        # long worm crossing the (1,0)-(2,0) link
        m = net.offer(0, 3, 30)
        for _ in range(8):
            net.step()
        sched = FaultSchedule()
        sched.add_link_fault(net.cycle, 1, 2)
        net.fault_schedule = sched
        net.step()
        assert m.dropped
        assert net.in_flight() == 0  # all flits purged


class TestStats:
    def test_throughput_matches_offered_load_below_saturation(self):
        net = Network(Mesh2D(6, 6), XYRouting())
        net.attach_traffic(TrafficGenerator(net.topology, "uniform",
                                            load=0.1, message_length=4,
                                            seed=2))
        net.set_warmup(300)
        net.run(2500)
        thr = net.stats.throughput(net.topology.n_nodes)
        assert thr == pytest.approx(0.1, rel=0.2)

    def test_decision_steps_counted(self):
        net = Network(Mesh2D(4, 4), XYRouting())
        net.offer(0, 15, 2)
        drain(net)
        assert net.stats.decisions == 7
        assert net.stats.mean_decision_steps == 1.0
