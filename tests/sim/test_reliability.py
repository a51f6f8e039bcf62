"""End-to-end reliability layer: per-node diagnosis, source
retransmission, the health watchdog, and the harsh-mode fault path.

The digest tests pin fixed-seed runs byte-for-byte: the reliability
knobs all default to off, and enabling none of them must reproduce the
legacy simulator exactly (the acceptance bar for the diagnosis
refactor — existing benchmarks and paper tables are unaffected).
"""

import hashlib
import json

import pytest

from repro.routing.base import RouteDecision, RoutingAlgorithm
from repro.routing.registry import make_algorithm
from repro.sim import (EAST, NORTH, SOUTH, WEST, DeadlockError,
                       DiagnosisEngine, FaultEvent, FaultSchedule,
                       FaultState, Hypercube, Mesh2D, Network, SimConfig,
                       TrafficGenerator, diagnose_stall, link_key,
                       random_node_faults)


def _run_digest(algo, topo, cfg, seed=11, cycles=1200, faults=None,
                with_drops=False):
    net = Network(topo, make_algorithm(algo), config=cfg)
    if faults:
        net.schedule_faults(faults)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.12,
                                        message_length=4, seed=seed))
    net.set_warmup(200)
    net.run(cycles)
    net.traffic = None
    net.run_until_drained()
    if with_drops:
        order = [(m.header.msg_id, m.injected, m.delivered, m.hops,
                  m.dropped) for m in net.messages.values()]
    else:
        order = [(m.header.msg_id, m.injected, m.delivered, m.hops)
                 for m in net.messages.values()]
    blob = json.dumps({"stats": net.stats.summary(topo.n_nodes),
                       "order": order}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestNeutralityDigests:
    """Default-off knobs leave fixed-seed runs bit-identical."""

    def test_nafta_quiesce(self):
        assert _run_digest("nafta", Mesh2D(6, 6),
                           SimConfig()) == "39e1be944b8f9354"

    def test_nafta_quiesce_boot_faults(self):
        assert _run_digest(
            "nafta", Mesh2D(6, 6), SimConfig(),
            faults=FaultSchedule.static(links=[(14, 15)])
        ) == "0554db33d1a21ada"

    def test_route_c_quiesce(self):
        assert _run_digest("route_c", Hypercube(4),
                           SimConfig()) == "3455ac1deea910df"

    def test_nafta_harsh_midflight(self):
        topo = Mesh2D(6, 6)
        s = FaultSchedule()
        s.add_link_fault(300, topo.node_at(2, 2), topo.node_at(3, 2))
        net = Network(topo, make_algorithm("nafta"),
                      config=SimConfig(fault_mode="harsh",
                                       detection_delay=60))
        net.schedule_faults(s)
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.10,
                                            message_length=4, seed=13))
        net.run(1500)
        net.traffic = None
        net.run_until_drained()
        order = [(m.header.msg_id, m.injected, m.delivered, m.hops,
                  m.dropped) for m in net.messages.values()]
        blob = json.dumps({"stats": net.stats.summary(36), "order": order},
                          sort_keys=True)
        assert hashlib.sha256(
            blob.encode()).hexdigest()[:16] == "b2f9f732cf19efb0"


class TestDiagnosisEngine:
    def test_eta_scales_with_hop_distance(self):
        topo = Mesh2D(5, 1)   # path 0-1-2-3-4
        truth = FaultState(topo)
        eng = DiagnosisEngine(topo, truth, hop_delay=5)
        ev = FaultEvent(100, "link", link_key(0, 1))
        truth.apply(ev)
        done = eng.start_flood(ev, 100)
        # sites are the endpoints; node 4 is 3 healthy hops from node 1
        assert eng.eta(0, ev) == 100
        assert eng.eta(1, ev) == 100
        assert eng.eta(2, ev) == 105
        assert eng.eta(3, ev) == 110
        assert eng.eta(4, ev) == 115
        assert done == 115

    def test_views_update_progressively(self):
        topo = Mesh2D(5, 1)
        truth = FaultState(topo)
        eng = DiagnosisEngine(topo, truth, hop_delay=5)
        ev = FaultEvent(100, "link", link_key(0, 1))
        truth.apply(ev)
        eng.start_flood(ev, 100)
        assert eng.deliver_due(104) == []      # only sites notified so far
        assert not eng.view(2).dead_links
        assert eng.view(0).dead_links == {(0, 1)}
        assert eng.deliver_due(110) == []      # node 4 still pending
        assert eng.view(3).dead_links == {(0, 1)}
        assert not eng.view(4).dead_links
        completed = eng.deliver_due(115)
        assert len(completed) == 1
        event, reached = completed[0]
        assert event is ev
        assert sorted(reached) == [0, 1, 2, 3, 4]
        assert not eng.pending()

    def test_partitioned_node_never_learns(self):
        topo = Mesh2D(3, 1)   # path 0-1-2
        truth = FaultState(topo)
        truth.fail_node(1)    # already dead: 0 and 2 are partitioned
        eng = DiagnosisEngine(topo, truth, hop_delay=1)
        ev = FaultEvent(50, "link", link_key(1, 2))
        truth.apply(ev)
        eng.start_flood(ev, 50)
        eng.deliver_due(10_000)
        assert eng.eta(2, ev) == 50       # live endpoint detects
        assert eng.eta(0, ev) is None     # cut off: never notified
        assert not eng.view(0).dead_links

    def test_views_share_labellings_equal_to_fresh_ones(self, monkeypatch):
        """Views holding the same fault set share one component
        labelling, and at every step of the floods each view answers
        exactly as a fresh labelling of its own fault set."""
        topo = Mesh2D(4, 4)
        truth = FaultState(topo)
        eng = DiagnosisEngine(topo, truth, hop_delay=1)
        labelled = []
        label = FaultState._label_components

        def counted(state):
            if state._shared is not None:
                labelled.append(state.snapshot())
            return label(state)
        monkeypatch.setattr(FaultState, "_label_components", counted)
        # the corner node 0 is cut off once both of its links are known
        events = [FaultEvent(10, "link", link_key(0, 1)),
                  FaultEvent(12, "link", link_key(0, 4)),
                  FaultEvent(12, "node", 10)]
        seen = set()
        for cycle in range(10, 24):
            for ev in events:
                if ev.cycle == cycle:
                    truth.apply(ev)
                    eng.start_flood(ev, cycle)
            eng.deliver_due(cycle)
            for node, view in enumerate(eng.views):
                fresh = FaultState(topo)
                fresh.dead_links |= view.dead_links
                fresh.dead_nodes |= view.dead_nodes
                assert view._component_labels() == \
                    fresh._component_labels()
                assert [view.connected(node, b) for b in topo.nodes()] \
                    == [fresh.connected(node, b) for b in topo.nodes()]
                seen.add(view.snapshot())
        assert not eng.pending()
        assert not eng.view(5).connected(5, 0)
        assert len(labelled) == len(set(labelled)) == len(seen) > 3

    def test_boot_faults_prediagnosed_everywhere(self):
        topo = Mesh2D(3, 3)
        truth = FaultState(topo)
        eng = DiagnosisEngine(topo, truth, hop_delay=7)
        ev = FaultEvent(0, "node", 4)
        eng.seed_boot(ev)
        for node in topo.nodes():
            assert eng.eta(node, ev) == 0
            assert not eng.view(node).node_ok(4)

    def test_hop_delay_must_be_positive(self):
        topo = Mesh2D(2, 2)
        with pytest.raises(ValueError):
            DiagnosisEngine(topo, FaultState(topo), hop_delay=0)


def _harsh_retry_net(retry_limit=4, hop_delay=3, detection_delay=40,
                     load=0.30, length=12, seed=13):
    topo = Mesh2D(6, 6)
    cfg = SimConfig(fault_mode="harsh", detection_delay=detection_delay,
                    diagnosis_hop_delay=hop_delay,
                    retry_limit=retry_limit, retry_backoff=8)
    net = Network(topo, make_algorithm("nafta"), config=cfg)
    s = FaultSchedule()
    s.add_link_fault(300, topo.node_at(2, 2), topo.node_at(3, 2))
    net.schedule_faults(s)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=load,
                                        message_length=length, seed=seed))
    return net, topo


class TestSourceRetransmission:
    def test_ripped_up_worms_recover(self):
        net, topo = _harsh_retry_net()
        net.run(1500)
        net.traffic = None
        net.run_until_drained()
        st = net.stats
        assert st.messages_dropped >= 1            # rip-up happened
        assert st.messages_retried >= 1
        assert st.messages_recovered >= 1
        assert st.messages_dead_lettered == 0
        assert st.mean_time_to_recover > 0
        assert st.max_time_to_recover >= st.mean_time_to_recover
        # every retransmitted copy records its lineage
        retries = [m for m in net.messages.values()
                   if "retry_of" in m.header.fields]
        assert len(retries) == st.messages_retried
        for m in retries:
            f = m.header.fields
            assert f["root_id"] in net.messages
            assert f["attempt"] >= 1
            assert f["first_dropped"] <= m.header.created

    def test_release_waits_for_source_view_plus_backoff(self):
        net, topo = _harsh_retry_net()
        net.run(1500)
        net.traffic = None
        net.run_until_drained()
        assert net.diagnosis is not None
        for m in net.messages.values():
            f = m.header.fields
            if "retry_of" not in f:
                continue
            # re-injected no earlier than the source's view could have
            # confirmed the killing fault
            etas = [net.diagnosis.eta(m.header.src, ev)
                    for ev in net.fault_schedule.events]
            known = [e for e in etas if e is not None]
            if known:
                assert m.header.created >= min(known)

    def test_retry_cap_dead_letters(self):
        net, topo = _harsh_retry_net(retry_limit=2)
        # a message whose attempt count is already at the cap is not
        # retried again but accounted as a dead letter
        msg = net.offer(0, 35, 4, attempt=2, root_id=999, first_dropped=10)
        assert msg is not None
        before = net.stats.messages_dead_lettered
        net._schedule_retry(msg)
        assert net.stats.messages_dead_lettered == before + 1
        assert 999 in net.dead_letters

    def test_dead_destination_dead_letters_at_release(self):
        topo = Mesh2D(4, 4)
        cfg = SimConfig(fault_mode="harsh", retry_limit=3)
        net = Network(topo, make_algorithm("nafta"), config=cfg)
        msg = net.offer(0, 15, 4)
        assert msg is not None
        net.faults.fail_node(15)
        net.known_faults.fail_node(15)
        before = net.stats.messages_dead_lettered
        net._release_retry(0, 15, 4, {"root_id": msg.header.msg_id,
                                      "retry_of": msg.header.msg_id,
                                      "attempt": 1, "first_dropped": 0,
                                      "orig_created": 0})
        assert net.stats.messages_dead_lettered == before + 1
        assert net.stats.messages_retried == 0

    def test_exponential_backoff_schedule(self):
        net, topo = _harsh_retry_net(retry_limit=4)
        msg = net.offer(0, 35, 4)
        net._schedule_retry(msg)                 # attempt 1, no event
        release1 = net._pending_retries[0][0]
        assert release1 == net.cycle + net.config.retry_backoff
        msg2 = net.offer(1, 34, 4, attempt=2)    # next try: attempt 3
        net._schedule_retry(msg2)
        release3 = max(r[0] for r in net._pending_retries)
        assert release3 == net.cycle + net.config.retry_backoff * 4


class _RingRouting(RoutingAlgorithm):
    """Deliberately deadlocks on a 2x2 mesh: every message follows the
    clockwise ring 0 -> 1 -> 3 -> 2 -> 0 on one VC."""

    name = "test_ring"
    n_vcs = 1
    adaptive = False
    _next_port = {0: EAST, 1: NORTH, 3: WEST, 2: SOUTH}

    def route(self, router, header, in_port, in_vc):
        if router.node == header.dst:
            return RouteDecision.delivery()
        return RouteDecision(candidates=[(self._next_port[router.node], 0)])


class TestWatchdog:
    def _deadlocked_net(self):
        topo = Mesh2D(2, 2)
        cfg = SimConfig(deadlock_threshold=60, buffer_depth=2)
        net = Network(topo, _RingRouting(), config=cfg)
        # four 2-hop worms, injected together, each long enough to span
        # both of its links: a guaranteed circular wait
        for src, dst in ((0, 3), (1, 2), (3, 0), (2, 1)):
            net.offer(src, dst, 12)
        return net

    def test_deadlock_error_carries_structured_diagnosis(self):
        net = self._deadlocked_net()
        with pytest.raises(DeadlockError) as ei:
            net.run(2000)
        diag = ei.value.diagnosis
        assert diag is not None
        assert diag.flits_in_flight > 0
        assert len(diag.worms) >= 2
        assert diag.holding_nodes
        # the circular wait is real and reported as a cycle of channels:
        # all four worms, each once (an open list, no closing repeat),
        # each waiting on the next, and one held channel per worm
        cyc = diag.blocking_cycle
        assert sorted(cyc) == sorted(w.msg_id for w in diag.worms) \
            == [0, 1, 2, 3]
        waits = {w.msg_id: w.waiting_on for w in diag.worms}
        assert all(b in waits[a] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        assert len(diag.cycle_channels) == len(set(diag.cycle_channels)) \
            == 4
        summary = diag.summary()
        assert summary["stalled_worms"] == len(diag.worms)
        text = diag.describe()
        assert "worm" in text
        assert "blocking cycle" in text

    def test_run_until_drained_diagnosis(self):
        net = self._deadlocked_net()
        with pytest.raises(DeadlockError) as ei:
            net.run_until_drained(max_cycles=500)
        assert ei.value.diagnosis is not None

    def test_diagnose_stall_on_healthy_net_is_benign(self):
        topo = Mesh2D(4, 4)
        net = Network(topo, make_algorithm("xy"))
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.1,
                                            message_length=4, seed=3))
        net.run(50)
        diag = diagnose_stall(net)
        assert diag.cycle == net.cycle
        assert diag.flits_in_flight == net._flits_in_flight()

    def test_hop_budget_drops_livelocked_messages(self):
        topo = Mesh2D(4, 4)
        cfg = SimConfig(fault_mode="harsh", hop_budget=3,
                        deadlock_threshold=200)
        net = Network(topo, _SpiralRouting(), config=cfg)
        net.offer(0, 15, 4)
        net.run(600)
        assert net.stats.messages_stuck == 1
        assert not net._flits_in_flight()


class _SpiralRouting(RoutingAlgorithm):
    """Never delivers: pushes everything around the mesh perimeter so
    the hop budget is the only thing that stops it."""

    name = "test_spiral"
    n_vcs = 1
    adaptive = False

    def route(self, router, header, in_port, in_vc):
        topo = router.topology
        x, y = topo.coords(router.node)
        w, h = topo.width - 1, topo.height - 1
        if y == 0 and x < w:
            port = EAST
        elif x == w and y < h:
            port = NORTH
        elif y == h and x > 0:
            port = WEST
        else:
            port = SOUTH
        return RouteDecision(candidates=[(port, 0)])


class TestHarshFaultPath:
    def test_detection_delay_stall_then_rip_up(self):
        net, topo = _harsh_retry_net(hop_delay=2, detection_delay=50)
        link = link_key(topo.node_at(2, 2), topo.node_at(3, 2))
        net.run(320)                       # physical fault hit at 300
        assert link in net.faults.dead_links
        assert link not in net.known_faults.dead_links   # heartbeat lag
        assert net.stats.messages_dropped == 0           # worms stalled
        net.run(400)                       # detection + flood complete
        assert link in net.known_faults.dead_links
        net.traffic = None
        net.run_until_drained()
        assert net.stats.messages_dropped >= 1

    def test_quiesce_vs_harsh_same_seed_both_complete(self):
        results = {}
        for mode, kw in (("quiesce", {}),
                         ("harsh", {"detection_delay": 30})):
            topo = Mesh2D(6, 6)
            cfg = SimConfig(fault_mode=mode, **kw)
            net = Network(topo, make_algorithm("nafta"), config=cfg)
            s = FaultSchedule()
            s.add_link_fault(300, topo.node_at(2, 2), topo.node_at(3, 2))
            net.schedule_faults(s)
            net.attach_traffic(TrafficGenerator(
                topo, "uniform", load=0.25, message_length=8, seed=21))
            net.run(1200)
            net.traffic = None
            net.run_until_drained()
            results[mode] = net.stats
        # quiesce never kills a worm; harsh may
        assert results["quiesce"].messages_dropped == 0
        assert results["harsh"].messages_delivered \
            + results["harsh"].messages_dropped \
            >= results["quiesce"].messages_delivered

    def test_boot_vs_midflight_confirmation(self):
        topo = Mesh2D(4, 4)
        link = link_key(topo.node_at(1, 1), topo.node_at(2, 1))
        cfg = SimConfig(fault_mode="harsh", detection_delay=20,
                        diagnosis_hop_delay=2)
        # boot fault: pre-diagnosed, no detection machinery involved
        net = Network(topo, make_algorithm("nafta"), config=cfg)
        net.schedule_faults(FaultSchedule.static(links=[link]))
        assert link in net.known_faults.dead_links
        for node in topo.nodes():
            assert link in net.fault_view(node).dead_links
        assert not net._pending_detections
        # mid-flight fault: ground truth leads, views lag hop by hop
        net2 = Network(topo, make_algorithm("nafta"), config=cfg)
        s = FaultSchedule()
        s.add_link_fault(10, *link)
        net2.schedule_faults(s)
        net2.run(11)
        assert link in net2.faults.dead_links
        assert link not in net2.known_faults.dead_links
        assert net2._pending_detections
        net2.run(60)
        assert link in net2.known_faults.dead_links
        for node in topo.nodes():
            assert link in net2.fault_view(node).dead_links


class TestFaultScheduleIndex:
    def test_due_matches_linear_scan_and_tracks_growth(self):
        s = FaultSchedule()
        s.add_link_fault(5, 0, 1)
        s.add_node_fault(5, 3)
        s.add_link_fault(9, 1, 2)
        assert [e.cycle for e in s.due(5)] == [5, 5]
        assert s.due(6) == []
        s.add_node_fault(5, 7)            # grow after first index build
        assert len(s.due(5)) == 3
        assert len(s.due(9)) == 1

    def test_validate_rejects_bad_targets(self):
        topo = Mesh2D(3, 3)
        bad_link = FaultSchedule().add_link_fault(0, 0, 8)  # not adjacent
        with pytest.raises(ValueError, match="link"):
            bad_link.validate(topo)
        bad_node = FaultSchedule().add_node_fault(0, 99)
        with pytest.raises(ValueError, match="node"):
            bad_node.validate(topo)
        bad_cycle = FaultSchedule()
        bad_cycle.events.append(FaultEvent(-1, "node", 0))
        with pytest.raises(ValueError, match="negative"):
            bad_cycle.validate(topo)
        ok = FaultSchedule().add_link_fault(4, 0, 1).add_node_fault(9, 8)
        ok.validate(topo)                  # no raise

    def test_network_schedule_faults_validates(self):
        topo = Mesh2D(3, 3)
        net = Network(topo, make_algorithm("xy"))
        with pytest.raises(ValueError):
            net.schedule_faults(FaultSchedule().add_node_fault(0, 99))


class TestRandomNodeFaults:
    def test_count_distinct_and_connected(self):
        import numpy as np
        topo = Mesh2D(6, 6)
        rng = np.random.default_rng(42)
        nodes = random_node_faults(topo, 4, rng)
        assert len(nodes) == len(set(nodes)) == 4
        state = FaultState(topo)
        for n in nodes:
            state.fail_node(n)
        alive = [n for n in topo.nodes() if state.node_ok(n)]
        assert all(state.connected(alive[0], n) for n in alive[1:])

    def test_deterministic_per_seed(self):
        import numpy as np
        topo = Mesh2D(6, 6)
        a = random_node_faults(topo, 3, np.random.default_rng(7))
        b = random_node_faults(topo, 3, np.random.default_rng(7))
        assert a == b
