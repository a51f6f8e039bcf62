"""Fast reroute: precompiled backup subbases, activation edge cases,
and the recovery-gap accounting the chaos-recovery CI lane asserts on.

The backup table is a build-time artifact, so the tests hold it to the
compiler's own promises: every entry reproduces the live algorithm's
faulted-configuration decision (candidates *and* header-field writes),
no entry routes into the link it protects, and every protected link's
shadow configuration has an acyclic channel dependency graph.  The
dispatch tests cover the activation edge cases: substitution only at
injection with a neutral header, fall-through when the backup link is
itself dead.  The worm-surgery tests run every case on both engines:
the batched engine heals and absorbs worms on its arrays and must
match the object engine message for message.
"""

import json

import numpy as np
import pytest

from repro.core.compiler.backup import (BackupTable, build_backup_table_for,
                                        certify)
from repro.experiments import run_workload
from repro.experiments.campaign import make_scenario
from repro.routing import FastReroute, make_algorithm
from repro.routing.base import (REFRESH_RESORT, REFRESH_STATIC,
                                NativeContract, RouteDecision,
                                RoutingAlgorithm, order_by_adaptivity)
from repro.sim import FaultSchedule, Mesh2D, Network, SimConfig
from repro.sim.batched import BatchedNetwork, batched_fallback_reason
from repro.sim.flit import Header
from repro.sim.router import LOCAL
from repro.sim.stats import DecisionDigest
from repro.sim.topology import WEST
from repro.sim.traffic import TrafficGenerator

needs_kernel = pytest.mark.skipif(
    batched_fallback_reason() is not None,
    reason=f"batched engine unavailable: {batched_fallback_reason()}")


def _fresh_header(src: int, dst: int, fields=None) -> Header:
    return Header(msg_id=-1, src=src, dst=dst, length=2, created=0,
                  fields=dict(fields or {}))


@pytest.fixture(scope="module")
def built():
    """(topology, algorithm, table) with every link deadlock-checked:
    the build certifies a sample, the fixture certifies the rest."""
    topo = Mesh2D(4, 4)
    algo = make_algorithm("updown")
    table = build_backup_table_for(topo, algo)
    net = Network(topo, algo)
    for link in sorted(topo.links()):
        if link not in table.verified_links:
            certify(net, link)
            table.verified_links.append(link)
    return topo, algo, table


class TestBackupTableBuild:
    def test_every_link_deadlock_verified(self, built):
        topo, _algo, table = built
        assert table.n_entries() > 0
        assert sorted(table.verified_links) == sorted(topo.links())

    def test_entries_never_use_the_protected_link(self, built):
        topo, _algo, table = built
        for (a, b), per_link in table.entries.items():
            for node, per_node in per_link.items():
                far = b if node == a else a
                lost = next(pid for pid, p in topo.ports(node).items()
                            if p.neighbor == far)
                for dst, (cands, _fields) in per_node.items():
                    assert all(p != lost for p, _vc in cands), \
                        (node, dst, (a, b), cands)

    def test_entries_match_live_faulted_decisions(self, built):
        """Probe-verification holds outside the build: re-running the
        live algorithm with the protected link dead reproduces each
        stored entry — candidate set and header-field writes."""
        topo, algo, table = built
        net = Network(topo, algo)       # rebinds algo to this network
        checked = 0
        for link, per_link in sorted(table.entries.items()):
            net.faults.fail_link(*link)
            algo.on_fault_update(net)
            try:
                for node, per_node in sorted(per_link.items()):
                    for dst, (cands, fields) in sorted(per_node.items()):
                        h = _fresh_header(node, dst)
                        dec = algo.route(net.routers[node], h, LOCAL, 0)
                        assert tuple((int(p), int(v))
                                     for p, v in dec.candidates) == cands
                        assert dict(h.fields) == fields
                        checked += 1
            finally:
                net.faults.repair_link(*link)
                algo.on_fault_update(net)
        assert checked == table.n_entries()

    def test_json_roundtrip_preserves_int_keyed_fields(self, built):
        _topo, _algo, table = built
        wire = json.loads(json.dumps(table.to_dict(), sort_keys=True))
        back = BackupTable.from_dict(wire)
        assert back.entries == table.entries
        assert sorted(back.verified_links) == sorted(table.verified_links)
        # updown's move map is keyed by int port id; a naive JSON dump
        # would stringify it and break on_depart's phase commit
        some_fields = [f for per_link in back.entries.values()
                       for per_node in per_link.values()
                       for _c, f in per_node.values() if f]
        assert some_fields, "updown writes a move map on every decision"
        for fields in some_fields:
            moves = fields.get("_ud_moves")
            if moves:
                assert all(isinstance(k, int) for k in moves)

    def test_non_fault_tolerant_algorithms_refused(self):
        with pytest.raises(ValueError, match="not fault-tolerant"):
            build_backup_table_for(Mesh2D(3, 3), make_algorithm("xy"))


def _armed_case(fr: FastReroute):
    """Pick any (link, node, dst, entry) present in the wrapper's
    table; deterministic because iteration is sorted."""
    link = sorted(fr.table.entries)[0]
    node = sorted(fr.table.entries[link])[0]
    dst = sorted(fr.table.entries[link][node])[0]
    return link, node, dst, fr.table.entries[link][node][dst]


class TestDispatchEdgeCases:
    @pytest.fixture()
    def net(self):
        topo = Mesh2D(4, 4)
        fr = make_algorithm("updown+frr", topology=topo)
        network = Network(topo, fr)
        network.stats.reroute = {"worms_healed": 0, "worms_absorbed": 0,
                                 "backup_route_decisions": 0}
        return network

    def test_substitution_only_when_armed_at_injection(self, net):
        fr = net.algorithm
        link, node, dst, (cands, _fields) = _armed_case(fr)
        router = net.routers[node]
        counter = net.stats.reroute

        # not armed: transparent delegation
        dec = fr.route(router, _fresh_header(node, dst), LOCAL, 0)
        assert counter["backup_route_decisions"] == 0

        fr.arm(link)
        dec = fr.route(router, _fresh_header(node, dst), LOCAL, 0)
        assert counter["backup_route_decisions"] == 1
        assert dec.steps == 1
        assert set(dec.candidates) == set(cands)

        # mid-flight arrivals keep the inner algorithm's decision
        in_port = next(iter(net.topology.ports(node)))
        fr.route(router, _fresh_header(node, dst), in_port, 0)
        assert counter["backup_route_decisions"] == 1

        # a header carrying committed routing state is not
        # injection-equivalent: the certified entry must not apply
        fr.route(router, _fresh_header(node, dst, {"ud_phase": "down"}),
                 LOCAL, 0)
        assert counter["backup_route_decisions"] == 1

        # "_"-prefixed per-decision scratch is recomputed anyway and
        # must not block substitution; stale scratch is dropped
        h = _fresh_header(node, dst, {"_ud_moves": {99: "up"}})
        dec = fr.route(router, h, LOCAL, 0)
        assert counter["backup_route_decisions"] == 2
        assert h.fields.get("_ud_moves") != {99: "up"}

        fr.disarm(link)
        fr.route(router, _fresh_header(node, dst), LOCAL, 0)
        assert counter["backup_route_decisions"] == 2

    def test_fault_on_backup_link_falls_through(self, net):
        """When the precomputed backup's own port is dead the wrapper
        must not dispatch a worm into it: it falls through to the inner
        algorithm (whose converged state the slow path will fix)."""
        fr = net.algorithm
        link, node, dst, (cands, _fields) = _armed_case(fr)
        router = net.routers[node]
        fr.arm(link)
        router.port_alive = lambda pid: False
        inner_dec = fr.inner.route(router, _fresh_header(node, dst),
                                   LOCAL, 0)
        dec = fr.route(router, _fresh_header(node, dst), LOCAL, 0)
        assert net.stats.reroute["backup_route_decisions"] == 0
        assert dec.candidates == inner_dec.candidates

    def test_reset_disarms(self, net):
        fr = net.algorithm
        link, _node, _dst, _entry = _armed_case(fr)
        fr.arm(link)
        fr.reset(net)
        assert not fr.armed


class TestEndToEndRecovery:
    def test_no_retransmission_zero_loss_and_smaller_gaps(self):
        """The chaos-recovery lane's property on one scenario: with
        retry_limit=0, backups recover everything the slow path loses,
        and every fault's loss window shrinks to the detection delay."""
        kw = dict(width=6, height=6, algorithm="updown", n_link_faults=2,
                  load=0.12, message_length=6, cycles=1200, warmup=200,
                  seed=7, detection_delay=40, diagnosis_hop_delay=2,
                  retry_limit=0)
        off = run_workload(make_scenario(0, backup_routes=False, **kw))
        on = run_workload(make_scenario(0, backup_routes=True, **kw))

        assert on["messages_dead_lettered"] == 0
        assert on["silent_loss"] == 0
        assert on["messages_delivered_logical"] == \
            on["messages_created_logical"]
        # the slow path alone loses mid-flight worms with retries off
        assert off["silent_loss"] > 0
        assert "reroute" in on and "reroute" not in off

        # recovery gap: local confirmation vs flood convergence,
        # per fault event and strictly
        assert len(on["fault_events"]) == len(off["fault_events"]) == 2
        for ev_on, ev_off in zip(on["fault_events"],
                                 off["fault_events"]):
            assert ev_on["target"] == ev_off["target"]
            assert ev_on["fast_reroute"] and not ev_off["fast_reroute"]
            assert ev_on["loss_window"] < ev_off["loss_window"]
        assert on["cycles_of_loss"] < off["cycles_of_loss"]

    @needs_kernel
    def test_batched_engine_runs_backups_natively(self):
        res = run_workload(make_scenario(
            0, width=4, height=4, cycles=400, warmup=50,
            backup_routes=True, engine="batched"))
        assert res["engine"] == "batched"
        assert "engine_fallback" not in res
        assert "reroute" in res


# ---------------------------------------------------------------------------
# worm surgery on both engines: one 12-flit worm 0 -> 3 along the bottom
# row of a 4x2 mesh; link (1, 2) dies under it at ``fault_cycle``
# ---------------------------------------------------------------------------

#: the accounting fields healing and absorption write
ACCOUNTING_FIELDS = ("healed_from", "retry_of", "root_id", "local_retries",
                     "first_dropped", "orig_created", "stuck")


def _one_worm(engine_cls, fault_cycle=None, **cfg):
    topo = Mesh2D(4, 2)
    net = engine_cls(topo, make_algorithm("nafta"), config=SimConfig(
        fault_mode="harsh", backup_routes=True, **cfg))
    if fault_cycle is not None:
        sched = FaultSchedule()
        sched.add_link_fault(fault_cycle, 1, 2)
        net.schedule_faults(sched)
    net.offer(0, 3, 12)
    net.run_until_drained(2000)
    messages = {
        m.header.msg_id: {
            "src": m.header.src, "length": m.header.length,
            "delivered": m.delivered, "dropped": m.dropped,
            **{k: v for k, v in m.header.fields.items()
               if k in ACCOUNTING_FIELDS}}
        for m in net.messages.values()}
    return net.stats.summary(topo.n_nodes), messages


def _both_engines(fault_cycle=None, **cfg):
    obj = _one_worm(Network, fault_cycle, **cfg)
    bat = _one_worm(BatchedNetwork, fault_cycle, **cfg)
    assert bat == obj
    return obj


@needs_kernel
class TestWormSurgeryBothEngines:
    @pytest.mark.parametrize("detection_delay", [0, 3])
    def test_split_worm_mid_flight(self, detection_delay):
        """Without a detection delay the fragment is still in flight
        and its rearmost flit becomes the tail; with one, it has
        drained by detection time and the original counts delivered
        then.  Either way the remainder is re-offered at the detecting
        endpoint with ``healed_from``, and routed by the backup."""
        summary, msgs = _both_engines(
            8, detection_delay=detection_delay,
            diagnosis_hop_delay=1 if detection_delay else 0)
        assert summary["reroute"]["worms_healed"] == 1
        assert set(msgs) == {0, 1}
        fragment, remainder = msgs[0], msgs[1]
        assert not fragment["dropped"]
        if detection_delay:
            assert fragment["delivered"] == 8 + detection_delay
        else:
            assert fragment["delivered"] > 8
        assert (remainder["src"], remainder["healed_from"]) == (1, 0)
        assert 1 < remainder["length"] < 12
        assert remainder["delivered"] is not None
        assert summary["reroute"]["backup_route_decisions"] == \
            (1 if detection_delay else 0)

    def test_tail_already_crossed_the_break(self):
        summary, msgs = _both_engines(14)
        assert summary["reroute"] == {"worms_healed": 0,
                                      "worms_absorbed": 0,
                                      "backup_route_decisions": 0}
        assert list(msgs) == [0] and msgs[0]["delivered"] is not None

    def test_stuck_worm_absorbed_and_reinjected(self):
        """The head is routed into the link before its failure is
        known; once confirmed, the worm is declared stuck, absorbed
        whole and re-injected locally where its head waited."""
        summary, msgs = _both_engines(2, detection_delay=3,
                                      diagnosis_hop_delay=1)
        assert summary["reroute"]["worms_absorbed"] == 1
        assert msgs[0]["dropped"] and msgs[0]["stuck"]
        copy = msgs[1]
        assert (copy["src"], copy["length"]) == (1, 12)
        assert (copy["retry_of"], copy["local_retries"]) == (0, 1)
        assert copy["delivered"] is not None

    @pytest.mark.parametrize("detection_delay", [0, 3])
    def test_every_fault_cycle_matches(self, detection_delay):
        """The break at every position of the worm: not yet reached,
        each split point, and past the tail."""
        healed = 0
        for cycle in range(1, 17):
            summary, _msgs = _both_engines(
                cycle, detection_delay=detection_delay,
                diagnosis_hop_delay=1 if detection_delay else 0)
            healed += summary["reroute"]["worms_healed"]
        assert healed > 5


class _NeutralWestFirst(RoutingAlgorithm):
    """Minimal west-first adaptive routing on one VC that writes
    nothing to the header, so a blocked injection stays
    injection-equivalent: the object engine's per-cycle refresh may
    switch it to a backup the moment its endpoint arms.  Declares a
    native contract (one field, never written) to run the batched
    engine's C cache."""

    name = "westfirst-neutral"
    n_vcs = 1
    fault_tolerant = True

    def native_contract(self, topology):
        return NativeContract(fields=("mark",))

    def reset(self, network):
        self.known = network.known_faults

    def route(self, router, header, in_port, in_vc):
        if router.node == header.dst:
            return RouteDecision(deliver=True, refresh_hint=REFRESH_STATIC)
        ports = router.topology.minimal_ports(router.node, header.dst)
        if WEST in ports:
            ports = [WEST]
        cands = [(p, 0) for p in ports
                 if self.known.port_ok(router.node, p)]
        if not cands:
            return RouteDecision.unroutable()
        return RouteDecision(candidates=order_by_adaptivity(cands, router),
                             refresh_hint=REFRESH_RESORT)


@needs_kernel
class TestNativeCachesBothEngines:
    def test_blocked_injection_switches_when_its_endpoint_arms(self):
        """Two long worms hold node 5's east and north outputs; an
        injection at 5 toward 10 (north-east) waits for either.  When
        link (5, 6) arms, the object engine's refresh substitutes the
        backup (north only) every cycle; the batched engine must not
        keep re-sorting the stale decision in C."""
        def run(engine_cls):
            topo = Mesh2D(4, 4)
            net = engine_cls(topo, _NeutralWestFirst(), config=SimConfig(
                fault_mode="harsh", backup_routes=True))
            net.stats.digest = DecisionDigest()
            net.offer(4, 7, 40)
            net.offer(1, 13, 40)
            net.run(8)
            net.offer(5, 10, 4)
            net.run(4)
            net.algorithm.arm((5, 6))
            net.run(6)
            net.run_until_drained(500)
            return net.stats.summary(topo.n_nodes)

        obj = run(Network)
        assert obj["reroute"]["backup_route_decisions"] > 1
        assert run(BatchedNetwork) == obj

    def test_armed_endpoint_injections_stay_out_of_the_caches(self):
        topo = Mesh2D(4, 4)
        net = BatchedNetwork(topo, make_algorithm("nafta"),
                             config=SimConfig(fault_mode="harsh",
                                              backup_routes=True))
        assert net._native, "FastReroute must forward the contract"
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.3,
                                            message_length=4, seed=3))
        net.run(50)
        assert net._cs.ct_on == 1
        net.algorithm.arm((5, 6))
        net.run(200)
        assert net._cs.ct_on == 0          # no clean table while armed
        keys = net._ek[:net._cs.n_ent]
        assert len(keys) > 0
        at_endpoint = np.isin(keys[:, 0], (5, 6)) & (keys[:, 2] == LOCAL)
        assert not at_endpoint.any()
        net.algorithm.disarm((5, 6))
        net.run(1)
        assert net._cs.ct_on == 1


class TestConfigSurface:
    def test_backup_routes_requires_harsh_mode(self):
        with pytest.raises(ValueError, match="backup_routes"):
            SimConfig(backup_routes=True)

    def test_summary_neutral_without_backups(self):
        topo = Mesh2D(3, 3)
        plain = Network(topo, make_algorithm("updown"))
        assert "reroute" not in plain.stats.summary(topo.n_nodes)
        cfg = SimConfig(fault_mode="harsh", backup_routes=True)
        armed = Network(topo, make_algorithm("updown"), config=cfg)
        assert isinstance(armed.algorithm, FastReroute)
        assert "reroute" in armed.stats.summary(topo.n_nodes)

    def test_backup_routes_round_trips_either_way(self):
        for on in (False, True):
            spec = make_scenario(0, backup_routes=on)
            assert spec.to_dict()["backup_routes"] is on
            assert type(spec).from_dict(spec.to_dict()).backup_routes is on
            assert spec.sim_config().backup_routes is on
