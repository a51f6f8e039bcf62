"""Fast reroute: precompiled backup subbases, activation edge cases,
and the recovery-gap accounting the chaos-recovery CI lane asserts on.

The backup table is a build-time artifact, so the tests hold it to the
compiler's own promises: every entry reproduces the live algorithm's
faulted-configuration decision (candidates *and* header-field writes),
no entry routes into the link it protects, and every protected link's
shadow configuration has an acyclic channel dependency graph.  The
dispatch tests cover the activation edge cases: substitution only at
injection with a neutral header, fall-through when the backup link is
itself dead, and the batched engine declaring an explicit fallback
instead of silently mis-modelling per-flit healing.
"""

import json

import pytest

from repro.core.compiler.backup import (BackupTable, build_backup_table_for,
                                        certify)
from repro.experiments import run_workload
from repro.experiments.campaign import make_scenario
from repro.routing import FastReroute, make_algorithm
from repro.sim import Mesh2D, Network, SimConfig
from repro.sim.batched import batched_fallback_reason
from repro.sim.flit import Header
from repro.sim.router import LOCAL


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

    def test_batched_engine_declares_explicit_fallback(self):
        cfg = SimConfig(fault_mode="harsh", backup_routes=True)
        reason = batched_fallback_reason(config=cfg)
        assert reason is not None and "backup_routes" in reason
        # the batched-parity CI lane's availability probe (no config)
        # and plain harsh configs stay batched
        assert batched_fallback_reason() is None
        assert batched_fallback_reason(
            config=SimConfig(fault_mode="harsh")) is None


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

    def test_spec_key_stable_for_legacy_workloads(self):
        spec_off = make_scenario(0, backup_routes=False)
        spec_on = make_scenario(0, backup_routes=True)
        assert "backup_routes" not in spec_off.to_dict()
        assert spec_on.to_dict()["backup_routes"] is True
        assert type(spec_on).from_dict(spec_on.to_dict()).backup_routes
