"""Batched-vs-object engine parity: the struct-of-arrays engine must be
an invisible optimization.

Every algorithm in the registry runs the same workload on both engines
— small meshes, tori, hypercubes and k-ary n-cubes, fault-free and with
static and timed (mid-run) fault schedules in both fault modes — and
the complete ``SimStats.summary`` must match bit-for-bit, per-decision
SHA-256 digest included.  A digest mismatch localizes to the first
differing routing decision; a summary mismatch to the first differing
counter.

The conformance hook rides along: ``run_case_payload`` with an
``engine: batched`` key (what ``conform run --engine batched`` sends)
must reproduce the object engine's digests on generated cases.
"""

import itertools

import pytest

from repro.conformance.generate import generate_cases
from repro.conformance.runner import run_case_payload
from repro.routing.registry import ALGORITHM_META, make_algorithm
from repro.sim.batched import (BatchedNetwork, batched_fallback_reason,
                               build_network)
from repro.sim.config import SimConfig
from repro.sim.faults import FaultSchedule
from repro.sim.network import Network
from repro.sim.stats import DecisionDigest
from repro.sim.topology import Hypercube, KAryNCube, Mesh2D, Torus2D
from repro.sim.traffic import TrafficGenerator

pytestmark = pytest.mark.skipif(
    batched_fallback_reason() is not None,
    reason=f"batched engine unavailable: {batched_fallback_reason()}")

#: one small topology per kind the registry metadata names
TOPOLOGIES = {
    "mesh2d": lambda: Mesh2D(5, 4),
    "torus2d": lambda: Torus2D(4, 4),
    "hypercube": lambda: Hypercube(3),
    "karyncube": lambda: KAryNCube(3, 2),
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
    out.append(("static", "static", {}))
    out.append(("timed-quiesce", "timed", {"fault_mode": "quiesce"}))
    out.append(("timed-harsh", "timed", {"fault_mode": "harsh",
                                         "retry_limit": 2,
                                         "retry_backoff": 8}))
    if algo == "nafta":
        # delayed detection + hop-by-hop diagnosis flood, the richest
        # fault-knowledge path the reliability layer has
        out.append(("timed-diagnosis", "timed",
                    {"fault_mode": "harsh", "detection_delay": 5,
                     "diagnosis_hop_delay": 1, "retry_limit": 2,
                     "retry_backoff": 8}))
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
    return net.stats.summary(topo.n_nodes)


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
    """Source retry re-activates a node whose queue had drained; the
    legacy retransmit_dropped path re-offers in the same cycle."""
    def schedule():
        sched = FaultSchedule()
        sched.add_node_fault(60, 9)
        return sched
    kw = {"fault_mode": "harsh", "retransmit_dropped": True}
    obj = _digest_run(Network, "nafta", kw, schedule)
    bat = _digest_run(BatchedNetwork, "nafta", kw, schedule)
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
# build-time clean tables: bit-exact with the object oracle (which has
# no table), and correctly bypassed the moment faults are known
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algo", ["nafta", "nara"])
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
