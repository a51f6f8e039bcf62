"""The WorkloadSpec contract: its field declarations are the only
statement of each run option, so every SimConfig option a spec carries
reaches the simulator and survives the spec's dict form, and a bad
option fails when the spec is built, not inside a sweep worker."""

import gc
import weakref
from dataclasses import fields

import pytest

import repro.experiments.runners as runners
from repro.experiments import WorkloadSpec, make_scenario, run_workload
from repro.sim import Hypercube, Mesh2D, SimConfig
from repro.sim._batched_kernel import unavailable_reason

#: SimConfig fields a spec leaves at their defaults
NOT_IN_SPEC = ("trace_paths", "deadlock_threshold")

#: a valid non-default value for every SimConfig field a spec carries
NON_DEFAULT = {
    "buffer_depth": 2,
    "cycles_per_step": 3,
    "fault_mode": "harsh",
    "detection_delay": 5,
    "diagnosis_hop_delay": 1,
    "retry_limit": 2,
    "retry_backoff": 4,
    "hop_budget": 50,
    "backup_routes": True,
    "engine": "batched",
}

#: options SimConfig accepts only in harsh fault mode
HARSH_ONLY = ("detection_delay", "diagnosis_hop_delay", "backup_routes")

SHARED = [f.name for f in fields(SimConfig) if f.name not in NOT_IN_SPEC]


def _spec(**over) -> WorkloadSpec:
    return WorkloadSpec(topology=Mesh2D(4, 4), algorithm="nafta", **over)


@pytest.mark.parametrize("name", SHARED)
def test_sim_config_field_reaches_config_and_round_trips(name):
    value = NON_DEFAULT[name]
    assert value != getattr(SimConfig(), name)
    over = {name: value}
    if name in HARSH_ONLY:
        over["fault_mode"] = "harsh"
    spec = _spec(**over)
    assert getattr(spec.sim_config(), name) == value
    rebuilt = WorkloadSpec.from_dict(spec.to_dict())
    assert getattr(rebuilt, name) == value
    assert rebuilt.to_dict() == spec.to_dict()


@pytest.mark.skipif(unavailable_reason() is not None,
                    reason=f"batched kernel unavailable: "
                           f"{unavailable_reason()}")
@pytest.mark.parametrize("name", SHARED)
def test_no_run_option_forces_a_fallback(name):
    # every run option the batched engine accepts, it runs: the only
    # fallbacks left are tracing, a non-stock arbiter and a missing
    # kernel, none of which is a SimConfig field
    over = {name: NON_DEFAULT[name], "engine": "batched"}
    if name in HARSH_ONLY:
        over["fault_mode"] = "harsh"
    res = run_workload(_spec(load=0.05, cycles=120, warmup=20, **over))
    assert res["engine"] == "batched"
    assert "engine_fallback" not in res


def _assert_freed_without_the_cyclic_gc(monkeypatch, algorithm, topology,
                                        engine):
    """Nothing keeps the network, its algorithm or a rule-driven
    algorithm's per-node engines alive once ``run_workload`` returns:
    their reference cycles are broken at teardown (or never made), so
    refcounting frees them with the cyclic GC off."""
    built = []

    def capture(*args, **kwargs):
        net = build(*args, **kwargs)
        algo = net.algorithm
        built.extend(weakref.ref(x) for x in
                     [net, algo, *getattr(algo, "engines", ())])
        return net
    build = runners.build_network
    monkeypatch.setattr(runners, "build_network", capture)
    spec = WorkloadSpec(topology=topology, algorithm=algorithm,
                        load=0.1, cycles=60, engine=engine,
                        fault_links=[sorted(topology.links())[2]],
                        metrics_stride=10)
    enabled = gc.isenabled()
    gc.disable()
    try:
        res = run_workload(spec)
        assert res["engine"] == engine
        assert len(built) >= 2
        assert [ref() for ref in built] == [None] * len(built)
    finally:
        if enabled:
            gc.enable()


@pytest.mark.skipif(unavailable_reason() is not None,
                    reason=f"batched kernel unavailable: "
                           f"{unavailable_reason()}")
@pytest.mark.parametrize("algorithm,topology", [
    ("nafta_rules", Mesh2D(4, 4)),
    ("route_c_rules", Hypercube(3)),
    ("updown", Mesh2D(4, 4)),
])
def test_finished_batched_network_is_freed_without_the_cyclic_gc(
        monkeypatch, algorithm, topology):
    _assert_freed_without_the_cyclic_gc(monkeypatch, algorithm, topology,
                                        "batched")


@pytest.mark.parametrize("algorithm,topology", [
    ("xy", Mesh2D(4, 4)),
    ("updown", Mesh2D(4, 4)),
    ("nafta_rules", Mesh2D(4, 4)),
    ("route_c_rules", Hypercube(3)),
])
def test_finished_object_network_is_freed_without_the_cyclic_gc(
        monkeypatch, algorithm, topology):
    # each object-engine Router points at its network and, through
    # _down, at its downstream routers
    _assert_freed_without_the_cyclic_gc(monkeypatch, algorithm, topology,
                                        "object")


def test_spec_cycles_per_step_zero_runs_one_cycle_per_step():
    assert _spec().cycles_per_step == 0
    assert _spec().sim_config().cycles_per_step == 1


def test_bad_engine_fails_at_construction():
    with pytest.raises(ValueError, match="unknown engine"):
        _spec(engine="nope")


def test_harsh_only_option_fails_at_construction():
    with pytest.raises(ValueError, match="detection_delay needs"):
        _spec(detection_delay=5)


def test_unknown_dict_key_is_an_error():
    d = _spec().to_dict()
    with pytest.raises(ValueError, match="message_lenght"):
        WorkloadSpec.from_dict({**d, "message_lenght": 3})


def test_absent_dict_keys_take_field_defaults():
    d = _spec(load=0.3).to_dict()
    sparse = {k: d[k] for k in ("topology", "algorithm", "load")}
    assert WorkloadSpec.from_dict(sparse).to_dict() == d


def test_campaign_forwards_any_spec_field():
    spec = make_scenario(0, arbiter="oldest_first", buffer_depth=2)
    assert spec.arbiter == "oldest_first"
    assert spec.sim_config().buffer_depth == 2
    assert spec.fault_mode == "harsh" and spec.drain
