"""Chaos campaign engine: randomized mid-flight fault scenarios.

The paper argues for fault-tolerant routing by construction; this
module stress-tests the *end-to-end* claim — with per-node fault
diagnosis, harsh-mode rip-up and source retransmission enabled, every
message whose source and destination stay connected is eventually
delivered.  A campaign sweeps many randomized scenarios (which links
die, and when, varies per scenario; the traffic, topology and knobs
are fixed) through :func:`repro.experiments.pool.run_sweep`, so
scenarios fan out over worker processes and completed scenarios replay
from the content-addressed cache.

Every scenario is fully determined by ``(seed, scenario index)``:
fault placement uses the connectivity-preserving
:func:`repro.sim.random_link_faults` / :func:`repro.sim.random_node_faults`
draws and fault times are drawn from the same per-scenario RNG, so a
campaign is reproducible point-by-point and its report can be asserted
on in CI.

The report separates the three ways a logical message can end:

* **delivered** — some copy (original or retransmission) arrived;
* **dead-lettered** — the retry machinery gave up *and said so*
  (retry cap, source died, destination unreachable in the source's
  converged view);
* **silent loss** — neither: the failure class a reliable transport
  must not exhibit.  A connected-fault campaign asserts this is zero.
"""

from __future__ import annotations

import numpy as np

from ..sim import Mesh2D, random_link_faults, random_node_faults
from .runners import WorkloadSpec


def scenario_rng(seed: int, index: int) -> np.random.Generator:
    """Per-scenario RNG; sequence seeding keeps streams distinct
    across (campaign seed, scenario) pairs (see sweep_fault_rng)."""
    return np.random.default_rng([seed, 0x5EED, index])


#: a scenario's values for the spec fields it changes from the
#: WorkloadSpec defaults (every other field keeps the spec default)
CAMPAIGN_DEFAULTS = {
    "algorithm": "nafta", "load": 0.12, "message_length": 6,
    "cycles": 2000, "warmup": 200, "detection_delay": 40,
    "diagnosis_hop_delay": 2, "retry_limit": 6,
}


def make_scenario(index: int, *, width: int = 8, height: int = 8,
                  n_link_faults: int = 2, n_node_faults: int = 0,
                  seed: int = 1, **spec) -> WorkloadSpec:
    """One randomized mid-flight fault scenario as a WorkloadSpec.

    Faults keep the network connected (the campaign's acceptance
    criterion is about *routable* messages) and strike at random
    cycles inside the middle of the measured window, so worms are in
    flight when the links die.  ``spec`` sets any other WorkloadSpec
    field over :data:`CAMPAIGN_DEFAULTS`; the topology, traffic seed,
    faults, harsh mode and drain are the scenario's own.
    """
    spec = {**CAMPAIGN_DEFAULTS, **spec}
    topo = Mesh2D(width, height)
    rng = scenario_rng(seed, index)
    links = random_link_faults(topo, n_link_faults, rng) \
        if n_link_faults else []
    nodes = random_node_faults(topo, n_node_faults, rng) \
        if n_node_faults else []
    warmup, cycles = spec["warmup"], spec["cycles"]
    lo = warmup + (cycles - warmup) // 4
    hi = warmup + (cycles - warmup) // 2
    timed = [(int(rng.integers(lo, hi)), "link", link) for link in links]
    timed += [(int(rng.integers(lo, hi)), "node", node) for node in nodes]
    return WorkloadSpec(topology=topo, seed=seed * 1000 + index,
                        timed_faults=timed, fault_mode="harsh", drain=True,
                        **spec)


def run_campaign(n_scenarios: int = 20, *, workers: int = 0,
                 cache: bool = False, progress=False,
                 stats: dict | None = None, **scenario_kw) -> dict:
    """Run ``n_scenarios`` randomized fault scenarios and aggregate a
    reliability report.  ``scenario_kw`` forwards to
    :func:`make_scenario`; ``workers``/``cache``/``progress`` forward
    to the sweep engine."""
    from .pool import run_sweep
    specs = [make_scenario(i, **scenario_kw) for i in range(n_scenarios)]
    results = run_sweep(specs, workers=workers, cache=cache,
                        progress=progress, label="chaos_campaign",
                        stats=stats)
    scenarios = []
    for i, (spec, res) in enumerate(zip(specs, results)):
        extra = {}
        if "trace" in res:
            extra["trace"] = res["trace"]
        if "metrics" in res:
            extra["metrics"] = res["metrics"]
        scenarios.append({
            **extra,
            "scenario": i,
            "timed_faults": spec.to_dict()["timed_faults"],
            "deadlocked": res["deadlocked"],
            "created_logical": res["messages_created_logical"],
            "delivered_logical": res["messages_delivered_logical"],
            "retried": res["messages_retried"],
            "dead_lettered": res["messages_dead_lettered"],
            "recovered": res["messages_recovered"],
            "silent_loss": res["silent_loss"],
            "mean_time_to_recover": res["mean_time_to_recover"],
            "max_time_to_recover": res["max_time_to_recover"],
            "mean_latency": res["mean_latency"],
            # recovery gap (present whenever detection/diagnosis delays
            # are configured — i.e. for every default campaign)
            "cycles_of_loss": res.get("cycles_of_loss", 0),
            "fault_events": res.get("fault_events", []),
        })
    created = sum(s["created_logical"] for s in scenarios)
    delivered = sum(s["delivered_logical"] for s in scenarios)
    report = {
        "n_scenarios": n_scenarios,
        "scenarios": scenarios,
        "created_logical": created,
        "delivered_logical": delivered,
        "delivery_rate": delivered / created if created else 1.0,
        "retried": sum(s["retried"] for s in scenarios),
        "recovered": sum(s["recovered"] for s in scenarios),
        "dead_lettered": sum(s["dead_lettered"] for s in scenarios),
        "silent_loss": sum(s["silent_loss"] for s in scenarios),
        "deadlocked_scenarios": [s["scenario"] for s in scenarios
                                 if s["deadlocked"]],
        "max_time_to_recover": max(
            (s["max_time_to_recover"] for s in scenarios), default=0),
        "cycles_of_loss": sum(s["cycles_of_loss"] for s in scenarios),
    }
    return report


def campaign_table(report: dict) -> str:
    """Human-readable per-scenario table plus the aggregate line."""
    head = (f"{'#':>3} {'faults':>6} {'created':>8} {'deliv':>6} "
            f"{'retry':>6} {'recov':>6} {'dead':>5} {'silent':>6} "
            f"{'maxTTR':>7} {'lossCyc':>7}")
    lines = [head, "-" * len(head)]
    for s in report["scenarios"]:
        lines.append(
            f"{s['scenario']:>3} {len(s['timed_faults']):>6} "
            f"{s['created_logical']:>8} {s['delivered_logical']:>6} "
            f"{s['retried']:>6} {s['recovered']:>6} "
            f"{s['dead_lettered']:>5} {s['silent_loss']:>6} "
            f"{s['max_time_to_recover']:>7} "
            f"{s.get('cycles_of_loss', 0):>7}")
    lines.append("-" * len(head))
    lines.append(
        f"total: {report['created_logical']} logical messages, "
        f"{report['delivered_logical']} delivered "
        f"({report['delivery_rate']:.4%}), "
        f"{report['retried']} retried, {report['recovered']} recovered, "
        f"{report['dead_lettered']} dead-lettered, "
        f"{report['silent_loss']} silent loss, "
        f"{report.get('cycles_of_loss', 0)} loss-window cycles")
    if report["deadlocked_scenarios"]:
        lines.append("DEADLOCKED scenarios: "
                     f"{report['deadlocked_scenarios']}")
    return "\n".join(lines)
