"""Extension experiment — dynamic faults without the diagnosis
idealization.

The paper's assumption iv ("no message is affected during the diagnosis
phase") is, by its own admission, "unrealistic"; it suggests solving
the real case by re-injecting affected messages.  This experiment drops
the idealization: links die mid-traffic in 'harsh' mode, worms caught
on the dying link are ripped up, and we compare plain loss against the
re-injection recovery the paper sketches, realised as source
retransmission with backoff (``SimConfig.retry_limit``).
"""

from repro.experiments import save_report, table
from repro.routing import NaftaRouting
from repro.sim import (FaultSchedule, Mesh2D, Network, SimConfig,
                       TrafficGenerator, random_link_faults)

import numpy as np


def run_mode(retry_limit: int, seed: int = 11):
    topo = Mesh2D(8, 8)
    cfg = SimConfig(fault_mode="harsh", retry_limit=retry_limit)
    net = Network(topo, NaftaRouting(), config=cfg)
    rng = np.random.default_rng(seed)
    links = random_link_faults(topo, 4, rng)
    sched = FaultSchedule()
    for i, (a, b) in enumerate(links):
        sched.add_link_fault(600 + 150 * i, a, b)
    net.fault_schedule = sched
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.15,
                                        message_length=8, seed=seed + 1))
    net.set_warmup(300)
    net.run(2500)
    net.traffic = None
    net.run_until_drained()
    # every retransmitted copy names its original send in root_id; a
    # root is lost when a copy was ripped up and none was delivered
    def root(m):
        return m.header.fields.get("root_id", m.header.msg_id)
    recovered = {root(m) for m in net.messages.values()
                 if m.delivered is not None}
    lost = len({root(m) for m in net.messages.values()
                if m.dropped and m.delivered is None
                and not m.header.fields.get("stuck")} - recovered)
    return {
        "mode": "re-inject" if retry_limit else "drop",
        "messages": len(net.messages),
        "delivered": net.stats.messages_delivered,
        "ripped_up": net.stats.messages_dropped,
        "lost": lost,
        "latency": net.stats.mean_latency,
    }


def run_quiesce(seed: int = 11):
    topo = Mesh2D(8, 8)
    net = Network(topo, NaftaRouting(), config=SimConfig())
    rng = np.random.default_rng(seed)
    links = random_link_faults(topo, 4, rng)
    sched = FaultSchedule()
    for i, (a, b) in enumerate(links):
        sched.add_link_fault(600 + 150 * i, a, b)
    net.fault_schedule = sched
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.15,
                                        message_length=8, seed=seed + 1))
    net.set_warmup(300)
    net.run(2500)
    net.traffic = None
    net.run_until_drained()
    return {
        "mode": "quiesce (assumption iv)",
        "messages": len(net.messages),
        "delivered": net.stats.messages_delivered,
        "ripped_up": net.stats.messages_dropped,
        "lost": sum(1 for m in net.messages.values()
                    if m.dropped and m.delivered is None
                    and not m.header.fields.get("stuck")),
        "latency": net.stats.mean_latency,
    }


def test_harsh_faults(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_quiesce(), run_mode(0), run_mode(3)],
        rounds=1, iterations=1)
    text = table(rows, [("mode", "fault handling"),
                        ("messages", "messages"),
                        ("delivered", "delivered"),
                        ("ripped_up", "ripped up"),
                        ("lost", "lost"),
                        ("latency", "mean latency")],
                 title="Dynamic faults (4 links dying mid-traffic), 8x8 "
                       "mesh, NAFTA")
    save_report("harsh_faults", text)

    by = {r["mode"]: r for r in rows}
    # the idealized diagnosis loses nothing
    assert by["quiesce (assumption iv)"]["lost"] == 0
    # harsh mode without recovery loses the ripped-up worms
    assert by["drop"]["lost"] > 0
    assert by["drop"]["lost"] <= by["drop"]["ripped_up"]
    # re-injection recovers (almost) everything, as the paper sketches;
    # a re-injected copy can be ripped up again by a later fault
    assert by["re-inject"]["lost"] < by["drop"]["lost"]
