"""Extension — the two ends of the adaptivity spectrum the paper's
introduction draws: oblivious routing (XY) vs full minimal adaptivity
(NARA) under adversarial transpose traffic.

Expected shape (and the paper's argument for configurable routing): on
a permutation workload the adaptive scheme sustains far more load than
the oblivious one.
"""

from repro.experiments import (WorkloadSpec, run_sweep, save_report,
                               sweep_main, table)
from repro.sim import Mesh2D

GRID = [(algo, load) for algo in ("xy", "nara")
        for load in (0.15, 0.25, 0.35)]


def run(workers: int = 0, cache: bool = False):
    specs = [WorkloadSpec(topology=Mesh2D(8, 8), algorithm=algo,
                          pattern="transpose", load=load,
                          cycles=2000, warmup=500, seed=19, drain=False)
             for algo, load in GRID]
    rows = []
    for (algo, load), res in zip(
            GRID, run_sweep(specs, workers=workers, cache=cache,
                            progress=bool(workers),
                            label="adaptive_comparison")):
        rows.append({"algorithm": algo, "offered": load,
                     "accepted": res["throughput_flits_node_cycle"],
                     "latency": res["mean_latency"]})
    return rows


def report(rows) -> str:
    return table(rows, [("algorithm", "algorithm"), ("offered", "offered"),
                        ("accepted", "accepted"), ("latency", "latency")],
                 title="Adaptivity spectrum under transpose traffic, "
                       "8x8 mesh")


def test_adaptive_comparison(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("adaptive_comparison", report(rows))

    by = {(r["algorithm"], r["offered"]): r for r in rows}
    # oblivious XY saturates: at 0.35 offered it accepts much less than
    # the adaptive scheme and its latency explodes
    assert by[("xy", 0.35)]["accepted"] < 0.75 * by[("nara", 0.35)]["accepted"]
    assert by[("xy", 0.25)]["latency"] > 2 * by[("nara", 0.25)]["latency"]


if __name__ == "__main__":
    sweep_main(lambda **kw: save_report("adaptive_comparison",
                                        report(run(**kw))),
               description=__doc__.splitlines()[0])
