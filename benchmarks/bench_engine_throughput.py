"""Engine and simulator throughput: compiled rule decisions, the
active-router simulation loop, and the batched engine against the
object oracle.

Layers of the same story (paper Section 4.3, "software solutions
would limit the network performance drastically"):

* **decisions/sec** — the NAFTA ``incoming_message`` rule base invoked
  through the :class:`~repro.core.compiler.fastpath.DecisionKernel`
  (generated feature-code function + prebaked strides + code-tuple memo);
* **cycles/sec** — a full wormhole simulation on the object engine
  (only routers holding flits are iterated each cycle), and the batched
  engine on the same 8x8 mesh and on a hypercube.

The large-mesh batched runs and the latency/load sweep are timed end to
end by ``benchmarks/e2e`` (the ``native_mesh`` and ``latency_load``
workloads).

Run directly::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --quick

Results land in ``BENCH_engine.json`` (see ``--out``).
"""

from __future__ import annotations

import argparse
import json
import time

from repro.routing.registry import make_algorithm
from repro.routing.rulesets.loader import load_ruleset
from repro.sim.batched import batched_fallback_reason, build_network
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.sim.topology import Mesh2D
from repro.sim.traffic import TrafficGenerator

WIDTH = HEIGHT = 8
QMAX = 63


# ---------------------------------------------------------------------------
# decision throughput (rule engine)
# ---------------------------------------------------------------------------

def decision_cases() -> list[tuple[dict, int, int]]:
    """(inputs, indir, vn) triples mirroring RuleDrivenNafta's
    ``_decision_inputs``: canonical tuple-keyed dicts, varied positions,
    destinations and loads so the code-tuple memo sees a realistic mix
    rather than one endlessly repeated decision."""
    cases = []
    full = frozenset({0, 1, 2, 3})
    pairs = [((0, 0), (7, 7)), ((3, 4), (3, 0)), ((5, 2), (1, 2)),
             ((7, 7), (0, 0)), ((2, 6), (2, 7)), ((4, 4), (6, 1)),
             ((1, 3), (1, 3)), ((6, 0), (0, 5))]
    for i, ((x, y), (dx, dy)) in enumerate(pairs):
        vn = 1 if dy > y else 0
        for indir in (4, 0, 2):
            load = (7 * i + 3 * indir) % QMAX
            oq = {(d,): (load + d) % QMAX for d in range(4)}
            inputs = {
                "xpos": x, "ypos": y, "xdes": dx, "ydes": dy, "vnin": vn,
                "termin": "false", "sdirin": 0, "fault_present": "false",
                "freemask": {(vc,): full for vc in range(2)}, "oq": oq,
                "samecol": "true" if x == dx else "false",
                "runok": "true", "mlen": 6,
                "info_kind": "load_info", "info_val": 0, "fault_kind": 0,
            }
            cases.append((inputs, indir, vn))
    return cases


def make_engine():
    return load_ruleset("nafta", {"xsize": WIDTH, "ysize": HEIGHT,
                                  "qmax": QMAX, "rmax": 7})


def time_decisions(engine, cases, repeats: int) -> float:
    """Seconds for ``repeats`` passes over the case list."""
    call = engine.call
    set_inputs = engine.set_inputs
    t0 = time.perf_counter()
    for _ in range(repeats):
        for inputs, indir, vn in cases:
            set_inputs(inputs, trusted=True)
            call("incoming_message", indir, vn)
    dt = time.perf_counter() - t0
    return dt


def bench_decisions(repeats: int, rounds: int) -> dict:
    cases = decision_cases()
    engine = make_engine()
    # warmup: compile kernels / fill memos outside the timed region
    time_decisions(engine, cases, 1)
    best = min(time_decisions(engine, cases, repeats)
               for _ in range(rounds))
    n = repeats * len(cases)
    return {
        "decisions": n,
        "fastpath_decisions_per_sec": n / best,
    }


# ---------------------------------------------------------------------------
# simulation throughput (network)
# ---------------------------------------------------------------------------

def time_sim(cycles: int, load: float) -> float:
    topo = Mesh2D(WIDTH, HEIGHT)
    net = Network(topo, make_algorithm("nafta"), config=SimConfig())
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=load,
                                        message_length=6, seed=11))
    t0 = time.perf_counter()
    net.run(cycles)
    return time.perf_counter() - t0


def bench_sim(cycles: int, rounds: int, load: float) -> dict:
    best = min(time_sim(cycles, load) for _ in range(rounds))
    return {
        "cycles": cycles,
        "load": load,
        "active_cycles_per_sec": cycles / best,
    }


# ---------------------------------------------------------------------------
# batched struct-of-arrays engine vs the per-flit object oracle
# ---------------------------------------------------------------------------

def time_engine(engine: str, topo, warmup_cycles: int,
                cycles: int, load: float, seed: int = 11,
                algo: str = "nafta"):
    """Steady-state cycles/sec of one engine on ``topo``.

    The warm-up run is excluded from the timed region: it pays the
    batched engine's one-off costs (C kernel build/load, clean-table
    probe, array growth) and lets both engines reach a steady traffic
    population, so the recorded rate is the sustained one rather than a
    cold-start average."""
    net = build_network(topo, make_algorithm(algo),
                        SimConfig(engine=engine))
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=load,
                                        message_length=6, seed=seed))
    net.run(warmup_cycles)
    t0 = time.perf_counter()
    net.run(cycles)
    dt = time.perf_counter() - t0
    return cycles / dt, net.engine_name, net.stats.summary(topo.n_nodes)


def time_engine_segments(engine: str, warmup_cycles: int, seg_cycles: int,
                         segments: int, load: float, seed: int = 11):
    """Best sustained segment rate of one engine on the 8x8 mesh.

    One network is warmed once, then timed over several consecutive
    segments; the best segment is the sustained rate.  The long warm-up
    matters for the batched engine: its native (dest, state) decision
    cache fills over the first few thousand cycles, and until it does,
    misses detour through the Python route path — timing too early
    reports the fill transient, not the steady state.  Best-of-segments
    also rides out multi-second CPU-throttle windows that a single
    monolithic timing cannot."""
    topo = Mesh2D(WIDTH, HEIGHT)
    net = build_network(topo, make_algorithm("nafta"),
                        SimConfig(engine=engine))
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=load,
                                        message_length=6, seed=seed))
    net.run(warmup_cycles)
    best = 0.0
    for _ in range(segments):
        t0 = time.perf_counter()
        net.run(seg_cycles)
        dt = time.perf_counter() - t0
        best = max(best, seg_cycles / dt)
    return best, net.engine_name, net.stats.summary(topo.n_nodes)


def bench_batched_engine(quick: bool) -> dict:
    """Object vs batched on the standard 8x8 mesh at moderate load.
    The two engines run the identical workload (same warm-up, same
    timed cycles), so their end-of-run summaries must also be
    bit-identical — recorded as ``results_identical``."""
    warmup, seg, segments = (400, 300, 2) if quick else (6000, 2000, 4)
    load = 0.3
    rows = []
    summaries = {}
    for engine in ("object", "batched"):
        rate, ran, summary = time_engine_segments(engine, warmup, seg,
                                                  segments, load)
        summaries[engine] = summary
        rows.append({"engine": engine, "mesh": f"{WIDTH}x{HEIGHT}",
                     "load": load, "cycles_per_sec": rate,
                     "ran_as": ran})
    obj = rows[0]["cycles_per_sec"]
    bat = rows[1]["cycles_per_sec"]
    return {
        "mesh": f"{WIDTH}x{HEIGHT}",
        "load": load,
        "warmup_cycles_excluded": warmup,
        "timed_cycles": seg * segments,
        "segment_cycles": seg,
        "segments": segments,
        "fallback_reason": batched_fallback_reason(),
        "object_cycles_per_sec": obj,
        "cycles_per_sec": bat,
        "speedup": bat / obj,
        "results_identical": summaries["object"] == summaries["batched"],
        "rows": rows,
    }


def bench_hypercube(quick: bool) -> dict:
    """A high-dimensional fabric (paper Section 2: the approach covers
    'all topologies that can be represented by a graph'): e-cube on a
    hypercube — 10 dimensions (1024 nodes) in full mode."""
    from repro.sim.topology import Hypercube
    dims = 7 if quick else 10
    warmup, cycles = (60, 120) if quick else (150, 300)
    load = 0.2
    pair = {}
    summaries = {}
    rows = []
    for engine in ("object", "batched"):
        rate, ran, summary = time_engine(engine, Hypercube(dims),
                                         warmup, cycles, load,
                                         algo="ecube")
        pair[engine] = rate
        summaries[engine] = summary
        rows.append({"topology": f"hypercube-{dims}", "engine": engine,
                     "load": load, "cycles": cycles,
                     "cycles_per_sec": rate, "ran_as": ran})
    return {
        "dimensions": dims,
        "n_nodes": 2 ** dims,
        "load": load,
        "warmup_cycles_excluded": warmup,
        "cycles_per_sec": pair["batched"],
        "object_cycles_per_sec": pair["object"],
        "speedup": pair["batched"] / pair["object"],
        "results_identical": summaries["object"] == summaries["batched"],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(quick: bool = False) -> dict:
    if quick:
        decisions = bench_decisions(repeats=50, rounds=2)
        sim_low = bench_sim(cycles=300, rounds=1, load=0.04)
        sim_mod = bench_sim(cycles=300, rounds=1, load=0.2)
    else:
        decisions = bench_decisions(repeats=400, rounds=5)
        sim_low = bench_sim(cycles=2000, rounds=3, load=0.04)
        sim_mod = bench_sim(cycles=2000, rounds=3, load=0.2)
    return {
        "mesh": f"{WIDTH}x{HEIGHT}",
        "quick": quick,
        "decision_throughput": decisions,
        # at low load most routers are idle most cycles — the active-set
        # scan's home turf; at moderate load most routers hold flits
        "simulation_throughput_low_load": sim_low,
        "simulation_throughput_moderate_load": sim_mod,
        "batched_engine": bench_batched_engine(quick),
        "hypercube": bench_hypercube(quick),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small repeat counts (CI smoke test)")
    ap.add_argument("--out", default=None,
                    help="write the JSON report here (default: "
                         "BENCH_engine.json next to the repo root; "
                         "'-' prints to stdout only)")
    args = ap.parse_args(argv)
    report = run(quick=args.quick)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out != "-":
        import pathlib
        out = pathlib.Path(args.out) if args.out else \
            pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"
        out.write_text(text + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
