"""simulate — single workload points, chaos campaigns, traces.

Single point (``--link-faults``/``--node-faults`` add random static
faults present from cycle 0)::

    python -m repro.tools.simulate run --algorithm nafta --width 8 \
        --height 8 --load 0.15 --cycles 2000
    python -m repro.tools.simulate run --topology cube --dimension 4 \
        --algorithm route_c --node-faults 2

``run --sweep-seeds N`` replays the same point under N consecutive
traffic seeds through the parallel sweep engine (honouring
``--workers`` / ``--no-cache``) and reports per-seed rows plus the
aggregate, for confidence intervals on any single-point result.

Chaos campaign (randomized mid-flight faults, harsh mode, source
retransmission; see docs/ROBUSTNESS.md)::

    python -m repro.tools.simulate campaign --scenarios 20 \
        --link-faults 2 --workers 4 --seed 1 --json campaign.json

Traced run (docs/OBSERVABILITY.md) — a Chrome trace_event JSON you can
load in https://ui.perfetto.dev, plus an optional per-cycle metrics
timeseries and an ASCII timeline::

    python -m repro.tools.simulate trace --algorithm nafta --load 0.15 \
        --fault 600:link:27,28 --out trace.json --metrics-out metrics.json

``run`` and ``campaign`` accept the same ``--trace``/``--metrics-out``
flags to capture traces from their runs (campaign traces ride through
the sweep engine's worker processes and cache unchanged).

The campaign fans scenarios out through the sweep engine, so
``--workers N`` parallelizes and repeated invocations replay from the
content-addressed result cache (disable with ``--no-cache``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from ..experiments import (WorkloadSpec, add_sweep_args, campaign_table,
                           fmt, run_campaign, run_sweep, run_workload,
                           table)
from ..experiments.campaign import CAMPAIGN_DEFAULTS
from ..obs import ascii_timeline, chrome_trace
from ..sim import Hypercube, Mesh2D, random_link_faults


def _topology(args):
    if args.topology == "mesh":
        return Mesh2D(args.width, args.height)
    return Hypercube(args.dimension)


def _parse_fault(text: str):
    """``cycle:link:a,b`` or ``cycle:node:n`` -> a timed-fault tuple."""
    try:
        cycle, kind, target = text.split(":")
        if kind == "link":
            a, b = target.split(",")
            return (int(cycle), "link", (int(a), int(b)))
        if kind == "node":
            return (int(cycle), "node", int(target))
    except ValueError:
        pass
    raise SystemExit(f"bad --fault {text!r}; use CYCLE:link:A,B "
                     f"or CYCLE:node:N")


def _static_faults(args, topo) -> tuple[list, list]:
    """``run``'s random static faults, drawn from ``seed + 1000``."""
    rng = np.random.default_rng(args.seed + 1000)
    links = (random_link_faults(topo, args.link_faults, rng)
             if args.link_faults else [])
    nodes: list[int] = []
    while len(nodes) < args.node_faults:
        cand = int(rng.integers(0, topo.n_nodes))
        if cand not in nodes:
            nodes.append(cand)
    return links, nodes


def _obs_fields(args) -> dict:
    """WorkloadSpec observability fields implied by the CLI flags."""
    out = {}
    if getattr(args, "trace", None) or args.command == "trace":
        out["trace"] = True
        out["trace_capacity"] = args.trace_capacity
    if getattr(args, "metrics_out", None) or args.command == "trace":
        out["metrics_stride"] = args.metrics_stride
    return out


def _write_trace_outputs(args, trace: dict | None,
                         metrics: dict | None) -> None:
    out_path = getattr(args, "out", None) or getattr(args, "trace", None)
    if out_path and trace is not None:
        doc = chrome_trace(trace, metrics)
        Path(out_path).write_text(json.dumps(doc, sort_keys=True))
        print(f"[chrome trace: {len(doc['traceEvents'])} events "
              f"({trace.get('dropped', 0)} dropped) -> {out_path}]")
    if getattr(args, "metrics_out", None) and metrics is not None:
        Path(args.metrics_out).write_text(
            json.dumps(metrics, sort_keys=True))
        print(f"[metrics: {metrics.get('samples', 0)} samples "
              f"-> {args.metrics_out}]")


#: WorkloadSpec fields whose same-named arguments mean something else
#: (``--topology mesh``, ``--trace PATH``) or apply only with an output
#: flag (see _obs_fields)
_NOT_FLAGS = ("topology", "trace", "trace_capacity", "metrics_stride")


def _spec_fields(args) -> dict:
    """The WorkloadSpec fields set by same-named flags; a flag left
    unset (None) keeps the field's default."""
    return {f.name: getattr(args, f.name) for f in fields(WorkloadSpec)
            if f.name not in _NOT_FLAGS
            and getattr(args, f.name, None) is not None}


def _spec(args, topo, **extra) -> WorkloadSpec:
    """The WorkloadSpec of ``run``/``trace`` from the flags."""
    return WorkloadSpec(topology=topo, **_spec_fields(args),
                        **_obs_fields(args), **extra)


def cmd_run(args) -> int:
    topo = _topology(args)
    fault_links, fault_nodes = _static_faults(args, topo)
    spec = _spec(args, topo, fault_links=fault_links,
                 fault_nodes=fault_nodes)
    if args.sweep_seeds > 1:
        return _sweep_seeds(args, spec)
    result = run_workload(spec)
    trace = result.pop("trace", None)
    metrics = result.pop("metrics", None)
    print(json.dumps(result, indent=2, sort_keys=True, default=str))
    _write_trace_outputs(args, trace, metrics)
    return 0


def _sweep_seeds(args, spec: WorkloadSpec) -> int:
    specs = [replace(spec, seed=args.seed + i)
             for i in range(args.sweep_seeds)]
    results = run_sweep(specs, workers=args.workers, cache=args.cache,
                        progress=True, label="simulate")
    print(f"{args.algorithm} @ {args.load} flits/node/cycle, "
          f"{args.sweep_seeds} seeds")
    rows = [{"seed": s.seed, "latency": r["mean_latency"],
             "p99": r["p99_latency"],
             "throughput": r["throughput_flits_node_cycle"],
             "delivered": r["messages_delivered"]}
            for s, r in zip(specs, results)]
    print(table(rows, [("seed", "seed"), ("latency", "mean latency"),
                       ("p99", "p99"), ("throughput", "throughput"),
                       ("delivered", "delivered")]))
    lats = [r["latency"] for r in rows if not math.isnan(r["latency"])]
    if lats:
        mean = sum(lats) / len(lats)
        var = sum((x - mean) ** 2 for x in lats) / len(lats)
        print(f"  mean latency over seeds: {fmt(mean)} "
              f"+/- {fmt(math.sqrt(var))}")
    return 0


def cmd_trace(args) -> int:
    spec = _spec(args, _topology(args),
                 timed_faults=[_parse_fault(f) for f in args.fault])
    result = run_workload(spec)
    trace = result.pop("trace")
    metrics = result.pop("metrics", None)
    print(f"{args.algorithm}: {result['messages_delivered']} delivered, "
          f"{result['messages_dropped']} dropped, "
          f"{result['messages_retried']} retried, "
          f"deadlocked={result['deadlocked']}")
    _write_trace_outputs(args, trace, metrics)
    if args.ascii and metrics is not None:
        print(ascii_timeline(metrics))
    return 0


def cmd_campaign(args) -> int:
    stats: dict = {}
    spec = _spec_fields(args)
    del spec["fault_mode"]           # every scenario runs harsh
    if args.no_retry:
        spec["retry_limit"] = 0
    report = run_campaign(
        args.scenarios, workers=args.workers, cache=args.cache,
        progress=args.progress, stats=stats,
        width=args.width, height=args.height,
        n_link_faults=args.link_faults, n_node_faults=args.node_faults,
        backup_routes=args.backups == "on", **spec, **_obs_fields(args))
    # traces/metrics are pulled out of the report (they would dwarf the
    # reliability numbers in --json); the Chrome export is scenario 0 —
    # one run per trace document, as the trace_event format expects
    traces = [s.pop("trace", None) for s in report["scenarios"]]
    metrics = [s.pop("metrics", None) for s in report["scenarios"]]
    print(campaign_table(report))
    if args.trace and traces and traces[0] is not None:
        doc = chrome_trace(traces[0], metrics[0] if metrics else None)
        Path(args.trace).write_text(json.dumps(doc, sort_keys=True))
        print(f"[chrome trace of scenario 0: "
              f"{len(doc['traceEvents'])} events -> {args.trace}]")
    if args.metrics_out and any(m is not None for m in metrics):
        Path(args.metrics_out).write_text(json.dumps(
            {f"scenario_{i}": m for i, m in enumerate(metrics)
             if m is not None}, sort_keys=True))
        print(f"[per-scenario metrics -> {args.metrics_out}]")
    if stats:
        print(f"[{stats.get('simulated', '?')} simulated, "
              f"{stats.get('cache_hits', '?')} cache hits, "
              f"{stats.get('wall_s', 0):.1f}s]")
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True))
        print(f"[report saved to {args.json}]")
    if args.strict and (report["silent_loss"] or report["dead_lettered"]
                        or report["deadlocked_scenarios"]):
        print("STRICT: reliability violations present", file=sys.stderr)
        return 1
    return 0


def _common(p: argparse.ArgumentParser) -> None:
    # a flag left unset keeps the campaign default, if there is one,
    # else the WorkloadSpec field default
    p.set_defaults(**CAMPAIGN_DEFAULTS)
    p.add_argument("--algorithm")
    p.add_argument("--topology", choices=["mesh", "cube"],
                   default="mesh")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--dimension", type=int, default=4,
                   help="hypercube dimension (with --topology cube)")
    p.add_argument("--pattern")
    p.add_argument("--load", type=float)
    p.add_argument("--message-length", type=int)
    p.add_argument("--cycles", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fault-mode", choices=["quiesce", "harsh"],
                   default="harsh")
    p.add_argument("--detection-delay", type=int)
    p.add_argument("--diagnosis-hop-delay", type=int)
    p.add_argument("--retry-limit", type=int)
    p.add_argument("--retry-backoff", type=int)
    p.add_argument("--hop-budget", type=int)
    p.add_argument("--engine", choices=["object", "batched"],
                   help="simulation engine: the per-flit object oracle "
                        "or the batched struct-of-arrays engine "
                        "(bit-identical results, metrics included; "
                        "falls back to object when tracing, a "
                        "non-stock arbiter or an unavailable C kernel "
                        "rules it out, and the summary's "
                        "engine_fallback says which)")


def _obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="PATH",
                   help="record a trace and write Chrome trace_event "
                        "JSON (ui.perfetto.dev) to PATH")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="sample a per-cycle metrics timeseries and "
                        "write it as JSON to PATH")
    p.add_argument("--trace-capacity", type=int, default=65536,
                   help="trace ring-buffer capacity in events")
    p.add_argument("--metrics-stride", type=int, default=1,
                   help="cycles between metrics samples")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="simulate",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one simulation point")
    _common(run_p)
    add_sweep_args(run_p)
    _obs_args(run_p)
    run_p.set_defaults(fault_mode=None, detection_delay=None,
                       diagnosis_hop_delay=None, retry_limit=None)
    run_p.add_argument("--link-faults", type=int, default=0,
                       help="random connectivity-preserving static "
                            "link faults")
    run_p.add_argument("--node-faults", type=int, default=0,
                       help="random static node faults")
    run_p.add_argument("--cycles-per-step", type=int,
                       help="router cycles per rule-interpretation step")
    run_p.add_argument("--arbiter", choices=["round_robin", "misrouted_first",
                                "oldest_first"])
    run_p.add_argument("--sweep-seeds", type=int, default=1, metavar="N",
                       help="replay the point under N consecutive "
                            "traffic seeds via the sweep engine")

    camp_p = sub.add_parser("campaign", help="randomized chaos campaign")
    _common(camp_p)
    add_sweep_args(camp_p)
    _obs_args(camp_p)
    camp_p.add_argument("--scenarios", type=int, default=20)
    camp_p.add_argument("--link-faults", type=int, default=2)
    camp_p.add_argument("--node-faults", type=int, default=0)
    camp_p.add_argument("--progress", action="store_true")
    camp_p.add_argument("--json", metavar="PATH",
                        help="also write the full report as JSON")
    camp_p.add_argument("--strict", action="store_true",
                        help="exit 1 on any silent loss, dead letter "
                             "or deadlock")
    camp_p.add_argument("--no-retry", action="store_true",
                        help="disable source retransmission "
                             "(retry_limit=0): isolates what fast "
                             "reroute alone recovers")
    camp_p.add_argument("--backups", choices=["on", "off"], default="off",
                        help="precompiled backup next-hop tables: "
                             "activate LFA-style fast reroute on local "
                             "link-fault confirmation "
                             "(docs/ROBUSTNESS.md)")

    trace_p = sub.add_parser(
        "trace", help="one traced run: Chrome trace JSON + metrics")
    _common(trace_p)
    trace_p.add_argument("--fault", action="append", default=[],
                         metavar="CYCLE:link:A,B | CYCLE:node:N",
                         help="mid-flight fault (repeatable)")
    trace_p.add_argument("--out", default="trace.json", metavar="PATH",
                         help="Chrome trace_event JSON output path")
    trace_p.add_argument("--metrics-out", metavar="PATH",
                         help="also write the metrics timeseries JSON")
    trace_p.add_argument("--trace-capacity", type=int, default=65536)
    trace_p.add_argument("--metrics-stride", type=int, default=1)
    trace_p.add_argument("--ascii", action="store_true",
                         help="print an ASCII timeline of the gauges")

    args = ap.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "trace":
        return cmd_trace(args)
    return cmd_campaign(args)


if __name__ == "__main__":
    raise SystemExit(main())
