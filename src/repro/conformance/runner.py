"""Run one conformance case and collect everything the oracles need.

Runs are fully deterministic: the case is plain data, faults are
static (present from cycle 0, already diagnosed — the reliability
layer's dynamic-fault machinery is off), and message ids are allocated
per network.  ``run_case_payload`` is the top-level worker the sweep
pool fans cases out to; oracles run *inside* the worker because they
need the reconstructed topology and fault state, and only JSON-able
results travel back.
"""

from __future__ import annotations

from ..routing.registry import ALGORITHM_META, make_algorithm
from ..sim.batched import build_network
from ..sim.config import SimConfig
from ..sim.faults import FaultSchedule
from ..sim.network import DeadlockError
from ..sim.stats import DecisionDigest
from .case import ConformanceCase
from .differential import ShadowDifferential
from .mutations import apply_mutation

#: interpreter variants the cross-interpreter oracle compares: the
#: production compiled-table kernel and the AST reference interpreter
INTERP_VARIANTS = (
    ("table", {"engine_mode": "table"}),
    ("ast", {"engine_mode": "ast"}),
)


#: how a case is run, as opposed to what the case is: a payload may
#: carry any of these beside the case fields (see run_case)
RUN_DEFAULTS = {"engine": "object", "metrics_stride": 0, "frr": False}


def _simulate(case: ConformanceCase, algorithm, *, engine: str,
              metrics_stride: int, frr: bool) -> dict:
    """One simulation of ``case`` with a prebuilt algorithm instance."""
    topo = case.build_topology()
    if frr:
        # wrap directly rather than via SimConfig(backup_routes=True):
        # that knob needs the harsh-mode recovery machinery, while
        # conformance faults are static and never *confirmed* — so the
        # wrapper must stay unarmed, and compiling/carrying the backup
        # tables must not change a single decision
        from ..routing.backup import FastReroute
        algorithm = FastReroute(algorithm, topo)
    config = SimConfig(buffer_depth=case.buffer_depth, trace_paths=True,
                       engine=engine)
    metrics = None
    if metrics_stride:
        from ..obs import MetricsTimeseries
        metrics = MetricsTimeseries(stride=metrics_stride)
    net = build_network(topo, algorithm, config, arbiter=case.arbiter,
                        metrics=metrics)
    net.stats.digest = DecisionDigest()
    if case.has_faults():
        net.schedule_faults(FaultSchedule.static(
            links=case.fault_links, nodes=case.fault_nodes))

    offered: list[dict] = []
    for cycle, src, dst, length in sorted(case.messages,
                                          key=lambda m: m[0]):
        while net.cycle < cycle:
            net.step()
        msg = net.offer(src, dst, length)
        offered.append({
            "src": src, "dst": dst, "length": length, "cycle": cycle,
            "msg_id": None if msg is None else msg.header.msg_id,
            "refused": msg is None,
        })

    deadlock = None
    try:
        net.run_until_drained(max_cycles=case.max_cycles)
    except DeadlockError as exc:
        diag = exc.diagnosis
        deadlock = {
            "cycle": diag.cycle if diag else net.cycle,
            "blocking_cycle": (list(diag.blocking_cycle)
                               if diag and diag.blocking_cycle else []),
            "holding_nodes": (sorted(diag.holding_nodes)
                              if diag else []),
        }

    for rec in offered:
        if rec["refused"]:
            continue
        msg = net.messages[rec["msg_id"]]
        rec["delivered"] = msg.delivered is not None
        rec["dropped"] = bool(msg.dropped)
        rec["hops"] = msg.hops
        rec["trace"] = list(msg.header.fields.get("trace", []))

    out = {
        "summary": net.stats.summary(topo.n_nodes),
        "digest": net.stats.digest.hexdigest(),
        "decisions": net.stats.digest.count,
        "deadlock": deadlock,
        "messages": offered,
    }
    if metrics is not None:
        # sampling must be an invisible observer: record that it ran
        # (and on which engine) without perturbing digests/summaries
        out["metrics"] = {"rows": metrics.n_samples(),
                          "engine": net.engine_name}
    return out


def run_case(case: ConformanceCase, *, shadow: bool = True,
             interp: bool = True, **run) -> dict:
    """Run a case (with its recorded mutation, if any) and return the
    JSON-able evidence dict the oracles consume.

    ``shadow`` adds the ft/nft decision differential when the
    algorithm's metadata names an nft twin and the case is fault-free;
    ``interp`` re-runs rule-driven cases under every interpreter
    variant and records their digests.  ``run`` overrides
    :data:`RUN_DEFAULTS`.  ``engine`` selects the simulation engine for
    every run (the batched engine must reproduce the object engine's
    digests bit-for-bit, so running the corpus with
    ``engine="batched"`` is itself a conformance check).
    ``metrics_stride`` > 0 attaches a metrics timeseries to the primary
    run — sampling must never perturb a digest, so running the corpus
    with metrics on is a conformance check of the observer itself.
    ``frr`` runs the case with ``SimConfig(backup_routes=True)``:
    conformance faults are static (never *confirmed* at runtime), so
    the FastReroute wrapper must stay transparent — compiling and
    carrying the backup tables must not change a single decision.
    ``frr`` disables the shadow differential: the backup-table build
    probes the wrapped algorithm under synthetic fault configurations,
    which would pollute a shadow wrapper's mismatch log.
    """
    run = {**RUN_DEFAULTS, **run}
    meta = ALGORITHM_META[case.algorithm]
    with apply_mutation(case.mutation):
        if shadow and not run["frr"] and meta.nft_equivalent \
                and not case.has_faults():
            algo = ShadowDifferential(make_algorithm(case.algorithm),
                                      make_algorithm(meta.nft_equivalent))
            result = _simulate(case, algo, **run)
            result["shadow"] = {"against": meta.nft_equivalent,
                                "mismatches": algo.mismatches}
        else:
            result = _simulate(case, make_algorithm(case.algorithm), **run)

        if interp and meta.rule_driven:
            runs = {}
            for label, kwargs in INTERP_VARIANTS:
                sub = _simulate(case, make_algorithm(case.algorithm,
                                                     **kwargs),
                                **{**run, "metrics_stride": 0})
                runs[label] = {"digest": sub["digest"],
                               "decisions": sub["decisions"],
                               "summary": sub["summary"]}
            result["interp"] = runs
    return result


def run_case_payload(payload: dict) -> dict:
    """Worker entry point for the sweep pool: case dict in, case key +
    evidence + violations out (everything JSON-able).  Top-level so it
    pickles.

    ``payload`` is a case dict plus any :data:`RUN_DEFAULTS` keys —
    properties of the *run*, not the scenario, so they are stripped
    before the case is reconstructed (case keys and corpus entries stay
    independent of how the case was executed)."""
    from .oracles import check_case  # local: avoid an import cycle

    payload = dict(payload)
    run = {k: type(v)(payload.pop(k)) for k, v in RUN_DEFAULTS.items()
           if k in payload}
    case = ConformanceCase.from_dict(payload)
    result = run_case(case, **run)
    violations = check_case(case, result)
    return {
        "case": payload,
        "case_key": case.case_key(),
        "algorithm": case.algorithm,
        "violations": [v.to_dict() for v in violations],
        "digest": result["digest"],
        "decisions": result["decisions"],
        "deadlock": result["deadlock"],
        **({"metrics": result["metrics"]} if "metrics" in result else {}),
    }
