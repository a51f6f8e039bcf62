"""Reusable experiment runners for the benchmark harness.

Each runner builds a network, drives a workload, and returns plain-dict
results so benchmarks can print paper-vs-measured tables and tests can
assert on shapes (who wins, by what factor, where crossovers fall).

Every sweep-shaped runner expands into a list of independent
:class:`WorkloadSpec` points and submits them through
:func:`repro.experiments.pool.run_sweep`, so callers get process-pool
fan-out and content-addressed result caching with ``workers=N`` /
``cache=True`` — serially and in-process by default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from ..routing.registry import make_algorithm
from ..sim import (FaultSchedule, Mesh2D, Network, SimConfig,
                   TrafficGenerator, Hypercube, random_link_faults)
from ..sim.traffic import PATTERNS, check_pattern_kwargs
from ..sim.batched import build_network
from ..sim.network import DeadlockError
from ..sim.topology import Topology, topology_from_dict


def _pair(t) -> tuple[int, int]:
    return (int(t[0]), int(t[1]))


def _timed(fault) -> tuple:
    cycle, kind, target = fault
    return (int(cycle), kind,
            _pair(target) if kind == "link" else int(target))


#: the fields whose JSON form is not a plain scalar: (to JSON, from
#: JSON).  Fault sets are order-insensitive — every ordering of the same
#: faults is the same experiment and must hash identically — so their
#: JSON form is sorted, with link endpoints in ascending order.
_CODECS = {
    "topology": (lambda t: t.describe() if isinstance(t, Topology)
                 else dict(t), topology_from_dict),
    "pattern_kwargs": (dict, dict),
    "fault_links": (lambda ls: sorted(sorted(_pair(ln)) for ln in ls),
                    lambda ls: [_pair(ln) for ln in ls]),
    "fault_nodes": (lambda ns: sorted(int(n) for n in ns),
                    lambda ns: [int(n) for n in ns]),
    "timed_faults": (
        lambda fs: sorted([c, k, sorted(t) if k == "link" else t]
                          for c, k, t in map(_timed, fs)),
        lambda fs: [_timed(f) for f in fs]),
}
#: scalar fields, by annotation: one cast serves both directions
_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}


def _codec(f) -> tuple:
    """(to JSON, from JSON) for one WorkloadSpec field."""
    cast = _SCALARS.get(f.type)
    return _CODECS.get(f.name, (cast, cast))


@dataclass
class WorkloadSpec:
    """One simulation point: everything needed to reproduce a run.

    ``topology`` may be a live :class:`Topology` or a description dict
    (``Topology.describe()`` output).  Live topologies cannot cross
    process boundaries, so the sweep engine ships ``to_dict()`` to the
    workers and each worker rebuilds its own topology; the two
    spellings are equivalent and hash to the same :meth:`spec_key`.

    Every field named like a :class:`SimConfig` field is that field
    (see :meth:`sim_config`); the declarations below are the only
    statement of each option and its default.
    """

    topology: Topology | dict
    algorithm: str
    pattern: str = "uniform"
    #: extra TrafficGenerator arguments for parameterized patterns
    #: (hotspot: hotspot/fraction)
    pattern_kwargs: dict = field(default_factory=dict)
    load: float = 0.1
    message_length: int = 4
    cycles: int = 2000
    warmup: int = 400
    seed: int = 1
    cycles_per_step: int = 0      # runs with max(1, cycles_per_step)
    buffer_depth: int = 4
    fault_links: list = field(default_factory=list)
    fault_nodes: list = field(default_factory=list)
    arbiter: str = "round_robin"
    drain: bool = True            # run_until_drained after the cycles
    # -- reliability knobs (defaults reproduce the classic behaviour) --
    fault_mode: str = "quiesce"
    detection_delay: int = 0
    diagnosis_hop_delay: int = 0
    retry_limit: int = 0
    retry_backoff: int = 16
    hop_budget: int = 0
    #: LFA-style fast reroute (precompiled backup subbases; harsh mode)
    backup_routes: bool = False
    #: mid-flight faults: (cycle, "link", (a, b)) / (cycle, "node", n)
    timed_faults: list = field(default_factory=list)
    # -- observability (repro.obs; all off by default) -----------------
    trace: bool = False           # record a RingTracer event stream
    trace_capacity: int = 65536
    metrics_stride: int = 0       # 0 = no timeseries; N = sample every N
    #: simulation engine: "object" (the oracle) or "batched" (the
    #: struct-of-arrays engine; bit-identical summaries, metrics
    #: included — falls back to the object engine when tracing is
    #: requested, the arbiter is not the stock round-robin or the C
    #: kernel is unavailable, and the summary's ``engine_fallback`` key
    #: says why)
    engine: str = "object"

    def __post_init__(self):
        # fail at spec-parse time, not deep inside TrafficGenerator,
        # SimConfig or the routing layer mid-sweep
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown traffic pattern {self.pattern!r}; "
                             f"choose from {sorted(PATTERNS)}")
        check_pattern_kwargs(self.pattern, self.pattern_kwargs)
        self.sim_config()

    def sim_config(self) -> SimConfig:
        """The :class:`SimConfig` of this point: every SimConfig field
        the spec also declares.  A spec's ``cycles_per_step`` of 0
        means one cycle per step (``SimConfig(cycles_per_step=0)``
        would make every decision take one cycle, whatever its steps)."""
        shared = {f.name: getattr(self, f.name) for f in fields(SimConfig)
                  if f.name in self.__dataclass_fields__}
        shared["cycles_per_step"] = max(1, self.cycles_per_step)
        return SimConfig(**shared)

    # -- serialization (process boundary / cache identity) ------------

    def build_topology(self) -> Topology:
        """A live topology for this spec (rebuilt if only described)."""
        if isinstance(self.topology, Topology):
            return self.topology
        return topology_from_dict(self.topology)

    def to_dict(self) -> dict:
        """Canonical JSON-able form, every field included."""
        return {f.name: _codec(f)[0](getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        """Inverse of :meth:`to_dict`; absent fields take their
        defaults, and a key that names no field is an error."""
        decode = {f.name: _codec(f)[1] for f in fields(cls)}
        unknown = sorted(set(d) - set(decode))
        if unknown:
            raise ValueError(f"unknown WorkloadSpec field(s) {unknown}")
        return cls(**{k: decode[k](v) for k, v in d.items()})

    def spec_key(self, code_token: str | None = None) -> str:
        """Content address of this simulation point: a stable hash of
        the canonical dict plus a code-version token, so cached results
        are invalidated whenever the spec *or* the simulator/routing
        code changes."""
        if code_token is None:
            from .pool import code_version_token
            code_token = code_version_token()
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(
            (code_token + "\n" + blob).encode()).hexdigest()


def run_workload(spec: WorkloadSpec) -> dict:
    """One simulation run; returns the stats summary + run metadata."""
    topology = spec.build_topology()
    algo = make_algorithm(spec.algorithm)
    tracer = metrics = None
    if spec.trace:
        from ..obs import RingTracer
        tracer = RingTracer(capacity=spec.trace_capacity)
    if spec.metrics_stride:
        from ..obs import MetricsTimeseries
        metrics = MetricsTimeseries(stride=spec.metrics_stride)
    net = build_network(topology, algo, config=spec.sim_config(),
                        arbiter=spec.arbiter, tracer=tracer,
                        metrics=metrics)
    if spec.fault_links or spec.fault_nodes or spec.timed_faults:
        schedule = FaultSchedule.static(links=spec.fault_links,
                                        nodes=spec.fault_nodes)
        for cycle, kind, target in spec.timed_faults:
            if kind == "link":
                schedule.add_link_fault(cycle, *target)
            else:
                schedule.add_node_fault(cycle, target)
        net.schedule_faults(schedule)
    net.attach_traffic(TrafficGenerator(
        topology, spec.pattern, load=spec.load,
        message_length=spec.message_length, seed=spec.seed,
        pattern_kwargs=spec.pattern_kwargs or None))
    net.set_warmup(spec.warmup)
    try:
        return _run_and_summarize(spec, net, topology, tracer)
    finally:
        net.release()


def _run_and_summarize(spec: WorkloadSpec, net: Network,
                       topology: Topology, tracer) -> dict:
    deadlocked = False
    try:
        net.run(spec.cycles)
        if spec.drain:
            net.traffic = None
            net.run_until_drained(max_cycles=300_000)
    except DeadlockError:
        deadlocked = True
    out = net.stats.summary(topology.n_nodes)
    out["algorithm"] = spec.algorithm
    out["load"] = spec.load
    out["pattern"] = spec.pattern
    out["deadlocked"] = deadlocked
    out["engine"] = net.engine_name
    # a constant: the pinned e2e summary digests hash this key
    out["policy"] = "deterministic"
    out["undelivered"] = net.n_undelivered()
    out["n_faults"] = net.faults.n_faults()
    out.update(_logical_accounting(net))
    if net.known_faults is not net.faults:   # diagnosis lags faults
        out.update(_recovery_gaps(net))
    if tracer is not None:
        # a raw blob, not Chrome format: plain-JSON results survive the
        # process pool and the content-addressed cache unchanged, and
        # exporters convert at presentation time (the metrics blob rides
        # along inside the stats summary the same way)
        out["trace"] = tracer.to_dict()
    return out


def _logical_accounting(net: Network) -> dict:
    """End-to-end reliability per *logical* message: the original send
    and all its retransmissions share one root id, so one root counts
    delivered if any copy arrived.  A root that was neither delivered
    nor dead-lettered (an accounted give-up) is *silent loss* — the
    failure class the retry machinery exists to eliminate."""
    root, retry, delivered = net.message_roots()
    # root ids are message ids: one flag per id marks each set of roots
    created, arrived, dead = (np.zeros(len(root), dtype=bool)
                              for _ in range(3))
    created[root[~retry]] = True
    arrived[root[delivered]] = True
    dead[net.dead_letters] = True
    return {
        "messages_created_logical": int(np.count_nonzero(created)),
        "messages_delivered_logical": int(np.count_nonzero(arrived)),
        "silent_loss": int(np.count_nonzero(created & ~arrived & ~dead)),
    }


def _recovery_gaps(net: Network) -> dict:
    """Per-fault recovery gaps from the network's fault log.  The
    *loss window* of a fault is the stretch during which messages can
    still die against it: up to local confirmation (fault + detection
    delay) when the fast-reroute backups take over at that point, up to
    global convergence of the notification flood otherwise.
    ``cycles_of_loss`` sums the windows — the recovery-gap figure the
    chaos campaigns and the CI lane gate on."""
    events = []
    loss = 0
    for rec in net.fault_log:
        end = rec["confirmed"] if rec["fast_reroute"] else rec["converged"]
        if end is None:            # still outstanding when the run ended
            end = net.cycle
        gap = int(end) - int(rec["cycle"])
        events.append({**rec, "loss_window": gap})
        loss += gap
    return {"fault_events": events, "cycles_of_loss": loss}


def _sweep(specs: list[WorkloadSpec], label: str, workers: int,
           cache: bool, progress, stats) -> list[dict]:
    from .pool import run_sweep
    return run_sweep(specs, workers=workers, cache=cache,
                     progress=progress, label=label, stats=stats)


def latency_vs_load(topology_factory, algorithm: str,
                    loads: list[float], workers: int = 0,
                    cache: bool = False, progress=False, stats=None,
                    **kw) -> list[dict]:
    """Latency/throughput curve over offered load (one fresh network
    per point)."""
    specs = [WorkloadSpec(topology=topology_factory(), algorithm=algorithm,
                          load=load, drain=False, **kw)
             for load in loads]
    return _sweep(specs, f"latency_vs_load[{algorithm}]", workers, cache,
                  progress, stats)


def saturation_throughput(points: list[dict]) -> float:
    """Accepted throughput at the highest offered load (flits/node/
    cycle) — the classic saturation measure."""
    return max(p["throughput_flits_node_cycle"] for p in points)


def sweep_fault_rng(seed: int, n: int) -> np.random.Generator:
    """Per-point fault RNG for the fault sweeps.  Sequence seeding
    ``[seed, n]`` keeps every (base seed, point) stream distinct —
    the additive ``seed + n`` it replaces collided across sweeps with
    adjacent base seeds (seed 7 point 1 == seed 6 point 2)."""
    return np.random.default_rng([seed, n])


def mesh_fault_sweep(algorithm: str, n_faults_list: list[int],
                     width: int = 8, height: int = 8, seed: int = 7,
                     workers: int = 0, cache: bool = False,
                     progress=False, stats=None, **kw) -> list[dict]:
    """NAFTA-style experiment: fixed moderate load, increasing numbers
    of random (connectivity-preserving) link faults."""
    specs = []
    for n in n_faults_list:
        topo = Mesh2D(width, height)
        rng = sweep_fault_rng(seed, n)
        links = random_link_faults(topo, n, rng) if n else []
        specs.append(WorkloadSpec(topology=topo, algorithm=algorithm,
                                  fault_links=links, seed=seed, **kw))
    out = _sweep(specs, f"mesh_fault_sweep[{algorithm}]", workers, cache,
                 progress, stats)
    for res, n in zip(out, n_faults_list):
        res["n_link_faults"] = n
    return out


def cube_fault_sweep(algorithm: str, n_faults_list: list[int],
                     dimension: int = 4, seed: int = 3,
                     workers: int = 0, cache: bool = False,
                     progress=False, stats=None, **kw) -> list[dict]:
    specs = []
    for n in n_faults_list:
        topo = Hypercube(dimension)
        rng = sweep_fault_rng(seed, n)
        nodes = []
        while len(nodes) < n:
            cand = int(rng.integers(0, topo.n_nodes))
            if cand not in nodes:
                nodes.append(cand)
        specs.append(WorkloadSpec(topology=topo, algorithm=algorithm,
                                  fault_nodes=nodes, seed=seed, **kw))
    out = _sweep(specs, f"cube_fault_sweep[{algorithm}]", workers, cache,
                 progress, stats)
    for res, n in zip(out, n_faults_list):
        res["n_node_faults"] = n
    return out


def decision_time_sweep(topology_factory, algorithm: str,
                        cycles_per_step_list: list[int],
                        workers: int = 0, cache: bool = False,
                        progress=False, stats=None, **kw) -> list[dict]:
    """The [DLO97] experiment: impact of routing-decision time on
    network latency."""
    specs = [WorkloadSpec(topology=topology_factory(), algorithm=algorithm,
                          cycles_per_step=cps, **kw)
             for cps in cycles_per_step_list]
    out = _sweep(specs, f"decision_time_sweep[{algorithm}]", workers, cache,
                 progress, stats)
    for res, cps in zip(out, cycles_per_step_list):
        res["cycles_per_step"] = cps
    return out
