"""Outside-in layer tracing for the traced benchmark run.

Wrappers are installed from the benchmark's own files on public
functions and methods of ``repro.core``, ``repro.hwcost``,
``repro.routing``, ``repro.sim`` and ``repro.experiments``, at the
name each caller resolves (every module attribute bound to a wrapped
function is rebound; methods are replaced on their class).  No
``src/`` file knows it is being traced.

Spans are aggregated in memory per span name — calls, inclusive time of
the outermost span of that name, and self time (a span's duration
minus the time its child spans cover) — and written out when the run
ends.  Per-call records would cost hundreds of megabytes on the
decision-heavy workloads, so only the per-op totals are kept (see
``Tracer.snapshot``).

The per-layer metrics themselves (names, units, directions) are listed
in BENCHMARK.json; README.md maps each to the end-to-end metric it
explains and the workloads that exercise it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: simulated statistics: any change is a behaviour change
EXACT_COUNTS = ("sim.decisions", "sim.node_cycles", "sim.retries",
                "sim.dead_letters", "sim.silent_loss", "sim.cycles_of_loss",
                "sim.worms_healed", "core.steps_per_decision")


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self):
        self._stack: list[list] = []        # open spans: [child seconds]
        self.active: Counter = Counter()    # open spans (or counters) by name
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        #: (n_nodes, summary) of every run_workload call
        self.summaries: list[tuple[int, dict]] = []

    def span(self, name: str, fn, on_exit=None):
        """``fn`` wrapped in a span called ``name``.  A span nested in
        an open span of the same name (a wrapper delegating to the
        algorithm it wraps, a subclass calling ``super()``) adds its
        self time but no call and no inclusive time; ``on_exit(args,
        result)`` runs for outermost spans only."""
        stack, active, clock = self._stack, self.active, time.perf_counter
        calls, total, self_s = self.calls, self.total, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not active[name]
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += dt
                self_s[name] += dt - frame[0]
                if outer:
                    calls[name] += 1
                    total[name] += dt
            if outer and on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """``fn`` wrapped to count outermost calls, without a span (its
        time stays with the enclosing span)."""
        active, counts = self.active, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not active[name]:
                counts[name] += 1
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1

        return counted

    def snapshot(self) -> dict:
        """Plain-dict copy of everything recorded so far."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}


def diff(after: dict, before: dict) -> dict:
    """Per-field difference of two snapshots (one op's share)."""
    return {k: {n: v - before[k].get(n, 0) for n, v in after[k].items()
                if v != before[k].get(n, 0)}
            for k in after}


# -- installation ----------------------------------------------------------

def _rebind_everywhere(orig, wrapped) -> None:
    """Point every module attribute bound to ``orig`` at ``wrapped``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is orig:
                namespace[attr] = wrapped


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def instrument(tracer: Tracer) -> None:
    """Install the layer wrappers for the rest of the process.  Modules
    imported after this call see the wrapped functions through the
    attributes rebound here."""
    import repro.core.compiler.backup as backup
    import repro.core.compiler.compile as compile_mod
    import repro.core.compiler.fastpath as fastpath
    import repro.core.engine as engine
    import repro.experiments.campaign as campaign
    import repro.experiments.pool as pool
    import repro.experiments.runners as runners
    import repro.hwcost.tables as hw_tables
    import repro.routing.backup  # noqa: F401  (FastReroute subclass)
    import repro.routing.clean_table as clean_table
    import repro.routing.registry  # noqa: F401  (every algorithm)
    import repro.sim.batched as batched
    import repro.sim.network as network
    import repro.sim.router as router
    import repro.sim.stats as stats
    import repro.sim.traffic as traffic
    from repro.routing.base import RoutingAlgorithm

    def wrap_function(module, attr, wrapped_factory):
        orig = getattr(module, attr)
        _rebind_everywhere(orig, wrapped_factory(orig))

    def wrap_method(classes, attr, wrapped_factory):
        for cls in classes:
            if attr in cls.__dict__:
                setattr(cls, attr, wrapped_factory(cls.__dict__[attr]))

    def span(name, on_exit=None):
        return lambda fn: tracer.span(name, fn, on_exit)

    def count(name):
        return lambda fn: tracer.counter(name, fn)

    def runtime_route(args, result):
        if tracer.active["sim.run"]:
            tracer.counts["routing.route.runtime_calls"] += 1

    def offer_refused(args, result):
        if result is None:
            tracer.counts["sim.offer.refused"] += 1

    def workload_summary(args, result):
        spec = args[0]
        tracer.summaries.append((spec.build_topology().n_nodes, result))

    wrap_function(compile_mod, "compile_program", span("core.compile"))
    wrap_function(hw_tables, "cost_report", span("hwcost.cost_report"))
    wrap_function(clean_table, "load_or_build", span("routing.clean_table"))
    wrap_function(clean_table, "build_clean_table",
                  count("routing.clean_table.builds"))
    wrap_function(backup, "build_backup_table_for", span("routing.backup"))
    wrap_function(batched, "build_network", span("sim.build_network"))
    wrap_function(runners, "run_workload",
                  span("experiments.run_workload", workload_summary))
    wrap_function(pool, "run_sweep", span("experiments.sweep"))
    wrap_function(campaign, "run_campaign", span("experiments.sweep"))

    wrap_method([engine.RuleEngine], "call", span("core.rule_call"))
    wrap_method([engine.RuleEngine], "set_inputs", span("core.set_inputs"))
    wrap_method([fastpath.DecisionKernel], "entry", span("core.premise"))
    wrap_method([fastpath.DecisionKernel], "invoke",
                span("core.conclusion"))
    algorithms = _subclasses(RoutingAlgorithm)
    wrap_method(algorithms, "route", span("routing.route", runtime_route))
    wrap_method(algorithms, "on_fault_update",
                span("routing.on_fault_update"))
    wrap_method([router.Router], "flush_incoming", span("sim.flush"))
    wrap_method([router.Router], "route_stage", span("sim.route_stage"))
    wrap_method([router.Router], "collect_requests", span("sim.alloc"))
    wrap_method([router.Router], "grant", span("sim.alloc"))
    wrap_method([traffic.TrafficGenerator], "tick", span("sim.traffic"))
    networks = _subclasses(network.Network)
    wrap_method(networks, "offer", span("sim.offer", offer_refused))
    wrap_method(networks, "run", span("sim.run"))
    wrap_method(networks, "run_until_drained", span("sim.run"))
    wrap_method(networks, "apply_fault", count("sim.faults.applied"))
    wrap_method(networks, "message_stuck", count("sim.stuck.calls"))
    wrap_method(networks, "drop_message", count("sim.drops.calls"))
    # both engines count a decision made in Python through this; the
    # batched kernel adds the ones it makes itself in bulk
    wrap_method([stats.StatsCollector], "count_decision",
                count("sim.python_decisions"))


# -- per-layer metrics -----------------------------------------------------

def layer_metrics(trace: dict, kernel_build_s: float,
                  untraced_wall_s: float, names: list[str]) -> dict:
    """The per-layer metrics ``names`` (BENCHMARK.json's ``per_layer``)
    from a traced child's report."""
    calls, self_s = trace["calls"], trace["self_s"]
    counts, sums = trace["counts"], trace["sums"]
    traced = trace["setup_s"] + trace["wall_s"]
    decisions = sums["decisions"]
    cycles = sums["cycles"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "core.steps_per_decision": ratio(sums["decision_steps"], decisions),
        "routing.route.per_cycle": ratio(
            counts.get("routing.route.runtime_calls", 0), cycles),
        "routing.native_frac": 1.0 - ratio(
            counts.get("sim.python_decisions", 0), decisions),
        "routing.clean_table.builds": counts.get(
            "routing.clean_table.builds", 0),
        "routing.backup.builds": calls.get("routing.backup", 0),
        "sim.offer.refused": counts.get("sim.offer.refused", 0),
        "sim.active_routers_per_cycle": ratio(calls.get("sim.flush", 0),
                                              sums["object_cycles"]),
        "sim.node_cycles_per_s": ratio(sums["node_cycles"],
                                       trace["total"].get("sim.run", 0.0)),
        "sim.faults.applied": counts.get("sim.faults.applied", 0),
        "sim.stuck.calls": counts.get("sim.stuck.calls", 0),
        "sim.drops.calls": counts.get("sim.drops.calls", 0),
        "sim.decisions": decisions,
        "sim.node_cycles": sums["node_cycles"],
        "sim.retries": sums["retries"],
        "sim.dead_letters": sums["dead_letters"],
        "sim.silent_loss": sums["silent_loss"],
        "sim.cycles_of_loss": sums["cycles_of_loss"],
        "sim.worms_healed": sums["worms_healed"],
        "batched.engine_fallbacks": sums["engine_fallbacks"],
        "batched.kernel_build_s": kernel_build_s,
        "experiments.ops": trace["ops"],
        "experiments.ops_failed": trace["ops_failed"],
        "trace.traced_s": traced,
        "trace.overhead_frac": ratio(trace["wall_s"], untraced_wall_s) - 1.0,
    }
    for name in names:
        if name in out:
            continue
        span_name, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(span_name, 0)
        elif field == "self_frac":
            out[name] = ratio(self_s.get(span_name, 0.0), traced)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return {name: out[name] for name in names}


def summary_sums(summaries: list[tuple[int, dict]]) -> dict:
    """Simulated totals over ``run_workload`` summaries."""
    sums = Counter()
    fallbacks = Counter()
    for n_nodes, s in summaries:
        sums["decisions"] += s["decisions"]
        sums["decision_steps"] += round(s["mean_decision_steps"]
                                        * s["decisions"])
        sums["cycles"] += s["cycles"]
        sums["node_cycles"] += s["cycles"] * n_nodes
        if s.get("engine") == "object":
            sums["object_cycles"] += s["cycles"]
        sums["retries"] += s["messages_retried"]
        sums["dead_letters"] += s["messages_dead_lettered"]
        sums["silent_loss"] += s["silent_loss"]
        sums["cycles_of_loss"] += s.get("cycles_of_loss", 0)
        sums["worms_healed"] += s.get("reroute", {}).get("worms_healed", 0)
        if "engine_fallback" in s:
            sums["engine_fallbacks"] += 1
            fallbacks[s["engine_fallback"]] += 1
    out = {k: sums[k] for k in (
        "decisions", "decision_steps", "cycles", "node_cycles",
        "object_cycles", "retries", "dead_letters", "silent_loss",
        "cycles_of_loss", "worms_healed", "engine_fallbacks")}
    out["fallback_reasons"] = dict(fallbacks)
    return out
