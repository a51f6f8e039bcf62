"""The oracle registry: what a correct routing run must look like.

Every oracle is a pure function over (case, metadata, evidence) — the
evidence being the JSON-able dict :func:`~.runner.run_case` produced —
returning a list of :class:`Violation`.  Keeping oracles pure over
serialized evidence means a corpus replay months later re-judges the
run with zero hidden state.

An oracle only fires when a run contradicts *documented* behaviour
(see :class:`~repro.routing.registry.AlgoMeta`): concessions like
NAFTA's right to refuse destinations inside a completed fault ring are
metadata, not special cases buried in oracle code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..routing.registry import ALGORITHM_META, AlgoMeta
from ..routing.route_c import FAULTY, SUNSAFE, CubeStateMap
from ..sim.faults import FaultState
from ..sim.topology import Topology
from .case import ConformanceCase


@dataclass
class Violation:
    """One oracle's objection to one run."""

    oracle: str
    message: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "message": self.message,
                "details": self.details}

    @classmethod
    def from_dict(cls, d: dict) -> "Violation":
        return cls(oracle=d["oracle"], message=d["message"],
                   details=dict(d.get("details", {})))


def _fault_state(case: ConformanceCase, topo: Topology) -> FaultState:
    state = FaultState(topo)
    for n in case.fault_nodes:
        state.fail_node(n)
    for a, b in case.fault_links:
        state.fail_link(a, b)
    return state


def _delivered(result: dict):
    for rec in result["messages"]:
        if not rec.get("refused") and rec.get("delivered"):
            yield rec


# -- universal oracles ----------------------------------------------------


def oracle_legal_path(case, meta, result, topo, faults):
    """Every delivered worm took a path of live, adjacent links and
    never transited a faulty node."""
    out = []
    for rec in _delivered(result):
        trace = rec["trace"]
        if not trace or trace[0] != rec["src"] or trace[-1] != rec["dst"]:
            out.append(Violation(
                "legal_path",
                f"msg {rec['msg_id']}: trace endpoints {trace[:1]}..."
                f"{trace[-1:]} disagree with src={rec['src']} "
                f"dst={rec['dst']}",
                {"msg_id": rec["msg_id"], "trace": trace}))
            continue
        for a, b in zip(trace, trace[1:]):
            if b not in {p.neighbor for p in topo.ports(a).values()}:
                out.append(Violation(
                    "legal_path",
                    f"msg {rec['msg_id']}: hop {a}->{b} is not a "
                    f"topology link",
                    {"msg_id": rec["msg_id"], "hop": [a, b],
                     "trace": trace}))
            elif not faults.link_ok(a, b):
                out.append(Violation(
                    "legal_path",
                    f"msg {rec['msg_id']}: hop {a}->{b} crosses a "
                    f"faulty link",
                    {"msg_id": rec["msg_id"], "hop": [a, b],
                     "trace": trace}))
        for node in trace:
            if not faults.node_ok(node):
                out.append(Violation(
                    "legal_path",
                    f"msg {rec['msg_id']}: path visits faulty node "
                    f"{node}",
                    {"msg_id": rec["msg_id"], "node": node,
                     "trace": trace}))
    return out


def oracle_minimality(case, meta, result, topo, faults):
    """In a fault-free network a minimal algorithm delivers every worm
    over a shortest path (hops counts the ejection hop, hence +1)."""
    if case.has_faults() or not meta.minimal_fault_free:
        return []
    out = []
    for rec in _delivered(result):
        shortest = topo.distance(rec["src"], rec["dst"]) + 1
        if rec["hops"] != shortest:
            out.append(Violation(
                "minimality",
                f"msg {rec['msg_id']}: {rec['hops']} hops from "
                f"{rec['src']} to {rec['dst']}, minimal is {shortest}",
                {"msg_id": rec["msg_id"], "hops": rec["hops"],
                 "minimal": shortest, "trace": rec["trace"]}))
    return out


def oracle_delivery(case, meta, result, topo, faults):
    """Zero dead letters when the fault pattern keeps the network
    connected: every accepted message is delivered, and fault-free
    networks refuse nothing."""
    out = []
    faulty = case.has_faults()
    for rec in result["messages"]:
        if rec["refused"]:
            if not faulty or not meta.may_refuse_under_faults:
                out.append(Violation(
                    "delivery",
                    f"message {rec['src']}->{rec['dst']} refused at "
                    f"injection"
                    + ("" if faulty else " in a fault-free network"),
                    {"src": rec["src"], "dst": rec["dst"]}))
            continue
        if not rec["delivered"]:
            if faulty and meta.may_stick_under_faults:
                continue
            out.append(Violation(
                "delivery",
                f"msg {rec['msg_id']} ({rec['src']}->{rec['dst']}) "
                f"never delivered"
                + (" (dropped)" if rec["dropped"] else ""),
                {"msg_id": rec["msg_id"], "src": rec["src"],
                 "dst": rec["dst"], "dropped": rec["dropped"]}))
    return out


def oracle_liveness(case, meta, result, topo, faults):
    """The watchdog found no stall: the paper's algorithms are
    deadlock-free by construction, so a blocking cycle is always a
    bug."""
    dl = result.get("deadlock")
    if dl is None:
        return []
    return [Violation(
        "liveness",
        f"network stalled at cycle {dl['cycle']} "
        f"(blocking cycle through {len(dl['blocking_cycle'])} channels)",
        dict(dl))]


# -- conditional oracles --------------------------------------------------


def oracle_route_c_safe_nodes(case, meta, result, topo, faults):
    """ROUTE_C's unsafe-node discipline: a delivered worm never
    *transits* a strongly-unsafe node (endpoints may be unsafe).  Sound
    because the pristine algorithm never offers a SUNSAFE neighbour
    except as the destination."""
    states = CubeStateMap(topo, faults)
    out = []
    for rec in _delivered(result):
        for node in rec["trace"][1:-1]:
            st = states.state(node)
            if st in (SUNSAFE, FAULTY):
                out.append(Violation(
                    "route_c_safe_nodes",
                    f"msg {rec['msg_id']}: transits {st} node {node}",
                    {"msg_id": rec["msg_id"], "node": node,
                     "state": st, "trace": rec["trace"]}))
    return out


def oracle_ft_nft_shadow(case, meta, result, topo, faults):
    """Fault-free decision equivalence with the nft twin (the paper's
    "behaves exactly like" claims), judged decision-by-decision by the
    shadow differential the runner attached."""
    shadow = result.get("shadow")
    if not shadow:
        return []
    return [Violation(
        "ft_nft_shadow",
        f"{case.algorithm} diverged from {shadow['against']} at node "
        f"{m['node']} for msg {m['msg_id']}: "
        f"{m['primary']['ports']} vs {m['shadow']['ports']}",
        m) for m in shadow["mismatches"]]


def oracle_interp_agreement(case, meta, result, topo, faults):
    """The two rule interpreters (compiled-table kernel, AST reference)
    must agree bit-for-bit: same decision digest, same decision count,
    same stats summary."""
    runs = result.get("interp")
    if not runs:
        return []
    baseline_label, baseline = next(iter(runs.items()))
    out = []
    for label, run in runs.items():
        if label == baseline_label:
            continue
        for key in ("digest", "decisions", "summary"):
            if run[key] != baseline[key]:
                out.append(Violation(
                    "interp_agreement",
                    f"{label} disagrees with {baseline_label} on {key}",
                    {"variant": label, "key": key,
                     "baseline": baseline[key], "got": run[key]}))
                break
    return out


#: name -> oracle; ``check_case`` runs the universal ones always and
#: the conditional ones when metadata or evidence asks for them
ORACLES = {
    "legal_path": oracle_legal_path,
    "minimality": oracle_minimality,
    "delivery": oracle_delivery,
    "liveness": oracle_liveness,
    "route_c_safe_nodes": oracle_route_c_safe_nodes,
    "ft_nft_shadow": oracle_ft_nft_shadow,
    "interp_agreement": oracle_interp_agreement,
}

_UNIVERSAL = ("legal_path", "minimality", "delivery", "liveness",
              "ft_nft_shadow", "interp_agreement")


def oracles_for(meta: AlgoMeta) -> list[str]:
    return list(_UNIVERSAL) + [o for o in meta.extra_oracles
                               if o not in _UNIVERSAL]


def check_case(case: ConformanceCase, result: dict) -> list[Violation]:
    """Judge one run's evidence against every applicable oracle."""
    meta = ALGORITHM_META[case.algorithm]
    topo = case.build_topology()
    faults = _fault_state(case, topo)
    violations: list[Violation] = []
    for name in oracles_for(meta):
        violations.extend(ORACLES[name](case, meta, result, topo, faults))
    return violations
