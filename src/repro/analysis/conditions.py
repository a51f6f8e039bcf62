"""Checkers for the paper's Conditions 1-3 on fault-tolerant routing
algorithms (Section 2.1).

Condition 1: if all links of all minimal paths between source and
destination are unbroken, every such path can be selected dependent on
load — the definition of fully adaptive minimal routing.

Condition 2: if at least one minimal path survives, the algorithm uses
a minimal path (not necessarily choosing among all of them).

Condition 3: if any path exists (possibly non-minimal), the message is
still routed.

The checkers quantify the degree to which an algorithm meets each
condition — the paper stresses that most practical algorithms trade
Condition 3 away for constant memory, which is exactly what the NAFTA
benchmarks show.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import networkx as nx

from ..sim.faults import FaultSchedule, FaultState
from ..sim.flit import Header
from ..sim.network import Network
from ..sim.router import LOCAL
from ..sim.topology import Topology
from .reachability import healthy_graph


# ---------------------------------------------------------------------------
# Condition 1: full minimal adaptivity (fault-free)
# ---------------------------------------------------------------------------

@dataclass
class Condition1Result:
    pairs_checked: int
    pairs_fully_adaptive: int
    missing: list[tuple[int, int, int]]  # (src, dst, node) where a
    #                                      minimal direction was not offered

    @property
    def satisfied(self) -> bool:
        return self.pairs_checked == self.pairs_fully_adaptive


def _minimal_ports(topology: Topology, node: int, dst: int) -> list[int]:
    if hasattr(topology, "minimal_ports"):
        return topology.minimal_ports(node, dst)  # type: ignore[attr-defined]
    if hasattr(topology, "differing_dimensions"):
        return topology.differing_dimensions(node, dst)  # type: ignore[attr-defined]
    raise TypeError(f"no minimal-port helper for {type(topology).__name__}")


def check_condition1(network: Network,
                     pairs: list[tuple[int, int]]) -> Condition1Result:
    """Walk every minimal-path prefix; at each reachable node the
    candidate set must cover every minimal direction."""
    algo = network.algorithm
    topo = network.topology
    ok_pairs = 0
    missing: list[tuple[int, int, int]] = []
    for src, dst in pairs:
        good = True
        seen: set[tuple[int, frozenset]] = set()
        hdr0 = Header(msg_id=-2, src=src, dst=dst, length=2, created=0)
        stack = [(src, LOCAL, 0, hdr0)]
        while stack:
            node, in_port, in_vc, hdr = stack.pop()
            if node == dst:
                continue
            key = (node, frozenset(
                (k, v) for k, v in hdr.fields.items()
                if not isinstance(v, (list, dict))))
            if key in seen:
                continue
            seen.add(key)
            decision = algo.route(network.routers[node], hdr, in_port, in_vc)
            minimal = set(_minimal_ports(topo, node, dst))
            offered = {p for p, _ in decision.candidates}
            if not minimal <= offered:
                good = False
                missing.append((src, dst, node))
                continue
            for port, vc in decision.candidates:
                if port not in minimal:
                    continue
                p = topo.port(node, port)
                if p is None:
                    continue
                nhdr = Header(msg_id=-2, src=src, dst=dst, length=2,
                              created=0, fields=copy.deepcopy(hdr.fields))
                algo.on_depart(network.routers[node], nhdr, port, vc)
                stack.append((p.neighbor, p.neighbor_port, vc, nhdr))
        if good:
            ok_pairs += 1
    return Condition1Result(len(pairs), ok_pairs, missing)


# ---------------------------------------------------------------------------
# Conditions 2 and 3: simulation-based checks under faults
# ---------------------------------------------------------------------------

@dataclass
class ConditionPairStats:
    pairs: int = 0
    delivered: int = 0
    minimal: int = 0            # delivered over a minimal path
    refused: int = 0            # rejected at the source (accepts())
    stuck: int = 0              # declared unroutable in flight

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.pairs if self.pairs else 1.0

    @property
    def minimal_rate(self) -> float:
        return self.minimal / self.pairs if self.pairs else 1.0


def _minimal_path_survives(topology: Topology, faults: FaultState,
                           src: int, dst: int) -> bool:
    g = healthy_graph(topology, faults)
    if src not in g or dst not in g or not nx.has_path(g, src, dst):
        return False
    return nx.shortest_path_length(g, src, dst) == topology.distance(src, dst)


def check_conditions_2_3(topology: Topology,
                         algorithm_factory,
                         fault_schedule: FaultSchedule,
                         pairs: list[tuple[int, int]],
                         message_length: int = 3,
                         max_cycles: int = 50_000) -> dict:
    """Per connected pair: was the message delivered (Condition 3) and,
    when a minimal path survives, was a minimal route used
    (Condition 2)?  Each pair runs in a fresh quiet network so blocking
    effects of other traffic do not pollute the check."""
    cond2 = ConditionPairStats()
    cond3 = ConditionPairStats()
    for src, dst in pairs:
        net = Network(topology, algorithm_factory())
        net.schedule_faults(fault_schedule)
        if not net.faults.connected(src, dst):
            continue  # conditions only speak about connected pairs
        minimal_alive = _minimal_path_survives(topology, net.faults, src, dst)
        # every connected pair counts for Condition 3; pairs with a
        # surviving minimal path additionally count for Condition 2
        cond3.pairs += 1
        if minimal_alive:
            cond2.pairs += 1
        msg = net.offer(src, dst, message_length)
        if msg is None:
            cond3.refused += 1
            if minimal_alive:
                cond2.refused += 1
            continue
        net.run_until_drained(max_cycles)
        if msg.delivered is not None:
            cond3.delivered += 1
            is_minimal = msg.hops == topology.distance(src, dst) + 1
            if minimal_alive:
                cond2.delivered += 1
                if is_minimal:
                    cond2.minimal += 1
            if is_minimal:
                cond3.minimal += 1
        else:
            cond3.stuck += 1
            if minimal_alive:
                cond2.stuck += 1
    return {"condition2": cond2, "condition3": cond3}
