"""Channel-dependency-graph (CDG) deadlock analysis.

Dally/Seitz [DaS87], which the paper builds on: a wormhole routing
algorithm is deadlock-free iff the dependency graph over its virtual
channels is acyclic.  This module *extracts* that graph from a routing
algorithm by exploring its reachable routing relation:

* start from every injection state (source node, local port, initial
  header) for every destination;
* at each reachable state, the candidate set of ``route`` yields
  dependency edges from the channel the head currently holds to every
  channel it may request next, and successor states (with the header
  evolved through ``route``'s own mutations plus ``on_depart``);
* iterate to fixpoint over the finite state space
  (node x in-port x vc x destination x canonical header state).

Exploring only *reachable* states matters: a coarse all-states probe
manufactures dependencies no real message can exercise (e.g. a minimal
mesh message that arrived moving west but wants to go east) and reports
false cycles.

This turns the deadlock-freedom arguments in the routing module
docstrings into machine-checked facts (``tests/analysis`` and
``benchmarks/bench_deadlock.py``).

A channel is ``(node, out_port, vc)`` — the sending side of a virtual
channel.  Local injection channels have no incoming dependencies and
ejection channels no outgoing ones, so neither can lie on a cycle.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

from ..routing.base import RoutingAlgorithm
from ..sim.flit import Header
from ..sim.network import Network
from ..sim.router import LOCAL
from ..sim.topology import Topology

Channel = tuple[int, int, int]   # (node, out_port, vc)

#: header fields that never influence the candidate *set* and only
#: bloat the canonical state space (path_len influences only the
#: livelock cut-off, which fires long after any cycle would)
_IGNORED_FIELDS = {"path_len", "trace", "_wraps_next", "_detour_next"}

#: header-field value types a shallow copy may share: immutable scalars
_SCALARS = frozenset({int, bool, float, str, type(None)})


def _canon_fields(fields: dict) -> frozenset:
    return frozenset([(k, v) for k, v in fields.items()
                      if k not in _IGNORED_FIELDS
                      and not isinstance(v, (list, dict))])


def _copy_fields(fields: dict) -> dict:
    """A copy of header ``fields`` that no in-place mutation of either
    side reaches: a plain dict copy when every value is an immutable
    scalar, a deep copy otherwise (e.g. updown's move-map dict)."""
    for v in fields.values():
        if type(v) not in _SCALARS:
            return copy.deepcopy(fields)
    return dict(fields)


def find_cycle(succ: dict) -> list | None:
    """A closed path ``[c0, c1, ..., c0]`` in the graph whose successor
    sets are ``succ``, or None when it is acyclic.

    One iterative depth-first search taking roots and successors in
    ``succ``'s iteration order; with insertion-ordered successors it
    reports the same cycle as ``networkx.find_cycle`` on the equivalent
    ``DiGraph``."""
    done: set = set()
    for root in succ:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        stack = [iter(succ[root])]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    return path[path.index(nxt):] + [nxt]
                if nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(succ.get(nxt, ())))
                    break
            else:
                stack.pop()
                node = path.pop()
                on_path.remove(node)
                done.add(node)
    return None


@dataclass
class CdgResult:
    #: ``succ[c]`` is the successor set of channel ``c`` (a dict used as
    #: an insertion-ordered set): every channel a head holding ``c`` may
    #: request next.  Every channel some route uses is a key.
    succ: dict[Channel, dict[Channel, None]]
    cycle: list[Channel] | None = None
    states: int = 0

    @property
    def acyclic(self) -> bool:
        return self.cycle is None

    def edges(self) -> list[tuple[Channel, Channel]]:
        """Every dependency ``(held, requested)``."""
        return [(a, b) for a, out in self.succ.items() for b in out]

    def summary(self) -> dict:
        return {
            "channels": len(self.succ),
            "dependencies": sum(len(out) for out in self.succ.values()),
            "acyclic": self.acyclic,
            "reachable_states": self.states,
        }


def build_cdg(network: Network, max_states: int = 2_000_000) -> CdgResult:
    """Extract the reachable channel dependency graph."""
    algo = network.algorithm
    topo = network.topology
    succ: dict[Channel, dict[Channel, None]] = {}
    # per-node port maps, looked up once instead of per candidate
    node_ports = [topo.ports(n) for n in topo.nodes()]

    # state = (node, in_port, in_vc, dst, canonical header fields)
    seen: set[tuple] = set()
    queue: deque[tuple[int, int, int, int, dict]] = deque()

    for src in topo.nodes():
        if not network.faults.node_ok(src):
            continue
        for dst in topo.nodes():
            if dst == src or not network.faults.node_ok(dst):
                continue
            if not algo.accepts(src, dst):
                continue
            state = (src, LOCAL, 0, dst, {})
            key = (src, LOCAL, 0, dst, _canon_fields({}))
            if key not in seen:
                seen.add(key)
                queue.append(state)

    while queue:
        if len(seen) > max_states:
            raise RuntimeError(f"CDG state space exceeded {max_states}")
        node, in_port, in_vc, dst, fields = queue.popleft()
        if node == dst:
            continue
        router = network.routers[node]
        hdr = Header(msg_id=-1, src=-1, dst=dst, length=2, created=0,
                     fields=_copy_fields(fields))
        decision = algo.route(router, hdr, in_port, in_vc)
        if decision.deliver or decision.stuck:
            continue
        if in_port == LOCAL:
            holding = None
        else:
            p = router.ports[in_port]
            holding = (p.neighbor, p.neighbor_port, in_vc)
        for out_port, out_vc in decision.candidates:
            if out_port == LOCAL:
                continue
            p = node_ports[node].get(out_port)
            if p is None:
                continue
            out_ch = (node, out_port, out_vc)
            if out_ch not in succ:
                succ[out_ch] = {}
            if holding is not None:
                # the held channel was this state's own out_ch upstream
                succ[holding][out_ch] = None
            nhdr = Header(msg_id=-1, src=-1, dst=dst, length=2, created=0,
                          fields=_copy_fields(hdr.fields))
            algo.on_depart(router, nhdr, out_port, out_vc)
            nstate = (p.neighbor, p.neighbor_port, out_vc, dst, nhdr.fields)
            key = (p.neighbor, p.neighbor_port, out_vc, dst,
                   _canon_fields(nhdr.fields))
            if key not in seen:
                seen.add(key)
                queue.append(nstate)

    return CdgResult(succ=succ, cycle=find_cycle(succ), states=len(seen))


def check_deadlock_free(topology: Topology, algorithm: RoutingAlgorithm,
                        fault_schedule=None) -> CdgResult:
    """Convenience: build a network, apply static faults, extract CDG."""
    net = Network(topology, algorithm)
    if fault_schedule is not None:
        net.schedule_faults(fault_schedule)
    return build_cdg(net)
