"""Fault model: fail-stop links and nodes, injection schedules.

Paper Section 2.1 assumptions:

  i)  a link is either faulty-and-known or works; links are
      bidirectional and both directions fail together;
  ii) a node either works or fails, and adjacent nodes learn of it;
  iii) no messages are sent to disconnected or faulty destinations;
  iv) no message is affected during the diagnosis phase after a failure
      (the network quiesces until all concerned nodes updated their
      fault state);
  v)  multiple faults are allowed.

``FaultState`` is the ground truth the routers' distributed state
machines approximate.  ``FaultSchedule`` injects faults at given cycles;
the network honours assumption iv by running each routing algorithm's
state recomputation atomically at the fault instant (mode
``"quiesce"``), and offers a ``"harsh"`` mode that instead kills worms
caught on a dying link — the extension discussed in Section 2.1 for
direct networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .topology import Topology, link_key


@dataclass(frozen=True)
class FaultEvent:
    cycle: int
    kind: str            # "link" | "node"
    target: tuple[int, int] | int

    def __post_init__(self):
        if self.kind not in ("link", "node"):
            raise ValueError(f"unknown fault kind {self.kind!r}")


class FaultState:
    """Current set of dead links and nodes over a topology.

    States that pass one ``shared_labels`` dict share their component
    labellings: each distinct ``(dead_links, dead_nodes)`` is labelled
    once among them (the per-node diagnosis views mostly hold the same
    few fault sets)."""

    def __init__(self, topology: Topology,
                 shared_labels: dict | None = None):
        self.topology = topology
        self.dead_links: set[tuple[int, int]] = set()
        self.dead_nodes: set[int] = set()
        #: bumped on every mutation; consumers cache against it
        self.version = 0
        self._components: list[int] | None = None
        self._shared = shared_labels

    # -- mutation -----------------------------------------------------

    def _invalidate(self) -> None:
        self.version += 1
        self._components = None

    def fail_link(self, a: int, b: int) -> None:
        key = link_key(a, b)
        if key not in self.topology.links():
            raise ValueError(f"no link {key} in topology")
        self.dead_links.add(key)
        self._invalidate()

    def fail_node(self, node: int) -> None:
        if not 0 <= node < self.topology.n_nodes:
            raise ValueError(f"no node {node}")
        self.dead_nodes.add(node)
        self._invalidate()

    def repair_link(self, a: int, b: int) -> None:
        """Undo a link fault (what-if exploration and repair events)."""
        self.dead_links.discard(link_key(a, b))
        self._invalidate()

    def repair_node(self, node: int) -> None:
        self.dead_nodes.discard(node)
        self._invalidate()

    def apply(self, event: FaultEvent) -> None:
        if event.kind == "link":
            a, b = event.target  # type: ignore[misc]
            self.fail_link(a, b)
        else:
            self.fail_node(int(event.target))  # type: ignore[arg-type]

    # -- queries --------------------------------------------------------

    def link_ok(self, a: int, b: int) -> bool:
        """A link works iff itself and both endpoints work (a dead node
        takes its links down with it, assumption ii)."""
        if a in self.dead_nodes or b in self.dead_nodes:
            return False
        return link_key(a, b) not in self.dead_links

    def node_ok(self, node: int) -> bool:
        return node not in self.dead_nodes

    def port_ok(self, node: int, port_id: int) -> bool:
        p = self.topology.port(node, port_id)
        if p is None:
            return False
        return self.link_ok(node, p.neighbor)

    def alive_ports(self, node: int) -> list[int]:
        return [pid for pid in self.topology.ports(node)
                if self.port_ok(node, pid)]

    def n_faults(self) -> int:
        return len(self.dead_links) + len(self.dead_nodes)

    def connected(self, a: int, b: int) -> bool:
        """Is b reachable from a over healthy links/nodes?  Uses a
        component labelling cached until the fault set changes (faults
        are rare events; connectivity queries happen per message)."""
        if not (self.node_ok(a) and self.node_ok(b)):
            return False
        if a == b:
            return True
        comp = self._component_labels()
        return comp[a] == comp[b] and comp[a] >= 0

    def _component_labels(self) -> list[int]:
        """Per node, the label of its component over healthy links and
        nodes (-1 for a dead node).  Cached until the fault set changes
        and, between states that share labellings, one list object per
        distinct fault set."""
        if self._components is None:
            shared = self._shared
            if shared is None:
                self._components = self._label_components()
            else:
                key = self.snapshot()
                labels = shared.get(key)
                if labels is None:
                    labels = shared[key] = self._label_components()
                self._components = labels
        return self._components

    def _label_components(self) -> list[int]:
        n = self.topology.n_nodes
        labels = [-1] * n
        next_label = 0
        for start in range(n):
            if labels[start] >= 0 or not self.node_ok(start):
                continue
            labels[start] = next_label
            stack = [start]
            while stack:
                cur = stack.pop()
                for p in self.topology.ports(cur).values():
                    nb = p.neighbor
                    if labels[nb] < 0 and self.link_ok(cur, nb):
                        labels[nb] = next_label
                        stack.append(nb)
            next_label += 1
        return labels

    def snapshot(self) -> tuple[frozenset, frozenset]:
        return frozenset(self.dead_links), frozenset(self.dead_nodes)


@dataclass
class FaultSchedule:
    """Time-ordered fault injections for a simulation run.

    ``due`` is answered from a cycle-keyed index built once and rebuilt
    lazily whenever ``events`` grew — the simulator asks it every cycle
    of every run, and the old full-list scan showed up in profiles of
    long chaos campaigns.
    """

    events: list[FaultEvent] = field(default_factory=list)
    _by_cycle: dict[int, list[FaultEvent]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _n_indexed: int = field(default=0, init=False, repr=False, compare=False)

    def add_link_fault(self, cycle: int, a: int, b: int) -> "FaultSchedule":
        self.events.append(FaultEvent(cycle, "link", link_key(a, b)))
        return self

    def add_node_fault(self, cycle: int, node: int) -> "FaultSchedule":
        self.events.append(FaultEvent(cycle, "node", node))
        return self

    def due(self, cycle: int) -> list[FaultEvent]:
        if self._n_indexed != len(self.events):
            index: dict[int, list[FaultEvent]] = {}
            for e in self.events:
                index.setdefault(e.cycle, []).append(e)
            self._by_cycle = index
            self._n_indexed = len(self.events)
        return self._by_cycle.get(cycle, [])

    def last_cycle(self) -> int:
        return max((e.cycle for e in self.events), default=-1)

    def validate(self, topology: Topology) -> None:
        """Fail fast at setup time if any event targets a link or node
        the topology does not have (instead of mid-run at the fault
        instant, deep inside a simulation)."""
        links = topology.links()
        for e in self.events:
            if e.cycle < 0:
                raise ValueError(f"fault event at negative cycle {e.cycle}")
            if e.kind == "link":
                a, b = e.target  # type: ignore[misc]
                if link_key(a, b) not in links:
                    raise ValueError(
                        f"fault schedule targets link {link_key(a, b)} "
                        f"which is not in the topology")
            else:
                node = int(e.target)  # type: ignore[arg-type]
                if not 0 <= node < topology.n_nodes:
                    raise ValueError(
                        f"fault schedule targets node {node} but the "
                        f"topology has nodes 0..{topology.n_nodes - 1}")

    @classmethod
    def static(cls, links=(), nodes=()) -> "FaultSchedule":
        """All faults present from cycle 0 (the common evaluation setup
        in the fault-tolerant routing literature)."""
        s = cls()
        for a, b in links:
            s.add_link_fault(0, a, b)
        for n in nodes:
            s.add_node_fault(0, n)
        return s


def random_link_faults(topology: Topology, n: int, rng,
                       keep_connected: bool = True,
                       max_tries: int = 2000) -> list[tuple[int, int]]:
    """Draw n distinct random link faults, optionally preserving global
    connectivity of the healthy subnetwork (so Condition 3 remains
    satisfiable and experiments measure routing, not partitions)."""
    links = sorted(topology.links())
    chosen: list[tuple[int, int]] = []
    state = FaultState(topology)
    tries = 0
    while len(chosen) < n:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(f"could not place {n} faults while keeping "
                               f"the network connected")
        idx = int(rng.integers(0, len(links)))
        link = links[idx]
        if link in state.dead_links:
            continue
        state.fail_link(*link)
        if keep_connected and not _all_connected(state):
            state.repair_link(*link)
            continue
        chosen.append(link)
    return chosen


def random_node_faults(topology: Topology, n: int, rng,
                       keep_connected: bool = True,
                       max_tries: int = 2000) -> list[int]:
    """Draw n distinct random node faults; with ``keep_connected`` the
    *surviving* nodes stay mutually reachable (the standard setup for
    node-fault experiments — partitions measure topology, not
    routing)."""
    chosen: list[int] = []
    state = FaultState(topology)
    tries = 0
    while len(chosen) < n:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(f"could not place {n} node faults while "
                               f"keeping the survivors connected")
        node = int(rng.integers(0, topology.n_nodes))
        if node in state.dead_nodes:
            continue
        state.fail_node(node)
        if keep_connected and not _all_connected(state):
            state.repair_node(node)
            continue
        chosen.append(node)
    return chosen


def _all_connected(state: FaultState) -> bool:
    topo = state.topology
    alive = [n for n in topo.nodes() if state.node_ok(n)]
    if not alive:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        cur = stack.pop()
        for p in topo.ports(cur).values():
            nb = p.neighbor
            if nb not in seen and state.link_ok(cur, nb):
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(alive)
