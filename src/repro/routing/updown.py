"""Up*/down* routing (Autonet-style): adaptive fault-tolerant routing
for arbitrary topologies.

The paper situates its router in the cluster-network world of Myrinet
and friends (Section 1); up*/down* is that world's workhorse for
irregular (including fault-damaged) topologies and makes a strong
baseline between the crippled spanning tree (tree links only) and the
topology-specific NAFTA/ROUTE_C:

* build a BFS order from a root: every link gets an "up" direction
  (toward the smaller (depth, id) key);
* a legal path is up* then down*: zero or more up hops followed by
  zero or more down hops — one-way phase change, keys strictly
  decreasing in the up phase and increasing in the down phase, so the
  channel dependency graph is acyclic with a single virtual channel;
* unlike tree routing, *every* healthy link is usable, and multiple
  up/down candidates give real adaptivity;
* faults: recompute the order over the healthy subgraph (diagnosis
  phase); any connected pair stays routable (up to the root's
  component), i.e. Condition 3 holds whenever the network is connected.

Purposiveness needs to know which hops still lead to the destination;
we precompute per-node reachability sets at (re)configuration time —
the centralized-recomputation cost that distinguishes this class of
algorithms from NAFTA's constant-memory wave propagation.
"""

from __future__ import annotations

from ..sim.flit import Header
from ..sim.topology import Topology
from .base import RouteDecision, RoutingAlgorithm

UP, DOWN = 0, 1


class UpDownRouting(RoutingAlgorithm):
    name = "updown"
    n_vcs = 1
    fault_tolerant = True

    def __init__(self, root: int = 0):
        self.root = root
        self.key: dict[int, tuple[int, int]] = {}
        self.down_reach: dict[int, frozenset] = {}
        self.updown_reach: dict[int, frozenset] = {}

    def check_topology(self, topology: Topology) -> None:
        pass  # any topology

    def reset(self, network) -> None:
        self.network = network
        self._reconfigure(network)

    def on_fault_update(self, network, nodes=None) -> None:
        self._reconfigure(network)

    # -- configuration: order + reachability -------------------------------

    def _reconfigure(self, network) -> None:
        topo = network.topology
        faults = network.known_faults
        root = self.root
        if not faults.node_ok(root):
            alive = [n for n in topo.nodes() if faults.node_ok(n)]
            if not alive:
                self.key = {}
                return
            root = alive[0]
        # BFS depths over the healthy subgraph
        from collections import deque
        depth = {root: 0}
        q = deque([root])
        while q:
            cur = q.popleft()
            for p in topo.ports(cur).values():
                nb = p.neighbor
                if nb not in depth and faults.link_ok(cur, nb):
                    depth[nb] = depth[cur] + 1
                    q.append(nb)
        self.key = {n: (d, n) for n, d in depth.items()}

        # down_reach[u]: nodes reachable from u via down* (keys ascend)
        order = sorted(self.key, key=self.key.get, reverse=True)
        down_reach: dict[int, set] = {}
        for u in order:  # descending key: down-neighbours done first
            reach = {u}
            for p in topo.ports(u).values():
                v = p.neighbor
                if v in self.key and faults.link_ok(u, v) \
                        and self.key[v] > self.key[u]:
                    reach |= down_reach[v]
            down_reach[u] = reach
        self.down_reach = {u: frozenset(r) for u, r in down_reach.items()}

        # updown_reach[u]: nodes reachable via up* then down*
        updown: dict[int, set] = {}
        for u in sorted(self.key, key=self.key.get):  # ascending key
            reach = set(down_reach[u])
            for p in topo.ports(u).values():
                v = p.neighbor
                if v in self.key and faults.link_ok(u, v) \
                        and self.key[v] < self.key[u]:
                    reach |= updown[v]
            updown[u] = reach
        self.updown_reach = {u: frozenset(r) for u, r in updown.items()}

    def accepts_node(self, node: int) -> bool:
        # the ordered component is closed under up*/down* reach: a node
        # climbs its BFS parents to the root, whose down* reach covers
        # every BFS child, so both endpoints in it is the whole test
        return node in self.key

    # -- the decision -------------------------------------------------------

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        node = router.node
        if node == header.dst:
            return RouteDecision.delivery()
        if node not in self.key or header.dst not in self.key:
            return RouteDecision.unroutable()
        phase = header.fields.get("ud_phase", UP)
        dst = header.dst
        my_key = self.key[node]
        candidates: list[tuple[int, str]] = []
        for pid, p in router.topology.ports(node).items():
            v = p.neighbor
            if v not in self.key or not router.port_alive(pid):
                continue
            goes_up = self.key[v] < my_key
            if goes_up:
                if phase == DOWN:
                    continue  # never up after down
                if dst in self.updown_reach[v]:
                    candidates.append((pid, "up"))
            else:
                if dst in self.down_reach[v]:
                    candidates.append((pid, "down"))
        if not candidates:
            return RouteDecision.unroutable()
        # adaptivity: prefer down moves (they commit less), then load
        ordered = sorted(
            candidates,
            key=lambda c: (c[1] == "up", router.output_load(c[0]), c[0]))
        header.fields["_ud_moves"] = {pid: kind for pid, kind in ordered}
        return RouteDecision(candidates=[(pid, 0) for pid, _ in ordered])

    def on_depart(self, router, header: Header, out_port: int,
                  out_vc: int) -> None:
        super().on_depart(router, header, out_port, out_vc)
        moves = header.fields.pop("_ud_moves", {})
        if moves.get(out_port) == "down":
            header.fields["ud_phase"] = DOWN

    def decision_steps_range(self) -> tuple[int, int]:
        return (1, 1)
