"""Spanning-tree routing: the trivial fault-tolerant baseline.

Paper Section 2.1: "It is clear that there exists the following simple
routing algorithm which solves the problem: 1. Compute a spanning tree
for the network graph every time new faults occur.  2. Route messages
by only using edges of the tree.  However this algorithm uses only a
small fraction of the network links in most cases ... the shortest ways
(minimal paths) between two nodes are nearly never taken."

We reproduce it exactly so the benchmarks can show that gap: BFS tree
over the healthy subgraph, recomputed on every fault event; messages
climb toward the root until they reach the lowest common ancestor and
descend.  Up-then-down over a tree is deadlock-free with a single
virtual channel (up-channels point rootward — acyclic; down-channels
leafward — acyclic; a message never goes up after going down).
"""

from __future__ import annotations

from collections import deque

from ..sim.flit import Header
from ..sim.topology import Topology
from .base import RouteDecision, RoutingAlgorithm, RoutingError


class SpanningTreeRouting(RoutingAlgorithm):
    name = "spanning_tree"
    n_vcs = 1
    fault_tolerant = True
    # the tree is a pure function of the fault knowledge; re-routing a
    # blocked head can only change anything after a fault update
    adaptive = False

    def __init__(self, root: int = 0):
        self.root = root
        self.parent: list[int | None] = []
        self.depth: list[int] = []
        self.parent_port: list[int | None] = []

    def check_topology(self, topology: Topology) -> None:
        if topology.n_nodes < 1:  # pragma: no cover
            raise RoutingError("empty topology")

    def reset(self, network) -> None:
        self._rebuild(network)

    def on_fault_update(self, network, nodes=None) -> None:
        self._rebuild(network)

    def _rebuild(self, network) -> None:
        topo = network.topology
        faults = network.known_faults
        n = topo.n_nodes
        self.parent = [None] * n
        self.parent_port = [None] * n
        self.depth = [-1] * n
        root = self.root
        if not faults.node_ok(root):
            alive = [v for v in topo.nodes() if faults.node_ok(v)]
            if not alive:
                return
            root = alive[0]
        self.depth[root] = 0
        q = deque([root])
        while q:
            cur = q.popleft()
            for pid, port in topo.ports(cur).items():
                nb = port.neighbor
                if self.depth[nb] >= 0 or not faults.link_ok(cur, nb):
                    continue
                self.depth[nb] = self.depth[cur] + 1
                self.parent[nb] = cur
                self.parent_port[nb] = port.neighbor_port
                q.append(nb)

    def accepts_node(self, node: int) -> bool:
        return 0 <= node < len(self.depth) and self.depth[node] >= 0

    def _on_path_to_root(self, node: int, dst: int) -> bool:
        """Is node an ancestor of dst (i.e. should we descend)?"""
        cur: int | None = dst
        while cur is not None:
            if cur == node:
                return True
            cur = self.parent[cur]
        return False

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        node = router.node
        if node == header.dst:
            return RouteDecision.delivery()
        if self.depth[node] < 0 or self.depth[header.dst] < 0:
            return RouteDecision.unroutable()
        if self._on_path_to_root(node, header.dst):
            # descend: find the child on the path to dst
            cur = header.dst
            while self.parent[cur] != node:
                cur = self.parent[cur]  # type: ignore[assignment]
                if cur is None:  # pragma: no cover - guarded above
                    return RouteDecision.unroutable()
            for pid, port in router.topology.ports(node).items():
                if port.neighbor == cur:
                    return RouteDecision(candidates=[(pid, 0)])
            return RouteDecision.unroutable()  # pragma: no cover
        # climb toward the root
        port = self.parent_port[node]
        if port is None:
            return RouteDecision.unroutable()
        return RouteDecision(candidates=[(port, 0)])
