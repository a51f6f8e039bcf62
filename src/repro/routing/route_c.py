"""ROUTE_C: fault-tolerant routing on hypercubes ([ChW96] via this
paper; reconstruction documented in DESIGN.md Section 3).

Node-state machine (paper Figure 4 / Section 2.2): each node is
``safe``, ``ounsafe`` (ordinarily unsafe), ``sunsafe`` (strongly
unsafe), ``lfault`` (incident link fault) or ``faulty``.  A node with
two or more not-safe neighbours becomes unsafe — strongly so when two
or more of them are faulty or link-faulted.  States are exchanged
between neighbours and settle quickly because the update is monotone in
the state lattice (property-tested).  The network is "totally unsafe"
when no safe node remains, which requires more than n-1 node faults
(tested on small cubes).

Routing ([Kon90]-style two-phase + hops-so-far detours, 5 VCs total):

* VC0 — minimal two-phase: first correct dimensions 0 -> 1 (ascending
  coordinate), then dimensions 1 -> 0, adaptively within each phase;
  the phase order makes VC0's channel dependency graph acyclic.
* VC1..VC4 — detour classes: when every minimal link of the current
  phase is unusable, the message takes a non-minimal hop and moves to
  the next-higher VC class; minimal hops keep the class.  Classes only
  ever increase, so the full CDG stays acyclic; a message that would
  need a fifth detour is declared unroutable (with <= 3 faults this
  does not happen in practice — the paper's hypercube argument that
  every 2-hop pair has two alternative paths).

Unsafe-node avoidance: candidates through safe neighbours are preferred,
``ounsafe`` neighbours are used when no safe one exists, ``sunsafe``
only when the message is destined there.

Every decision costs two interpretation steps (``decide_dir`` then
``decide_vc``), the number the paper reports; the non-fault-tolerant
variant (:class:`StrippedRouteC`) skips the fault logic and needs one.
"""

from __future__ import annotations

from ..sim.flit import Header
from ..sim.topology import Hypercube, Topology
from .base import RouteDecision, RoutingAlgorithm, RoutingError

SAFE, OUNSAFE, SUNSAFE, LFAULT, FAULTY = (
    "safe", "ounsafe", "sunsafe", "lfault", "faulty")

#: order of the finite state lattice the paper mentions ("the way in
#: which error states are combined forms a partial order")
SEVERITY = {SAFE: 0, OUNSAFE: 1, SUNSAFE: 2, LFAULT: 3, FAULTY: 4}

N_DETOUR_CLASSES = 4  # VC1..VC4 (the paper's "four additional VCs")


class CubeStateMap:
    """Settled distributed safety state of all hypercube nodes."""

    def __init__(self, topology: Hypercube, faults):
        self.topology = topology
        self.faults = faults
        self.states: list[str] = [SAFE] * topology.n_nodes
        self.propagation_rounds = 0
        self.recompute()

    def state(self, node: int) -> str:
        return self.states[node]

    def recompute(self) -> None:
        topo = self.topology
        st = self.states
        for n in topo.nodes():
            if not self.faults.node_ok(n):
                st[n] = FAULTY
            elif any(not self.faults.link_ok(n, p.neighbor)
                     for p in topo.ports(n).values()
                     if self.faults.node_ok(p.neighbor)):
                st[n] = LFAULT
            else:
                st[n] = SAFE
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            for n in topo.nodes():
                if st[n] in (FAULTY, LFAULT):
                    continue
                n_unsafe = 0
                n_hard = 0
                for p in topo.ports(n).values():
                    nb_state = st[p.neighbor]
                    if not self.faults.link_ok(n, p.neighbor):
                        n_unsafe += 1
                        n_hard += 1
                        continue
                    if nb_state != SAFE:
                        n_unsafe += 1
                    if nb_state in (FAULTY, LFAULT):
                        n_hard += 1
                new = st[n]
                if n_hard >= 2:
                    new = SUNSAFE
                elif n_unsafe >= 2:
                    new = OUNSAFE if st[n] == SAFE else st[n]
                if SEVERITY[new] > SEVERITY[st[n]]:
                    st[n] = new
                    changed = True
            if rounds > topo.n_nodes + 2:  # pragma: no cover - safety net
                raise RuntimeError("state propagation failed to converge")
        self.propagation_rounds = rounds

    def totally_unsafe(self) -> bool:
        """No safe node remains (the easily detected global condition
        under which Condition 3 can no longer be guaranteed)."""
        return all(s != SAFE for s in self.states)

    def condition2_attainable(self, src: int, dst: int) -> bool:
        """The paper: ROUTE_C "has the interesting property that it is
        known for a node, whether condition 2 can be met or not."

        Our reconstruction of that knowledge: a minimal path exists
        whose intermediate nodes are all *safe* (endpoints may be
        unsafe).  When this predicate holds, ROUTE_C is guaranteed to
        deliver over a minimal path (tested); when it does not, minimal
        delivery may still happen but is not promised.
        """
        if self.states[src] == FAULTY or self.states[dst] == FAULTY:
            return False
        topo = self.topology
        memo: dict[int, bool] = {}

        def ok(u: int) -> bool:
            if u == dst:
                return True
            if u in memo:
                return memo[u]
            memo[u] = False  # cycle guard (minimal moves cannot cycle,
            #                  but keep the memo total)
            for dim in topo.differing_dimensions(u, dst):
                v = u ^ (1 << dim)
                if not self.faults.link_ok(u, v):
                    continue
                st = self.states[v]
                if v != dst and st != SAFE:
                    continue
                if st == FAULTY:
                    continue
                if ok(v):
                    memo[u] = True
                    return True
            return memo[u]

        return ok(src)


class RouteCRouting(RoutingAlgorithm):
    name = "route_c"
    n_vcs = 1 + N_DETOUR_CLASSES
    fault_tolerant = True

    def __init__(self):
        self.state_map: CubeStateMap | None = None

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Hypercube):
            raise RoutingError("ROUTE_C runs on hypercubes")

    def reset(self, network) -> None:
        self.state_map = CubeStateMap(network.topology,
                                      network.known_faults)

    def on_fault_update(self, network, nodes=None) -> None:
        assert self.state_map is not None
        self.state_map.recompute()

    def accepts_node(self, node: int) -> bool:
        assert self.state_map is not None
        return self.state_map.state(node) != FAULTY

    # -- helpers ---------------------------------------------------------

    def _usable(self, router, dim: int, header: Header) -> bool:
        """Link alive and the neighbour acceptable (set 1)."""
        sm = self.state_map
        assert sm is not None
        p = router.topology.port(router.node, dim)
        if p is None or not sm.faults.link_ok(router.node, p.neighbor):
            return False
        nb = p.neighbor
        if sm.state(nb) == FAULTY:
            return False
        if sm.state(nb) == SUNSAFE and nb != header.dst:
            return False
        return True

    def _phase_dims(self, router, header: Header) -> tuple[list[int], list[int]]:
        """(ascending-phase dims, descending-phase dims) still needed."""
        diff = router.node ^ header.dst
        up = []
        down = []
        for i in range(router.topology.dimension):
            if diff >> i & 1:
                if router.node >> i & 1:
                    down.append(i)   # 1 -> 0
                else:
                    up.append(i)     # 0 -> 1
        return up, down

    def _neighbor_pref(self, router, dim: int) -> int:
        """Safer neighbours first (set-1 preference), then load."""
        sm = self.state_map
        assert sm is not None
        nb = router.topology.port(router.node, dim).neighbor
        return SEVERITY[sm.state(nb)]

    # -- the decision ------------------------------------------------------------

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        steps = 2  # decide_dir + decide_vc, always (paper Section 5)
        if router.node == header.dst:
            return RouteDecision.delivery(steps=steps)
        sm = self.state_map
        assert sm is not None
        vc_class = int(header.fields.get("vc_class", 0))
        up, down = self._phase_dims(router, header)
        minimal = up if up else down

        # Never u-turn: immediately undoing a detour flip would create a
        # two-channel cycle within the detour class.
        usable_min = [d for d in minimal
                      if d != in_port and self._usable(router, d, header)]
        if usable_min:
            ordered = sorted(
                usable_min,
                key=lambda d: (self._neighbor_pref(router, d),
                               router.output_load(d), d))
            return RouteDecision(
                candidates=[(d, vc_class) for d in ordered], steps=steps)

        # Detour: flip a dimension outside the current phase's minimal
        # set, moving to the next hops-so-far class.  Dimensions of the
        # *other* phase still reduce the distance, so they are preferred
        # — this keeps Condition 2 (minimal-length delivery) whenever a
        # safe minimal path exists, merely paying a channel class.
        if vc_class >= N_DETOUR_CLASSES:
            return RouteDecision.unroutable(steps=steps)
        other_phase = down if up else []
        detour_dims = [d for d in range(router.topology.dimension)
                       if d not in minimal
                       and d != in_port
                       and self._usable(router, d, header)]
        if not detour_dims:
            return RouteDecision.unroutable(steps=steps)
        ordered = sorted(detour_dims,
                         key=lambda d: (d not in other_phase,
                                        self._neighbor_pref(router, d),
                                        router.output_load(d), d))
        header.fields["_detour_next"] = True
        return RouteDecision(candidates=[(d, vc_class + 1)
                                         for d in ordered], steps=steps)

    def on_depart(self, router, header: Header, out_port: int,
                  out_vc: int) -> None:
        super().on_depart(router, header, out_port, out_vc)
        if header.fields.pop("_detour_next", False):
            header.fields["vc_class"] = int(header.fields.get("vc_class", 0)) + 1
            # an out-of-phase hop still reduces the distance; only a
            # flip outside the remaining dimension set is a misroute
            diff = router.node ^ header.dst
            if not diff >> out_port & 1:
                header.mark_misrouted()

    def decision_steps_range(self) -> tuple[int, int]:
        return (2, 2)


class StrippedRouteC(RoutingAlgorithm):
    """The paper's non-fault-tolerant comparison point: "behave exactly
    like the original algorithm in a fault-free network" — two-phase
    fully adaptive minimal routing on VC0, no state machine, no detour
    channels, one interpretation step per decision."""

    name = "route_c_nft"
    n_vcs = 1
    fault_tolerant = False

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Hypercube):
            raise RoutingError("stripped ROUTE_C runs on hypercubes")

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        if router.node == header.dst:
            return RouteDecision.delivery()
        diff = router.node ^ header.dst
        up = []
        down = []
        for i in range(router.topology.dimension):
            if diff >> i & 1:
                if router.node >> i & 1:
                    down.append(i)
                else:
                    up.append(i)
        minimal = up if up else down
        ordered = sorted(minimal, key=lambda d: (router.output_load(d), d))
        return RouteDecision(candidates=[(d, 0) for d in ordered], steps=1)

    def decision_steps_range(self) -> tuple[int, int]:
        return (1, 1)
