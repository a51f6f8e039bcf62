"""NAFTA: fault-tolerant adaptive routing on 2-D meshes.

Reconstruction of NAFTA [CuA95] from this paper's description (see
DESIGN.md Section 3): NARA's two turn-model virtual networks plus a
wave-propagated fault-knowledge layer (:mod:`.mesh_state`):

* fault regions are completed to rectangles; deactivated healthy nodes
  are excluded from routing (the paper's Condition-3 concession);
* a message blocked on its minimal paths detours non-minimally *within
  its virtual network* — the turn model is deadlock-free for
  non-minimal routing too, so no extra virtual channels are needed
  (NAFTA keeps NARA's two);
* the terminal run of the turn model (north in VC0, south in VC1) is
  entered only when the node's clear-run counter proves the column is
  usable all the way to the destination row, after which the message is
  committed to that direction;
* misrouted messages are marked in the header and carry a path-length
  counter, the livelock guard of the paper's Section 3; when the
  counter overflows (or no legal output exists) the message is declared
  unroutable and counted — these are exactly the "awkward fault
  situations" where NAFTA's constant-memory approximation violates
  Condition 3.

Interpretation steps (paper Section 5: NAFTA needs 1 in the fault-free
case and up to 3 in the worst case): 1 when no fault knowledge is
consulted, 2 when fault states restrict the minimal set, 3 when the
exception path (detour search / terminal-run checks) runs.
"""

from __future__ import annotations

from dataclasses import replace

from ..sim.flit import Header
from ..sim.topology import EAST, NORTH, SOUTH, WEST, Mesh2D, Topology
from .base import (REFRESH_RESORT, REFRESH_STATIC, NativeContract,
                   RouteDecision, RoutingAlgorithm, RoutingError)
from .mesh_state import MeshFaultMap
from .nara import VN_FREE, VN_TERMINAL

OPPOSITE = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}

#: pseudo in_port meaning "no u-turn restriction applies" (used right
#: after a virtual-network switch, where the arrival channel belongs to
#: the other network's class)
LOCAL_NONE = -99

#: the native contract both NAFTAs (this one and the rule program
#: ``nafta_rules``) share: route() reads and writes the four header
#: fields, never in_vc; on_depart is the base path-length bump plus the
#: terminal commitment.  dst is read through geometry signs (minimal
#: ports, vn, detour rank) and, in the destination column, the hop
#: count of the terminal-run check; blocked destinations are the
#: exception.  Fault-free, route() reduces to NARA (minimal set +
#: terminal run, u-turn filter never binds, clear runs span whole
#: columns), so the decision depends only on (sign dx, sign dy, vn,
#: term): the clean table applies
NAFTA_CONTRACT = NativeContract(
    fields=("vn", "term", "sdir", "misrouted"),
    term_rule=("term", "vn", VN_TERMINAL),
    key_uses_vc=False, relative_dst=True, clean_table=True)


class NaftaRouting(RoutingAlgorithm):
    name = "nafta"
    n_vcs = 2
    fault_tolerant = True
    def __init__(self, livelock_factor: int = 4):
        self.livelock_factor = livelock_factor
        self.fault_map: MeshFaultMap | None = None

    # -- lifecycle ----------------------------------------------------

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh2D):
            raise RoutingError("NAFTA runs on 2-D meshes")

    def reset(self, network) -> None:
        # distributed knowledge builds on the *known* fault set (which
        # lags ground truth when a detection delay is configured)
        self.fault_map = MeshFaultMap(network.topology,
                                      network.known_faults)

    def on_fault_update(self, network, nodes=None) -> None:
        assert self.fault_map is not None
        self.fault_map.recompute()

    def native_contract(self, topology) -> NativeContract:
        # reads only the known faults (fault_map), and branches on the
        # livelock-overflow flag
        return replace(NAFTA_CONTRACT, reads_links=False,
                       livelock_limit=self._livelock_limit(topology),
                       irregular_dsts=self._blocked_dsts)

    def _blocked_dsts(self):
        assert self.fault_map is not None
        return self.fault_map.blocked_nodes()

    def accepts_node(self, node: int) -> bool:
        assert self.fault_map is not None
        return not self.fault_map.blocked(node)

    # -- helpers --------------------------------------------------------

    def _livelock_limit(self, topo: Mesh2D) -> int:
        return self.livelock_factor * (topo.width + topo.height) + 16

    def _assign_vn(self, router, header: Header) -> int:
        topo: Mesh2D = router.topology
        fmap = self.fault_map
        assert fmap is not None
        x, y = topo.coords(router.node)
        dx, dy = topo.coords(header.dst)
        if dy > y:
            return 1
        if dy < y:
            return 0
        # Row message: NARA's rule (VC0) when the network is healthy —
        # keeping NAFTA's fault-free behaviour identical to NARA, the
        # paper's definition of the nft variant.  With faults present,
        # pick the network whose detour side looks more open at the
        # source (local constant knowledge only).
        if fmap.faults.n_faults() == 0:
            return 0
        if fmap.clear_run(router.node, NORTH) > fmap.clear_run(router.node,
                                                               SOUTH):
            return 1
        return 0

    def _usable(self, node: int, port: int) -> bool:
        assert self.fault_map is not None
        return self.fault_map.usable_link(node, port)

    # -- the decision -----------------------------------------------------------

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        if router.node == header.dst:
            return RouteDecision(deliver=True, steps=1,
                                 refresh_hint=REFRESH_STATIC)
        topo: Mesh2D = router.topology
        fmap = self.fault_map
        assert fmap is not None

        if header.path_len > self._livelock_limit(topo):
            return RouteDecision.unroutable(steps=3)
        if fmap.blocked(header.dst):
            # destination was deactivated by a later fault
            return RouteDecision.unroutable(steps=2)

        vn = header.fields.get("vn")
        if vn is None:
            vn = self._assign_vn(router, header)
            header.fields["vn"] = vn
        free = VN_FREE[vn]
        term = VN_TERMINAL[vn]

        x, y = topo.coords(router.node)
        dx, dy = topo.coords(header.dst)

        # Committed terminal run: the turn model forbids leaving it.
        if header.fields.get("term"):
            if self._usable(router.node, term):
                return RouteDecision(candidates=[(term, vn)], steps=1,
                                     refresh_hint=REFRESH_STATIC)
            return RouteDecision.unroutable(steps=3)

        fault_free = fmap.faults.n_faults() == 0
        minimal = topo.minimal_ports(router.node, header.dst)
        # Never u-turn, not even minimally: after a detour the minimal
        # set may point straight back out the arrival port, and a
        # 180-degree turn is outside the turn model (it creates
        # two-channel cycles).
        candidates = [(p, vn) for p in minimal
                      if p in free and p != in_port
                      and self._usable(router.node, p)]
        steps = 1 if fault_free else 2

        # Terminal-direction minimal move (destination lies in the
        # terminal direction): allowed only from the destination column
        # with a proven clear run.
        if term in minimal and x == dx and term != in_port:
            hops = abs(dy - y)
            if fmap.run_reaches(router.node, term, hops):
                candidates.append((term, vn))
                if not fault_free:
                    steps = max(steps, 2)

        if candidates:
            restricted = len(candidates) < len(minimal)
            if restricted and not fault_free:
                steps = 3 if term in minimal else 2
            # the set is fixed by geometry + epoch-static fault knowledge
            # while the head waits; only the load ordering is dynamic
            return RouteDecision(
                candidates=self._order(candidates, router), steps=steps,
                refresh_hint=REFRESH_RESORT)

        # Exception path: no minimal output — detour within the free
        # move set (turn-model non-minimal routing, deadlock-free).
        header.mark_misrouted()
        detour = self._detour_candidates(router, header, vn, free, term,
                                         in_port)
        if detour:
            # statically ranked (sticky sdir is its own first entry, so
            # re-running reproduces the identical list)
            return RouteDecision(candidates=detour, steps=3,
                                 refresh_hint=REFRESH_STATIC)

        # Last escape: a south-last (VC1) message with no legal move
        # switches to the north-last network (VC0) once and for all.
        # The switch is one-way, so the cross edges VC1 -> VC0 cannot
        # close a cycle in the channel dependency graph (verified by
        # the CDG tests in tests/analysis).  VC0 messages in the same
        # situation are declared unroutable — the constant-knowledge
        # concession of Condition 3.
        if vn == 1:
            header.fields["vn"] = 0
            header.fields.pop("sdir", None)
            free0 = VN_FREE[0]
            term0 = VN_TERMINAL[0]
            switched = [(p, 0) for p in topo.minimal_ports(router.node,
                                                           header.dst)
                        if p in free0 and self._usable(router.node, p)]
            if term0 in topo.minimal_ports(router.node, header.dst) \
                    and x == dx \
                    and fmap.run_reaches(router.node, term0, abs(dy - y)):
                switched.append((term0, 0))
            if not switched:
                # after a network switch the arrival port belongs to the
                # old network's channel class, so a reversal is safe
                switched = self._detour_candidates(router, header, 0,
                                                   free0, term0,
                                                   in_port=LOCAL_NONE)
            if switched:
                return RouteDecision(
                    candidates=self._order(switched, router), steps=3)
        return RouteDecision.unroutable(steps=3)

    def _detour_candidates(self, router, header: Header, vn: int,
                           free: tuple[int, ...], term: int,
                           in_port: int) -> list[tuple[int, int]]:
        """Non-minimal moves, best first.  Never u-turn; keep a sticky
        search direction so block perimeters are followed instead of
        ping-ponged."""
        topo: Mesh2D = router.topology
        fmap = self.fault_map
        assert fmap is not None
        x, y = topo.coords(router.node)
        dx, dy = topo.coords(header.dst)
        minimal = set(topo.minimal_ports(router.node, header.dst))
        usable = [p for p in free if self._usable(router.node, p)]
        # Never u-turn (a 180-degree turn is outside the turn model's
        # proof and immediately creates two-cycle deadlocks): exclude
        # the port the head arrived through, even as a last resort.
        if in_port in usable:
            usable.remove(in_port)
        if not usable:
            return []

        # Sticky search direction: once a detour picks a direction,
        # keep following it along the block perimeter instead of
        # oscillating between two neighbours.
        sdir = header.fields.get("sdir")
        if sdir not in usable:
            sdir = None

        blocked_axis_x = bool(minimal & {EAST, WEST})
        blocked_axis_y = bool(minimal & {NORTH, SOUTH})

        def rank(port: int) -> tuple:
            # Perpendicular escape first: if eastward progress is what
            # is blocked, going around the block means leaving the row.
            perpendicular = ((port in (NORTH, SOUTH) and blocked_axis_x
                              and not blocked_axis_y)
                             or (port in (EAST, WEST) and blocked_axis_y
                                 and not blocked_axis_x))
            toward_dst = ((port == EAST and dx > x) or (port == WEST and dx < x)
                          or (port == NORTH and dy > y)
                          or (port == SOUTH and dy < y))
            return (
                0 if port == sdir else 1,
                0 if perpendicular else 1,
                0 if toward_dst else 1,
                -fmap.clear_run(router.node, port),
                port,
            )

        ordered = sorted(usable, key=rank)
        header.fields["sdir"] = ordered[0]
        return [(p, vn) for p in ordered]

    @staticmethod
    def _order(candidates, router):
        return sorted(candidates,
                      key=lambda pv: (router.output_load(pv[0]), pv[0]))

    # -- header bookkeeping --------------------------------------------------------

    def on_depart(self, router, header: Header, out_port: int,
                  out_vc: int) -> None:
        super().on_depart(router, header, out_port, out_vc)
        vn = header.fields.get("vn")
        if vn is not None and out_port == VN_TERMINAL[vn]:
            header.fields["term"] = True

    def decision_steps_range(self) -> tuple[int, int]:
        return (1, 3)
