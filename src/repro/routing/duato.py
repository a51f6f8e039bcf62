"""Dynamic deadlock avoidance (Duato-style escape channels) — the
paper's Section 3 contrast case.

"Another group of deadlock avoidance concepts (e.g. [CyG94, PGF94]) can
be called dynamic because the state of the system is incorporated.  The
basis of this scheme is the existence of a static deadlock prevention
method.  Links can be used as long as there is space available in a
corresponding buffer ...  But this scheme is very vulnerable to faults.
For example the fault of one link can separate several node pairs in
the statically deadlock-free network which cannot be compensated by the
dynamic extensions.  Thus in this case already a single fault causes
reconfiguration of some network nodes."

Implementation: two virtual channels on a 2-D mesh.  VC1 is *fully
adaptive minimal* with no turn restriction; VC0 is the *escape*
network running deterministic XY.  A head may take any minimal VC1
output with buffer space, or fall onto its XY escape hop; once on the
escape network it stays there (the conservative variant of Duato's
protocol, which keeps the escape subnetwork self-contained and
draining).  Deadlock freedom follows from Duato's argument — note that
the adaptive channels *do* form dependency cycles, so this algorithm is
also the repository's living proof that CDG acyclicity is sufficient
but not necessary (see ``tests/analysis/test_duato.py``).

Fault behaviour is exactly the paper's: there is no fault handling at
all.  A message whose surviving paths all need a non-minimal detour —
most simply, an adjacent pair whose direct link died — is stuck: the
escape hop is gone and the adaptive network only offers minimal moves.
The benchmarks quantify how many pairs a single link fault severs,
versus zero for NAFTA.
"""

from __future__ import annotations

from ..sim.flit import Header
from ..sim.topology import EAST, NORTH, SOUTH, WEST, Mesh2D, Topology
from .base import RouteDecision, RoutingAlgorithm, RoutingError

ESCAPE_VC = 0
ADAPTIVE_VC = 1


class DuatoMeshRouting(RoutingAlgorithm):
    name = "duato"
    n_vcs = 2
    fault_tolerant = False   # the paper's point: dynamic schemes are not

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh2D):
            raise RoutingError("the Duato-style scheme runs on 2-D meshes")

    @staticmethod
    def _xy_port(topo: Mesh2D, node: int, dst: int) -> int | None:
        x, y = topo.coords(node)
        dx, dy = topo.coords(dst)
        if dx > x:
            return EAST
        if dx < x:
            return WEST
        if dy > y:
            return NORTH
        if dy < y:
            return SOUTH
        return None

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        topo: Mesh2D = router.topology
        if router.node == header.dst:
            return RouteDecision.delivery()
        escape_only = bool(header.fields.get("on_escape")) or \
            in_vc == ESCAPE_VC and in_port >= 0
        xy = self._xy_port(topo, router.node, header.dst)
        candidates: list[tuple[int, int]] = []
        if not escape_only:
            minimal = topo.minimal_ports(router.node, header.dst)
            alive_min = [p for p in minimal if router.port_alive(p)]
            candidates.extend(
                (p, ADAPTIVE_VC)
                for p in sorted(alive_min,
                                key=lambda p: (router.output_load(p), p)))
        if xy is not None and router.port_alive(xy):
            candidates.append((xy, ESCAPE_VC))
        if not candidates:
            # no alive minimal output and no escape hop: a single link
            # fault severed this pair — the paper's vulnerability
            return RouteDecision.unroutable()
        return RouteDecision(candidates=candidates)

    def on_depart(self, router, header: Header, out_port: int,
                  out_vc: int) -> None:
        super().on_depart(router, header, out_port, out_vc)
        if out_vc == ESCAPE_VC:
            header.fields["on_escape"] = True
