"""Oblivious dimension-order routing: XY on 2-D meshes, e-cube on
hypercubes.

These are the classic deadlock-free, non-fault-tolerant baselines the
paper contrasts against ("switches using only oblivious routing
schemes", Section 1): the whole path is fixed by source and
destination, one virtual channel suffices on the mesh/hypercube, and a
routing decision is a single interpretation step.
"""

from __future__ import annotations

from ..sim.flit import Header
from ..sim.topology import (EAST, NORTH, SOUTH, WEST, Hypercube, Mesh2D,
                            Topology)
from .base import RouteDecision, RoutingAlgorithm, RoutingError


class XYRouting(RoutingAlgorithm):
    """Deterministic XY: correct x first, then y, on a 2-D mesh."""

    name = "xy"
    n_vcs = 1
    fault_tolerant = False
    adaptive = False

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh2D):
            raise RoutingError("XY routing runs on 2-D meshes")

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        topo: Mesh2D = router.topology
        x, y = topo.coords(router.node)
        dx, dy = topo.coords(header.dst)
        if (x, y) == (dx, dy):
            return RouteDecision.delivery()
        if dx > x:
            port = EAST
        elif dx < x:
            port = WEST
        elif dy > y:
            port = NORTH
        else:
            port = SOUTH
        return RouteDecision(candidates=[(port, 0)])


class ECubeRouting(RoutingAlgorithm):
    """Hypercube e-cube: correct the lowest differing dimension first.
    Deadlock-free with one virtual channel (dimension order gives an
    acyclic channel dependency graph)."""

    name = "ecube"
    n_vcs = 1
    fault_tolerant = False
    adaptive = False

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Hypercube):
            raise RoutingError("e-cube routing runs on hypercubes")

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        diff = router.node ^ header.dst
        if diff == 0:
            return RouteDecision.delivery()
        dim = (diff & -diff).bit_length() - 1  # lowest set bit
        return RouteDecision(candidates=[(dim, 0)])
