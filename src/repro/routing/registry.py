"""Registry of routing algorithms by name (used by the experiment
harness and the examples), plus per-algorithm conformance metadata
consumed by :mod:`repro.conformance`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .base import RoutingAlgorithm
from .dimension_order import ECubeRouting, TorusDatelineXY, XYRouting
from .duato import DuatoMeshRouting
from .karyn import KAryNCubeDOR
from .nafta import NaftaRouting
from .nara import NaraRouting
from .planar_adaptive import PlanarAdaptiveRouting
from .route_c import RouteCRouting, StrippedRouteC
from .rule_driven import RuleDrivenNafta, RuleDrivenRouteC
from .spanning_tree import SpanningTreeRouting
from .updown import UpDownRouting

ALGORITHMS: dict[str, Callable[[], RoutingAlgorithm]] = {
    "xy": XYRouting,
    "ecube": ECubeRouting,
    "torus_xy": TorusDatelineXY,
    "duato": DuatoMeshRouting,
    "karyn_dor": KAryNCubeDOR,
    "nara": NaraRouting,
    "nafta": NaftaRouting,
    "route_c": RouteCRouting,
    "route_c_nft": StrippedRouteC,
    "spanning_tree": SpanningTreeRouting,
    "updown": UpDownRouting,
    "par": PlanarAdaptiveRouting,
    "nafta_rules": RuleDrivenNafta,
    "route_c_rules": RuleDrivenRouteC,
}


def make_algorithm(name: str, *, topology=None, **kwargs) -> RoutingAlgorithm:
    """Instantiate a registered algorithm.

    Extra keyword arguments are forwarded to the factory — used by the
    conformance harness to select interpreter variants on the
    rule-driven algorithms (``engine_mode=``).

    A ``"<name>+frr"`` spelling wraps the named algorithm in
    :class:`~repro.routing.backup.FastReroute` (precompiled backup
    next-hop tables, activated per link on local fault confirmation);
    it needs ``topology=`` because the backup tables are compiled
    against a concrete network.  The simulator reaches the same wrapper
    through ``SimConfig(backup_routes=True)``, which handles topology
    plumbing itself.
    """
    if name.endswith("+frr"):
        if topology is None:
            raise ValueError(
                f"{name!r} needs topology= (backup tables are compiled "
                f"per topology); or use SimConfig(backup_routes=True)")
        from .backup import FastReroute
        inner = make_algorithm(name[: -len("+frr")], **kwargs)
        return FastReroute(inner, topology)
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown routing algorithm {name!r}; choose from "
                         f"{sorted(ALGORITHMS)}") from None
    return factory(**kwargs)


@dataclass(frozen=True)
class AlgoMeta:
    """What the conformance harness may assume about an algorithm.

    The flags describe *documented* behaviour, not aspirations: an
    oracle only reports a violation when a run contradicts this record,
    so a concession here (``may_stick_under_faults``) weakens fuzzing
    for that algorithm and needs a reason in the comment beside it.
    """

    #: topology kinds (keys of ``sim.topology._TOPOLOGY_KINDS``) the
    #: generator may pair with this algorithm
    topologies: tuple[str, ...]
    #: fault-free delivered paths are shortest paths (hops == distance)
    minimal_fault_free: bool = False
    #: registry name of the non-fault-tolerant algorithm whose decisions
    #: this one must match in fault-free networks (shadow differential)
    nft_equivalent: str | None = None
    #: fault budget the generator may inject (0 = fault-free cases only)
    max_link_faults: int = 0
    max_node_faults: int = 0
    #: under faults the algorithm may refuse src/dst pairs at injection
    #: (``accepts`` returns False; counted unroutable, not a violation)
    may_refuse_under_faults: bool = False
    #: under faults in-flight worms may be declared stuck and dropped
    #: (dead-lettered without retries; not a delivery violation)
    may_stick_under_faults: bool = False
    #: accepts an ``engine_mode`` kwarg — eligible for the
    #: cross-interpreter agreement oracle
    rule_driven: bool = False
    #: additional oracle names beyond the universal set
    extra_oracles: tuple[str, ...] = field(default=())


ALGORITHM_META: dict[str, AlgoMeta] = {
    "xy": AlgoMeta(topologies=("mesh2d",), minimal_fault_free=True),
    "ecube": AlgoMeta(topologies=("hypercube",), minimal_fault_free=True),
    "torus_xy": AlgoMeta(topologies=("torus2d",), minimal_fault_free=True),
    "duato": AlgoMeta(topologies=("mesh2d",), minimal_fault_free=True),
    "karyn_dor": AlgoMeta(topologies=("karyncube",), minimal_fault_free=True),
    "nara": AlgoMeta(topologies=("mesh2d",), minimal_fault_free=True),
    # NAFTA completes fault regions to convex rings: nodes *inside* a
    # completed ring are refused at injection, and worms already in
    # flight when a fault lands may take the Condition-3 concession and
    # stick (the retry layer, not the router, restores delivery)
    "nafta": AlgoMeta(topologies=("mesh2d",), minimal_fault_free=True,
                      nft_equivalent="nara",
                      max_link_faults=2, max_node_faults=1,
                      may_refuse_under_faults=True,
                      may_stick_under_faults=True),
    # ROUTE_C guarantees delivery only while every node stays safe or
    # ordinary-unsafe; the generator keeps faults below the dimension
    # but a worm caught mid-flight by a fault wave can still exhaust
    # its detour classes
    "route_c": AlgoMeta(topologies=("hypercube",),
                        minimal_fault_free=True,
                        nft_equivalent="route_c_nft",
                        max_link_faults=1, max_node_faults=2,
                        may_refuse_under_faults=True,
                        may_stick_under_faults=True,
                        extra_oracles=("route_c_safe_nodes",)),
    "route_c_nft": AlgoMeta(topologies=("hypercube",),
                            minimal_fault_free=True),
    "spanning_tree": AlgoMeta(topologies=("mesh2d", "hypercube"),
                              max_link_faults=2, max_node_faults=1,
                              may_refuse_under_faults=True),
    "updown": AlgoMeta(topologies=("mesh2d", "hypercube"),
                       max_link_faults=2, max_node_faults=1,
                       may_refuse_under_faults=True),
    # planar-adaptive misroutes around fault rings; worms boxed in by a
    # fault wave mid-flight may stick
    "par": AlgoMeta(topologies=("mesh2d",),
                    minimal_fault_free=True,
                    max_link_faults=1, max_node_faults=1,
                    may_refuse_under_faults=True,
                    may_stick_under_faults=True),
    # rule-driven variants interpret .rules programs per decision —
    # roughly an order of magnitude slower, so the generator keeps
    # their cases tiny; they are the cross-interpreter oracle's target
    "nafta_rules": AlgoMeta(topologies=("mesh2d",),
                            minimal_fault_free=True,
                            max_link_faults=1,
                            may_refuse_under_faults=True,
                            may_stick_under_faults=True,
                            rule_driven=True),
    "route_c_rules": AlgoMeta(topologies=("hypercube",),
                              minimal_fault_free=True,
                              max_node_faults=1,
                              may_refuse_under_faults=True,
                              may_stick_under_faults=True,
                              rule_driven=True),
}
