"""Routing algorithms: the paper's NAFTA/NARA and ROUTE_C (plus its
stripped nft variant), oblivious baselines, and the spanning-tree
baseline of Section 2.1."""

from .backup import FastReroute, NEUTRAL_FIELDS
from .base import RouteDecision, RoutingAlgorithm, RoutingError
from .dimension_order import ECubeRouting, XYRouting
from .duato import DuatoMeshRouting
from .mesh_state import MeshFaultMap, MeshNodeState
from .nafta import NaftaRouting
from .nara import NaraRouting, assign_virtual_network
from .registry import ALGORITHMS, make_algorithm
from .route_c import (CubeStateMap, RouteCRouting, StrippedRouteC,
                      FAULTY, LFAULT, OUNSAFE, SAFE, SUNSAFE)
from .rule_driven import RuleDrivenNafta, RuleDrivenRouteC
from .spanning_tree import SpanningTreeRouting
from .updown import UpDownRouting

__all__ = [
    "FastReroute", "NEUTRAL_FIELDS",
    "RouteDecision", "RoutingAlgorithm", "RoutingError",
    "ECubeRouting", "XYRouting", "DuatoMeshRouting",
    "MeshFaultMap", "MeshNodeState", "NaftaRouting", "NaraRouting",
    "assign_virtual_network", "ALGORITHMS", "make_algorithm",
    "CubeStateMap", "RouteCRouting", "StrippedRouteC",
    "FAULTY", "LFAULT", "OUNSAFE", "SAFE", "SUNSAFE",
    "SpanningTreeRouting", "UpDownRouting", "RuleDrivenNafta", "RuleDrivenRouteC",
]
