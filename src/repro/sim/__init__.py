"""Flit-level wormhole network simulator (the evaluation substrate).

Topologies, fail-stop fault model, virtual-channel wormhole routers
with credit flow control and configurable routing-decision latency,
synthetic traffic, and statistics.
"""

from .arbiter import Arbiter, MisroutedFirstArbiter, OldestFirstArbiter, make_arbiter
from .config import SimConfig
from .diagnosis import DiagnosisEngine
from .faults import (FaultEvent, FaultSchedule, FaultState,
                     random_link_faults, random_node_faults)
from .flit import Flit, FlitKind, Header, Message
from .network import DeadlockError, Network
from .router import LOCAL, Router
from .stats import StatsCollector
from .watchdog import StallDiagnosis, StalledWorm, diagnose_stall
from .topology import (EAST, NORTH, SOUTH, WEST, Hypercube, KAryNCube,
                       Mesh2D, MeshND, Port, Topology, Torus2D, link_key,
                       topology_from_dict)
from .traffic import PATTERNS, TrafficGenerator

#: re-exported lazily: repro.sim.batched imports the routing layer for
#: its native decision cache, and the routing layer imports repro.sim —
#: resolving the names on first access keeps both import orders working
_BATCHED_EXPORTS = ("BatchedNetwork", "batched_fallback_reason",
                    "build_network")


def __getattr__(name):
    if name in _BATCHED_EXPORTS:
        from . import batched
        return getattr(batched, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Arbiter", "MisroutedFirstArbiter", "OldestFirstArbiter", "make_arbiter",
    "SimConfig", "DiagnosisEngine", "FaultEvent", "FaultSchedule",
    "FaultState", "random_link_faults", "random_node_faults", "Flit",
    "FlitKind", "Header", "Message", "DeadlockError",
    "Network", "BatchedNetwork", "batched_fallback_reason",
    "build_network", "LOCAL", "Router", "StatsCollector", "StallDiagnosis",
    "StalledWorm", "diagnose_stall", "EAST", "NORTH", "SOUTH", "WEST",
    "Hypercube", "KAryNCube", "Mesh2D", "MeshND", "Port", "Topology",
    "Torus2D", "link_key", "topology_from_dict", "PATTERNS",
    "TrafficGenerator",
]
