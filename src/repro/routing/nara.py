"""NARA: fully adaptive minimal routing on 2-D meshes (non-fault-
tolerant; the base NAFTA builds on, [CuA95] via this paper).

Two virtual channels per link form two virtual networks derived from
the turn model [GlN92]:

* VC0 — *north-last*: the turns N->E and N->W are prohibited, so
  messages mix {E, W, S} moves freely and may go north only as an
  uninterrupted terminal run;
* VC1 — *south-last*: S->E and S->W prohibited; {E, W, N} free, south
  terminal.

A message whose destination lies to the south routes in VC0, one whose
destination lies to the north in VC1; within its network every minimal
path is available, which is Condition 1 ("If all links of all minimal
paths between source and destination are unbroken, then every such
path can be selected dependent on the load of the network") — the
deadlock-freedom and full-adaptivity of this construction are verified
by the channel-dependency-graph tests in ``tests/analysis``.

The adaptivity criterion is the paper's: the amount of data still
assigned to each output (Section 2.2, "the amount of data that still
has to pass a node as adaptivity criterion").
"""

from __future__ import annotations

from ..sim.flit import Header
from ..sim.topology import EAST, NORTH, SOUTH, WEST, Mesh2D, Topology
from .base import (REFRESH_RESORT, REFRESH_STATIC, NativeContract,
                   RouteDecision, RoutingAlgorithm, RoutingError)

#: free move set and terminal direction of each virtual network
VN_FREE = {0: (EAST, WEST, SOUTH), 1: (EAST, WEST, NORTH)}
VN_TERMINAL = {0: NORTH, 1: SOUTH}


def assign_virtual_network(topology: Mesh2D, src: int, dst: int) -> int:
    """VC1 for north-bound messages, VC0 for south-bound and row
    messages (row messages are unrestricted in either network)."""
    _, y = topology.coords(src)
    _, dy = topology.coords(dst)
    return 1 if dy > y else 0


class NaraRouting(RoutingAlgorithm):
    name = "nara"
    n_vcs = 2
    fault_tolerant = False
    def __init__(self):
        # unordered candidate sets are pure geometry (node, dst, vn) —
        # memoized across the run; only the load ordering is dynamic
        self._cand_cache: dict[tuple[int, int, int],
                               list[tuple[int, int]]] = {}

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh2D):
            raise RoutingError("NARA runs on 2-D meshes")

    def native_contract(self, topology) -> NativeContract:
        # route() consults nothing but geometry and the vn field (in_port,
        # in_vc, path_len are never read) and has no fault input at all;
        # the candidate set is pure geometry per (node, dst, vn) — signs
        # alone on the mesh — so the build-time clean table applies
        return NativeContract(fields=("vn",), key_uses_port=False,
                              key_uses_vc=False, reads_links=False,
                              clean_table=True)

    def _virtual_network(self, router, header: Header) -> int:
        vn = header.fields.get("vn")
        if vn is None:
            vn = assign_virtual_network(router.topology, router.node,
                                        header.dst)
            header.fields["vn"] = vn
        return vn

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        if router.node == header.dst:
            return RouteDecision(deliver=True, steps=1,
                                 refresh_hint=REFRESH_STATIC)
        vn = self._virtual_network(router, header)
        key = (router.node, header.dst, vn)
        candidates = self._cand_cache.get(key)
        if candidates is None:
            candidates = self._candidates(router.topology, router.node,
                                          header.dst, vn)
            self._cand_cache[key] = candidates
        candidates = self._order(candidates, router)
        # the candidate set is pure geometry per (node, dst, vn); only
        # the load ordering is dynamic, so refreshes are re-sorts
        return RouteDecision(candidates=candidates, steps=1,
                             refresh_hint=REFRESH_RESORT)

    @staticmethod
    def _candidates(topo: Mesh2D, node: int, dst: int,
                    vn: int) -> list[tuple[int, int]]:
        minimal = topo.minimal_ports(node, dst)
        free = VN_FREE[vn]
        term = VN_TERMINAL[vn]
        candidates = [(p, vn) for p in minimal if p in free]
        if term in minimal:
            # only reachable after an overshoot, which NARA never does;
            # kept for interface symmetry with NAFTA
            x, _ = topo.coords(node)
            dx, _ = topo.coords(dst)
            if x == dx:
                candidates.append((term, vn))
        return candidates

    @staticmethod
    def _order(candidates, router):
        """NARA's adaptivity: least committed data first."""
        if len(candidates) < 2:
            return candidates
        return sorted(candidates,
                      key=lambda pv: (router.output_load(pv[0]), pv[0]))

    def decision_steps_range(self) -> tuple[int, int]:
        return (1, 1)
