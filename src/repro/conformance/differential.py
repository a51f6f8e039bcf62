"""Decision-level shadow differential: ft algorithm vs its nft twin.

The paper claims NAFTA "behaves exactly like NARA" and stripped
ROUTE_C "exactly like the original algorithm" in fault-free networks.
Whole-run bit-identity cannot test that — the fault-tolerant variants
pay more interpretation steps per decision (ROUTE_C: 2 vs 1), which
shifts timing and therefore arbitration.  So the comparison happens at
the only level where "exactly like" is well defined: every time the
primary algorithm decides, the shadow decides *from the same router
state* on a copy of the header, and the ordered output-port lists must
match.
"""

from __future__ import annotations

from dataclasses import replace

from ..routing.base import RouteDecision, RoutingAlgorithm
from ..sim.flit import Header


class ShadowDifferential(RoutingAlgorithm):
    """Wrap ``primary``, re-deciding every decision with ``shadow``.

    The network sees only the primary: its decisions are returned, its
    VC count and lifecycle hooks are used.  The shadow routes a
    throwaway header copy, so its field writes (virtual-network
    assignment, detour markers) never leak into the run.  Mismatches
    accumulate in :attr:`mismatches` as JSON-able dicts.
    """

    def __init__(self, primary: RoutingAlgorithm, shadow: RoutingAlgorithm):
        self.primary = primary
        self.shadow = shadow
        self.name = f"{primary.name}~vs~{shadow.name}"
        self.n_vcs = primary.n_vcs
        self.adaptive = primary.adaptive
        self.fault_tolerant = primary.fault_tolerant
        self.mismatches: list[dict] = []

    # -- lifecycle: both run, the primary rules --------------------------

    def check_topology(self, topology) -> None:
        self.primary.check_topology(topology)
        self.shadow.check_topology(topology)

    def reset(self, network) -> None:
        self.primary.reset(network)
        self.shadow.reset(network)

    def on_fault_update(self, network, nodes=None) -> None:
        self.primary.on_fault_update(network, nodes)
        self.shadow.on_fault_update(network, nodes)

    def accepts_node(self, node: int) -> bool:
        return self.primary.accepts_node(node)

    def on_depart(self, router, header, out_port, out_vc) -> None:
        self.primary.on_depart(router, header, out_port, out_vc)

    def decision_steps_range(self):
        return self.primary.decision_steps_range()

    # -- the differential -------------------------------------------------

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        decision = self.primary.route(router, header, in_port, in_vc)
        ghost = replace(header, fields=dict(header.fields))
        shadow_decision = self.shadow.route(router, ghost, in_port, in_vc)
        primary_ports = [p for p, _ in decision.candidates]
        shadow_ports = [p for p, _ in shadow_decision.candidates]
        if (decision.deliver != shadow_decision.deliver
                or decision.stuck != shadow_decision.stuck
                or primary_ports != shadow_ports):
            self.mismatches.append({
                "node": router.node,
                "msg_id": header.msg_id,
                "src": header.src,
                "dst": header.dst,
                "in_port": in_port,
                "primary": {"deliver": decision.deliver,
                            "stuck": decision.stuck,
                            "ports": primary_ports},
                "shadow": {"deliver": shadow_decision.deliver,
                           "stuck": shadow_decision.stuck,
                           "ports": shadow_ports},
            })
        return decision
