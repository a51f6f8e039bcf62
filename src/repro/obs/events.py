"""Typed trace-event taxonomy.

Every event the simulator can emit has a dotted-kind constant here, so
consumers (the Chrome exporter, tests, ad-hoc analysis) match on names
defined in exactly one place.  Events carry a cycle stamp, a kind, and
a flat JSON-able payload dict — deliberately schema-light so new layers
can add events without touching this module's machinery.

The taxonomy mirrors the paper's accounting: worm lifecycle events
count what the *network* does to messages, fault events reproduce the
detection / notification-flood / convergence phases of assumption iv,
and rule events expose the interpretation-step costs of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- worm lifecycle ---------------------------------------------------------
WORM_CREATED = "worm.created"  # accepted into a source queue
WORM_BLOCKED = "worm.blocked"  # refused at offer time (unroutable)
WORM_INJECT = "worm.inject"  # head flit entered the network
WORM_DELIVER = "worm.deliver"  # tail flit ejected at the destination
WORM_DROP = "worm.drop"  # ripped up by a harsh-mode fault
WORM_STUCK = "worm.stuck"  # declared permanently unroutable
WORM_RETRY = "worm.retry"  # retransmission copy queued at the source
WORM_DEAD_LETTER = "worm.dead_letter"  # retry budget exhausted / cut off
WORM_HEALED = "worm.healed"  # split at a dead link: fragment finished,
#                              remainder re-injected (fast reroute)
WORM_ABSORBED = "worm.absorbed"  # stuck worm absorbed for a delayed
#                                  local re-injection (fast reroute)

# -- link arbitration -------------------------------------------------------
LINK_ARB = "link.arb"  # contended output port granted

# -- fault handling ---------------------------------------------------------
FAULT_INJECT = "fault.inject"  # the physical fault happened
FAULT_DETECT = "fault.detect"  # Information Units confirmed it
FAULT_FLOOD_START = "fault.flood_start"  # notification flood launched
FAULT_FLOOD_NODE = "fault.flood_node"  # one node's view updated
FAULT_CONVERGED = "fault.converged"  # flood reached every reachable node

# -- rule interpretation ----------------------------------------------------
RULE_DECISION = "rule.decision"  # one routing decision (+ step count)
RULE_INVOKE = "rule.invoke"  # one RBR-kernel rule-base invocation

# -- simulator-level --------------------------------------------------------
SIM_DEADLOCK = "sim.deadlock"  # the progress watchdog fired

ALL_KINDS = frozenset(
    v for k, v in globals().items() if k.isupper() and isinstance(v, str)
)


@dataclass(slots=True)
class TraceEvent:
    """One structured event: cycle stamp, dotted kind, payload."""

    cycle: int
    kind: str
    data: dict

    def to_list(self) -> list:
        """Canonical JSON-able form (compact, deterministic)."""
        return [self.cycle, self.kind, self.data]

    @classmethod
    def from_list(cls, row: list) -> "TraceEvent":
        return cls(int(row[0]), str(row[1]), dict(row[2]))
