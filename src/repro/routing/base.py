"""Routing algorithm interface.

The paper describes a common structure for fault-tolerant routing
algorithms (Section 2.2): fault knowledge restricts usable outgoing
links (set 1); destination/source plus deadlock rules yield a set of
deadlock-free outputs (set 2); the intersection, ordered by an
adaptivity criterion, gives the candidates the router tries.

``RoutingAlgorithm.route`` returns exactly that: an ordered candidate
list of (port, virtual channel) pairs, or a delivery decision, plus the
number of rule-interpretation steps the decision cost — the quantity
the paper's Section 5 reports (NAFTA 1..3 steps, ROUTE_C always 2).

Algorithms keep their distributed per-node state (NAFTA's dead-end
states, ROUTE_C's unsafe states) in ``node_states`` and refresh it in
``on_fault_update`` — the diagnosis phase of assumption iv.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..sim._batched_kernel import MAXF
from ..sim.flit import Header
from ..sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.network import Network, Router


#: refresh hints: what re-routing a *blocked* head would do while the
#: route epoch, the link status and the header fields are unchanged.
#: REROUTE (the safe default) re-enters ``route``; RESORT promises the
#: same candidate set re-sorted by (output_load, port, vc) — past the
#: contract's ``resort_pin`` leading members, loads clamped at its
#: ``load_cap`` (:class:`NativeContract`); STATIC
#: promises the identical decision; ARGMIN promises the single
#: least-loaded member, by (output_load, port, vc), of the fixed set
#: ``argmin_set`` (a rule program's "minimum selection" FCFB over
#: current loads).  The object engine ignores the hint (it always
#: re-routes); the batched engine uses it to refresh blocked worms and
#: replay cached decisions in its arrays.
REFRESH_REROUTE = 0
REFRESH_RESORT = 1
REFRESH_STATIC = 2
REFRESH_ARGMIN = 3


@dataclass
class RouteDecision:
    """Outcome of one routing decision."""

    deliver: bool = False
    candidates: list[tuple[int, int]] = field(default_factory=list)
    steps: int = 1            # rule-interpretation steps consumed
    stuck: bool = False       # no legal output exists, now or ever
    #                           (a Condition-3 violation; the network
    #                           drops the message and counts it)
    refresh_hint: int = REFRESH_REROUTE  # see the module constants
    #: REFRESH_ARGMIN only: the whole set ``candidates[0]`` was chosen
    #: from, that member first
    argmin_set: "list[tuple[int, int]] | None" = None

    @property
    def stored(self) -> list[tuple[int, int]]:
        """What an engine that honours the hint stores: an ARGMIN
        decision's whole set, else the candidates."""
        return self.argmin_set if self.refresh_hint == REFRESH_ARGMIN \
            else self.candidates

    @classmethod
    def delivery(cls, steps: int = 1) -> "RouteDecision":
        return cls(deliver=True, steps=steps)

    @classmethod
    def unroutable(cls, steps: int = 1) -> "RouteDecision":
        return cls(stuck=True, steps=steps)


@dataclass(frozen=True)
class NativeContract:
    """What the batched engine's C decision cache may assume about an
    algorithm's ``route`` (:meth:`RoutingAlgorithm.native_contract`).

    Declaring one asserts that, while the fault knowledge (and the link
    status, see ``reads_links``) stands, the decision (including its
    ``steps`` and field writes) is a pure function of (node, dst,
    in_port, in_vc, the ``fields`` values, and whether ``path_len``
    exceeds ``livelock_limit``; dst narrowed to its class under
    ``relative_dst`` and node to its ``node_class``) up to the load
    re-ordering a ``REFRESH_RESORT`` (past ``resort_pin``, loads
    clamped at ``load_cap``) or ``REFRESH_ARGMIN`` hint declares, and
    that ``on_depart`` does nothing beyond the base path-length bump
    plus the optional ``term_rule`` and ``bump_rule``.  REROUTE-hinted
    decisions are never cached, so exceptional branches (unroutable,
    one-way switches) always re-enter Python.
    """

    #: header field names covering BOTH every field ``route`` reads and
    #: every field it writes; the only statement of either.  Values must
    #: be small ints, bools or None
    fields: tuple[str, ...]
    #: optional ``(flag_field, vn_field, {vn: port})`` commit rule the
    #: batched engine applies natively on head departure:
    #: ``flag_field := True`` when the worm departs through the port
    #: the map assigns to its current ``vn_field`` value (the terminal-
    #: run commitment of the turn-model algorithms)
    term_rule: tuple[str, str, dict] | None = None
    #: set False when ``route`` provably never consults in_port / in_vc
    #: (shrinks the key space, so the cache converges faster); leave
    #: True whenever in doubt — a finer key is always correct
    key_uses_port: bool = True
    key_uses_vc: bool = True
    #: set True when, while the fault knowledge stands, the decision
    #: reads ``dst`` only through its class relative to the deciding
    #: node — on the 2-D mesh (sign dx, sign dy), plus the exact dy when
    #: dx == 0 (a terminal-run check needs the hop count); on the
    #: hypercube ``(up, down) = (diff & ~node, diff & node)`` with
    #: ``diff = node ^ dst`` — except for the destinations
    #: ``irregular_dsts`` lists.  The batched engine then keys its cache
    #: by that class, so one cached decision serves every congruent
    #: destination; irregular ones keep the exact dst in the key
    relative_dst: bool = False
    #: set False when ``route`` reads the fault knowledge only, never
    #: the physical link status (``port_alive``), which under a
    #: detection delay changes cycles before the knowledge does; the
    #: batched engine then keeps its cache, clean table and refresh
    #: hints across such a change
    reads_links: bool = True
    #: opt-in for the batched engine's build-time clean table
    #: (:mod:`repro.routing.clean_table`): asserts that while the known
    #: fault set is EMPTY, the decision is a pure function of
    #: (sign dx, sign dy, the ``vn`` field, the optional ``term``
    #: field) — translation-invariant on the 2-D mesh, with every other
    #: field absent.  The table builder
    #: (:mod:`repro.core.compiler.backup`, under the empty fault set)
    #: still probe-verifies the claim at build time and falls back
    #: entry-by-entry when a probe disagrees; the table is bypassed
    #: entirely the moment a fault becomes known.
    clean_table: bool = False
    #: path-length threshold the decision branches on (the livelock
    #: guard feeding the ``over`` component of the key); None when the
    #: algorithm never consults the counter
    livelock_limit: int | None = None
    #: zero-argument callable listing the destinations excluded from
    #: the ``relative_dst`` fold under the current fault knowledge (the
    #: batched engine re-reads them whenever it clears its cache);
    #: the default ``tuple`` lists none
    irregular_dsts: Callable[[], Iterable[int]] = tuple
    #: optional zero-argument callable giving one hashable key per node
    #: (in node order): nodes with equal keys decide alike for every
    #: regular destination under ``relative_dst``, so the batched engine
    #: keys their decisions by one shared class.  Re-read on every cache
    #: clear, like ``irregular_dsts``; None (the default) is one class
    #: per node.  A decision about an irregular destination, or at an
    #: armed fast-reroute endpoint, keeps the exact node in the key
    node_class: Callable[[], Sequence[Hashable]] | None = None
    #: a REFRESH_RESORT re-sort keeps the first ``resort_pin``
    #: candidates in place and orders only the rest by load (a decision
    #: whose own criterion picks its first member, ahead of the others)
    resort_pin: int = 0
    #: the re-sort compares loads clamped at this value (the top of the
    #: load input's domain when the decision reads loads through one);
    #: None compares raw loads
    load_cap: int | None = None
    #: optional ``(flag_field, counter_field)`` departure rule the
    #: batched engine applies natively next to ``term_rule``: on head
    #: departure the flag is removed, and when it was set the counter
    #: (absent counts as 0) goes up by one — a decision that takes a
    #: detour commits its channel-class bump only when the head leaves
    bump_rule: tuple[str, str] | None = None

    def __post_init__(self):
        if len(self.fields) > MAXF:
            raise ValueError(
                f"a native contract names at most {MAXF} header fields "
                f"(the batched kernel mirrors {MAXF} per message), got "
                f"{len(self.fields)}: {self.fields}")


class RoutingError(Exception):
    """A routing algorithm met a situation it cannot handle (e.g. its
    topology requirements are violated, or a message has no legal
    output and never will)."""


class RoutingAlgorithm:
    """Base class for all routing algorithms."""

    #: human-readable identifier used by the registry and reports
    name: str = "base"
    #: virtual channels per physical link the scheme requires
    n_vcs: int = 1
    #: True if the algorithm handles faults (otherwise it is an "nft"
    #: algorithm in the paper's terminology)
    fault_tolerant: bool = False
    #: True if ``route`` consults dynamic network state (loads, queue
    #: occupancy), so a blocked head's candidate list must be refreshed
    #: every cycle.  Deterministic schemes (the decision depends only on
    #: source/destination and the fault knowledge) set this False and
    #: are re-routed only when the fault knowledge changes (the
    #: network's ``route_epoch`` advances).
    adaptive: bool = True

    # -- lifecycle -------------------------------------------------------

    def check_topology(self, topology: Topology) -> None:
        """Raise RoutingError if the topology is unsupported.  The paper
        notes the topology 'is a property of the routing algorithm and
        not an input to it'."""

    def reset(self, network: "Network") -> None:
        """(Re)build per-node state at simulation start."""

    def on_fault_update(self, network: "Network",
                        nodes: list[int] | None = None) -> None:
        """Diagnosis phase: recompute distributed fault knowledge after
        the fault set changed.

        With instant diagnosis this runs atomically (assumption iv) and
        ``nodes`` is None — every node's knowledge changed at once.
        With the hop-by-hop diagnosis protocol
        (``SimConfig.diagnosis_hop_delay``) it runs when a notification
        flood *converges* and ``nodes`` lists the node ids the flood
        reached — the nodes whose local view
        (``network.fault_view(node)``) changed.  Algorithms may use it
        to scope partial recomputation; recomputing everything from
        ``network.known_faults`` stays correct, since the converged
        views and the known set agree."""

    # -- the decision ------------------------------------------------------

    def route(self, router: "Router", header: Header,
              in_port: int, in_vc: int) -> RouteDecision:
        raise NotImplementedError

    def native_contract(self, topology: Topology) -> NativeContract | None:
        """What the batched engine's C decision cache may assume about
        ``route`` on ``topology``; None (the default) sends every fresh
        decision to Python."""
        return None

    def accepts_node(self, node: int) -> bool:
        """May messages start or end at ``node``?  Fault-tolerant
        schemes refuse blocked nodes (their convex completion may
        exclude healthy nodes — the Condition-3 concession the paper
        discusses).  Its answers may change only with the algorithm's
        fault knowledge (``reset`` and ``on_fault_update``): the batched
        engine screens admissions against one array of them per
        change."""
        return True

    def accepts(self, src: int, dst: int) -> bool:
        """May a message from src to dst enter the network: are both
        endpoints accepted (:meth:`accepts_node`)?"""
        return self.accepts_node(src) and self.accepts_node(dst)

    def on_depart(self, router: "Router", header: Header,
                  out_port: int, out_vc: int) -> None:
        """Header bookkeeping when the head actually leaves (path-length
        counter, misrouted mark, phase changes)."""
        header.bump_path_len()

    # -- introspection -----------------------------------------------------

    def decision_steps_range(self) -> tuple[int, int]:
        """(best, worst) interpretation steps per routing decision; the
        paper's Section 5 time-overhead numbers."""
        return (1, 1)

    def describe(self) -> str:
        lo, hi = self.decision_steps_range()
        ft = "fault-tolerant" if self.fault_tolerant else "non-fault-tolerant"
        return (f"{self.name}: {ft}, {self.n_vcs} VCs, "
                f"{lo}-{hi} interpretation steps per decision")


def order_by_adaptivity(candidates: list[tuple[int, int]],
                        router: "Router") -> list[tuple[int, int]]:
    """Default adaptivity criterion: prefer the output with the least
    data still assigned to it (the NAFTA criterion — the amount of data
    that still has to pass a node, approximated by downstream queue
    occupancy plus committed worm remainders)."""
    if len(candidates) < 2:
        return candidates
    return sorted(candidates,
                  key=lambda pv: (router.output_load(pv[0]), pv[0], pv[1]))
