"""LFA-style fast reroute: armed backup subbases around a live algorithm.

:class:`FastReroute` wraps any fault-tolerant routing algorithm with
the precompiled backup next-hop table of
:mod:`repro.core.compiler.backup`.  The wrapper is transparent while no
local link fault is *armed*: every call delegates to the inner
algorithm.  When the network confirms a link fault at its endpoints
(``Network._confirm_fault``), it arms that link here, and fresh
injections at the endpoints are dispatched straight from the backup
subbase — the faulted-configuration decision the compiler probed and
verified at build time — without waiting for the notification flood.
When the flood converges and the inner algorithm's distributed state
is recomputed, the network disarms the link and the wrapper goes
transparent again (the DBR-style hand-off from fast local recovery to
slow-path reconfiguration).

Substitution is deliberately narrow, because the backup entries were
probed at the *injection* state and certified by the shadow
configuration's channel-dependency analysis:

* only at the local in-port (``in_port == LOCAL``) — mid-flight worms
  are handled by the network's heal/absorb machinery, which re-injects
  them locally and thereby funnels them through this same certified
  state;
* only for headers whose fields are injection-equivalent — accounting
  keys and per-decision scratch (leading underscore) only.  A worm
  carrying committed routing state (updown's one-way phase, a turn
  model's terminal flag) must not be re-based onto an injection-state
  rule, as the combination could close a channel-dependency cycle the
  build-time analysis never saw;
* only through backup candidates whose port is currently alive — a
  fault on the backup link itself falls through to the inner algorithm
  and the slow path.

The wrapper forwards the inner algorithm's native contract
(:meth:`~repro.routing.base.RoutingAlgorithm.native_contract`, with the
in-port forced into the key), so the batched engine keeps replaying
the inner decisions in C.  A substitution itself is never cached: the
batched engine does not note decisions at the local in-port of an
armed endpoint (:meth:`FastReroute.armed_endpoint`) into its native
cache, clears that cache when the armed set changes and bypasses its
clean table while any link is armed.
"""

from __future__ import annotations

import copy
from dataclasses import replace

from ..core.compiler.backup import load_or_build
from ..sim.router import LOCAL
from ..sim.topology import link_key
from .base import RouteDecision, RoutingAlgorithm

#: header fields that carry accounting, not routing state — a header
#: whose fields are a subset of these (plus ``_``-prefixed per-decision
#: scratch, which every ``route()`` call recomputes) is
#: injection-equivalent, so the injection-state backup entry applies
NEUTRAL_FIELDS = frozenset({
    "root_id", "retry_of", "attempt", "first_dropped", "orig_created",
    "healed_from", "local_retries", "stuck", "trace", "path_len",
    "misrouted",
})


class FastReroute(RoutingAlgorithm):
    """Backup-aware dispatch wrapper; see the module docstring."""

    def __init__(self, inner: RoutingAlgorithm, topology):
        self.inner = inner            # first: __getattr__ delegates here
        if not inner.fault_tolerant:
            raise ValueError(
                f"FastReroute needs a fault-tolerant inner algorithm, "
                f"got {inner.name!r}")
        self.name = inner.name + "+frr"
        self.n_vcs = inner.n_vcs
        self.fault_tolerant = True
        self.adaptive = inner.adaptive
        #: canonical keys of links whose backup subbase is active
        self.armed: set[tuple[int, int]] = set()
        #: built once per (algorithm, topology), then memoized and
        #: persisted by the table builder's cache
        self.table = load_or_build(inner, topology)

    # -- activation (driven by Network fault handling) ---------------------

    def arm(self, link) -> None:
        self.armed.add(link_key(*link))

    def disarm(self, link) -> None:
        self.armed.discard(link_key(*link))

    # -- RoutingAlgorithm surface ------------------------------------------

    def route(self, router, header, in_port: int,
              in_vc: int) -> RouteDecision:
        if self.armed and in_port == LOCAL and router.node != header.dst \
                and all(k in NEUTRAL_FIELDS or k.startswith("_")
                        for k in header.fields):
            node = router.node
            for link in sorted(self.armed):
                if node != link[0] and node != link[1]:
                    continue
                entry = self.table.lookup(node, link, header.dst)
                if entry is None:
                    continue
                cands, delta = entry
                alive = [(p, v) for p, v in cands if router.port_alive(p)]
                if not alive:
                    continue    # fault on the backup itself: slow path
                for k in [k for k in header.fields if k.startswith("_")]:
                    del header.fields[k]
                for k, v in delta.items():
                    header.fields[k] = copy.deepcopy(v)
                rr = getattr(router.network.stats, "reroute", None)
                if rr is not None:
                    rr["backup_route_decisions"] += 1
                return RouteDecision(candidates=alive, steps=1)
        return self.inner.route(router, header, in_port, in_vc)

    def check_topology(self, topology) -> None:
        self.inner.check_topology(topology)

    def reset(self, network) -> None:
        self.armed.clear()
        self.inner.reset(network)

    def on_fault_update(self, network, nodes=None) -> None:
        self.inner.on_fault_update(network, nodes=nodes)

    def accepts_node(self, node: int) -> bool:
        return self.inner.accepts_node(node)

    def on_depart(self, router, header, out_port: int,
                  out_vc: int) -> None:
        self.inner.on_depart(router, header, out_port, out_vc)

    def decision_steps_range(self) -> tuple[int, int]:
        lo, hi = self.inner.decision_steps_range()
        return (min(lo, 1), hi)

    def native_contract(self, topology):
        # RoutingAlgorithm defines it, so __getattr__ never sees it.
        # Substitutions read port_alive and the exact dst, but they are
        # never cached.  The in-port stays in the key whatever the inner
        # algorithm declares: substitution applies at the local in-port
        # only, so a transit decision must never answer for an injection
        inner = self.inner.native_contract(topology)
        return None if inner is None else replace(inner, key_uses_port=True)

    def armed_endpoint(self, node: int) -> bool:
        """Is ``node`` an endpoint of an armed link (where injections
        may be substituted)?"""
        return any(node in link for link in self.armed)

    def __getattr__(self, item):
        return getattr(self.inner, item)
