"""Wormhole router model.

Mirrors the paper's architecture (Figure 3): input/output buffers per
virtual channel form the data path; the control unit (here: a
:class:`~repro.routing.base.RoutingAlgorithm`, which in turn may be a
compiled rule program) makes routing decisions that take a configurable
number of interpretation steps; the connection unit is a crossbar that
moves at most one flit per input port and one per output port each
cycle; the message interface lets the control read and modify headers.

Flow control is credit-accurate: a flit is only forwarded when the
downstream virtual-channel buffer has space for it *this* cycle
(incoming flits staged by other routers count).  Virtual-channel
allocation is wormhole-standard: an output VC belongs to one worm from
head grant to tail traversal.

The local injection/ejection port is ``LOCAL`` (= -1): injected worms
enter through local input VC buffers and take part in normal routing;
delivered worms leave through the local output port (one flit per
cycle, like any physical port, but with no downstream buffer limit).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs import events as trace_ev
from .arbiter import Request
from .flit import Flit, Header
from .topology import Port

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

LOCAL = -1

IDLE = "idle"        # no worm assigned; head (if any) needs a route
ROUTING = "routing"  # decision made, waiting out the decision latency
ROUTED = "routed"    # eligible for VC/switch allocation
ACTIVE = "active"    # worm holds an output VC; body/tail streaming


@dataclass
class InputVC:
    port: int
    vc: int
    capacity: int
    buffer: deque = field(default_factory=deque)
    incoming: list = field(default_factory=list)
    state: str = IDLE
    decision: "object | None" = None       # RouteDecision while ROUTED
    ready_cycle: int = 0                   # decision latency expiry
    epoch: int = 0                         # route_epoch of the decision
    out_port: int | None = None
    out_vc: int | None = None
    header: Header | None = None           # header of the current worm

    @property
    def space(self) -> int:
        return self.capacity - len(self.buffer) - len(self.incoming)

    @property
    def front(self) -> Flit | None:
        return self.buffer[0] if self.buffer else None

    def flush_incoming(self) -> None:
        if self.incoming:
            self.buffer.extend(self.incoming)
            self.incoming.clear()

    def release_worm(self) -> None:
        self.state = IDLE
        self.decision = None
        self.out_port = None
        self.out_vc = None
        self.header = None


@dataclass
class OutputVC:
    port: int
    vc: int
    owner: tuple[int, int] | None = None   # (in_port, in_vc) of the worm


class Router:
    def __init__(self, network: "Network", node: int):
        self.network = network
        self.node = node
        self.topology = network.topology
        cfg = network.config
        n_vcs = network.algorithm.n_vcs
        self.n_vcs = n_vcs
        self.ports: dict[int, Port] = dict(self.topology.ports(node))
        port_ids = [LOCAL] + sorted(self.ports)
        self.input_vcs: dict[int, list[InputVC]] = {
            pid: [InputVC(pid, v, cfg.buffer_depth) for v in range(n_vcs)]
            for pid in port_ids}
        self.output_vcs: dict[int, list[OutputVC]] = {
            pid: [OutputVC(pid, v) for v in range(n_vcs)]
            for pid in port_ids}
        # incremental flit count (kept in sync by the transfer sites)
        self.n_flits = 0
        # True while any input VC has staged incoming flits; lets
        # flush_incoming skip the VC scan on quiet routers
        self._has_incoming = False
        self._alive_version = -1
        self._alive: dict[int, bool] = {}
        # flat view of the input VCs, in allocation order (LOCAL first,
        # then ascending ports) — the per-cycle phases iterate this
        self._ivs: tuple[InputVC, ...] = tuple(
            iv for vcs in self.input_vcs.values() for iv in vcs)
        # per-port (downstream router, downstream input VCs) — resolved
        # by finalize() once every router of the network exists
        self._down: dict[int, tuple["Router", list[InputVC]]] = {}

    def finalize(self) -> None:
        """Resolve downstream buffer references (called by the network
        after all routers are constructed)."""
        routers = self.network.routers
        self._down = {
            pid: (routers[port.neighbor],
                  routers[port.neighbor].input_vcs[port.neighbor_port])
            for pid, port in self.ports.items()}

    def unlink(self) -> None:
        """Drop the references to the network and the downstream
        routers (a finished network's teardown, see
        :meth:`Network.release`)."""
        self.network = None
        self._down = {}

    # -- views used by routing algorithms ---------------------------------------

    def port_alive(self, pid: int) -> bool:
        if pid == LOCAL:
            return True
        faults = self.network.faults
        if self._alive_version != faults.version:
            self._alive = {p: faults.port_ok(self.node, p)
                           for p in self.ports}
            self._alive_version = faults.version
        return self._alive.get(pid, False)

    def output_free(self, pid: int, vc: int) -> bool:
        """Can a new head claim this output VC right now?"""
        if not self.port_alive(pid):
            return False
        if self.output_vcs[pid][vc].owner is not None:
            return False
        return self.credits(pid, vc) > 0

    def credits(self, pid: int, vc: int) -> int:
        """Free space in the downstream buffer this output feeds."""
        if pid == LOCAL:
            return 1 << 30
        iv = self._down[pid][1][vc]
        return iv.capacity - len(iv.buffer) - len(iv.incoming)

    def output_load(self, pid: int) -> int:
        """Adaptivity metric: data committed to this output — occupied
        downstream buffer slots plus worms holding its VCs."""
        if pid == LOCAL:
            return 0
        out = 0
        for iv in self._down[pid][1]:
            out += len(iv.buffer) + len(iv.incoming)
        for ov in self.output_vcs[pid]:
            if ov.owner is not None:
                out += 1
        return out

    def port_loads(self) -> dict[int, int]:
        """``output_load`` of every port, keyed by port id."""
        return {pid: self.output_load(pid) for pid in self.ports}

    # -- cycle phases (driven by Network.step) --------------------------------------

    def flush_incoming(self) -> None:
        if not self._has_incoming:
            return
        self._has_incoming = False
        for iv in self._ivs:
            if iv.incoming:
                iv.buffer.extend(iv.incoming)
                iv.incoming.clear()

    def route_stage(self, cycle: int) -> None:
        """Compute routes for heads at the front of IDLE input VCs and
        refresh candidate lists for ROUTED (possibly blocked) heads."""
        if self.n_flits == 0:
            return
        net = self.network
        algo = net.algorithm
        adaptive = algo.adaptive
        epoch = net.route_epoch
        cycles_per_step = net.config.cycles_per_step
        hop_budget = net.config.hop_budget
        tr = net.tracer
        stuck_messages: list[int] = []
        for iv in self._ivs:
            buf = iv.buffer
            if not buf:
                continue
            state = iv.state
            if state == IDLE:
                front = buf[0]
                if not front.is_head:
                    raise RuntimeError(
                        f"node {self.node}: body flit of message "
                        f"{front.msg_id} at the front of an idle VC")
                header = front.header
                assert header is not None
                if hop_budget and header.path_len > hop_budget:
                    # network-level livelock guard: the worm burned its
                    # hop budget without reaching the destination
                    stuck_messages.append(header.msg_id)
                    continue
                decision = algo.route(self, header, iv.port, iv.vc)
                net.stats.count_decision(decision.steps)
                dg = net.stats.digest
                if dg is not None:
                    dg.update(self.node, header.msg_id, decision)
                if tr.enabled:
                    tr.emit(trace_ev.RULE_DECISION, node=self.node,
                            msg_id=header.msg_id, steps=decision.steps,
                            deliver=decision.deliver,
                            candidates=len(decision.candidates))
                latency = max(1, decision.steps * cycles_per_step)
                iv.state = state = ROUTING
                iv.header = header
                iv.decision = decision
                iv.epoch = epoch
                iv.ready_cycle = cycle + latency - 1
            if state == ROUTING:
                if cycle >= iv.ready_cycle:
                    iv.state = ROUTED
            elif state == ROUTED and (adaptive or iv.epoch != epoch):
                # refresh adaptivity ordering while blocked (the
                # hardware's premises are continuously evaluated); costs
                # no additional interpretation steps.  Deterministic
                # (non-adaptive) decisions are refreshed only after the
                # fault knowledge changed — nothing else can alter them.
                assert iv.header is not None
                iv.decision = algo.route(self, iv.header, iv.port, iv.vc)
                iv.epoch = epoch
            if iv.state == ROUTED and iv.decision is not None \
                    and iv.decision.stuck:
                assert iv.header is not None
                stuck_messages.append(iv.header.msg_id)
        for msg_id in stuck_messages:
            net.message_stuck(msg_id)

    def collect_requests(self) -> list[Request]:
        """Requests for this cycle's switch allocation.  The body
        inlines ``output_free``/``credits``/``port_alive`` — this runs
        once per flit-holding router per cycle and dominated profiles
        as separate calls."""
        out: list[Request] = []
        if self.n_flits == 0:
            return out
        faults = self.network.faults
        if self._alive_version != faults.version:
            self._alive = {p: faults.port_ok(self.node, p)
                           for p in self.ports}
            self._alive_version = faults.version
        alive = self._alive
        output_vcs = self.output_vcs
        down = self._down
        for iv in self._ivs:
            if not iv.buffer:
                continue
            state = iv.state
            if state == ROUTED:
                decision = iv.decision
                assert decision is not None
                if decision.deliver:
                    out.append(Request(iv.port, iv.vc, LOCAL, iv.vc,
                                       iv.header, True))
                    continue
                for pid, vc in decision.candidates:
                    if pid != LOCAL and not alive.get(pid, False):
                        continue
                    if output_vcs[pid][vc].owner is not None:
                        continue
                    if pid != LOCAL:
                        d = down[pid][1][vc]
                        if len(d.buffer) + len(d.incoming) >= d.capacity:
                            continue
                    out.append(Request(iv.port, iv.vc, pid, vc,
                                       iv.header, True))
                    break  # one request per input VC per cycle
            elif state == ACTIVE:
                out_port = iv.out_port
                assert out_port is not None and iv.out_vc is not None
                # a dead link stalls the worm where it stands (it is
                # ripped up when the fault is confirmed)
                if out_port == LOCAL:
                    out.append(Request(iv.port, iv.vc, out_port,
                                       iv.out_vc, iv.header, False))
                elif alive.get(out_port, False):
                    d = down[out_port][1][iv.out_vc]
                    if len(d.buffer) + len(d.incoming) < d.capacity:
                        out.append(Request(iv.port, iv.vc, out_port,
                                           iv.out_vc, iv.header, False))
        return out

    def grant(self, req: Request, cycle: int) -> None:
        """Execute one granted request: move the front flit."""
        net = self.network
        iv = self.input_vcs[req.in_port][req.in_vc]
        flit = iv.buffer.popleft()
        self.n_flits -= 1
        out_port = req.out_port
        out_vc = req.out_vc
        if req.is_head:
            self.output_vcs[out_port][out_vc].owner = (req.in_port,
                                                       req.in_vc)
            iv.state = ACTIVE
            iv.out_port = out_port
            iv.out_vc = out_vc
            assert iv.header is not None
            net.algorithm.on_depart(self, iv.header, out_port, out_vc)
            if net.config.trace_paths:
                iv.header.fields.setdefault("trace", []).append(self.node)
        if flit.is_tail:
            self.output_vcs[out_port][out_vc].owner = None
            iv.release_worm()
        self._forward(flit, out_port, out_vc, cycle)

    def _forward(self, flit: Flit, out_port: int, out_vc: int,
                 cycle: int) -> None:
        net = self.network
        if out_port == LOCAL:
            net.eject(self.node, flit, cycle)
            return
        if not self.port_alive(out_port):  # pragma: no cover - guarded earlier
            raise RuntimeError(f"node {self.node}: forwarding over the dead "
                               f"port {out_port}")
        down, down_ivs = self._down[out_port]
        target = down_ivs[out_vc]
        full = len(target.buffer) + len(target.incoming) >= target.capacity
        if full:  # pragma: no cover - credit check guards this
            raise RuntimeError(
                f"buffer overflow: node {self.node} -> {down.node} "
                f"port {self.ports[out_port].neighbor_port} vc {out_vc}")
        target.incoming.append(flit)
        down.n_flits += 1
        down._has_incoming = True
        net._active.add(down.node)
        net.stats.flit_hops += 1
        metrics = net.metrics
        if metrics is not None:
            metrics.count_link(self.node, down.node)

    # -- fault handling -----------------------------------------------------------

    def worms_using_port(self, pid: int) -> set[int]:
        """Message ids of worms currently assigned to output ``pid``."""
        out = set()
        for iv in self._ivs:
            if iv.state == ACTIVE and iv.out_port == pid and iv.header:
                out.add(iv.header.msg_id)
        return out

    def purge_message(self, msg_id: int) -> int:
        """Remove every flit of a message from this router; returns the
        number of flits dropped.  Used by the 'harsh' fault mode."""
        dropped = 0
        for iv in self._ivs:
            before = len(iv.buffer) + len(iv.incoming)
            iv.buffer = deque(f for f in iv.buffer if f.msg_id != msg_id)
            iv.incoming = [f for f in iv.incoming if f.msg_id != msg_id]
            dropped += before - len(iv.buffer) - len(iv.incoming)
            if iv.header is not None and iv.header.msg_id == msg_id:
                if iv.out_port is not None:
                    ov = self.output_vcs[iv.out_port][iv.out_vc]
                    if ov.owner == (iv.port, iv.vc):
                        ov.owner = None
                iv.release_worm()
            elif iv.state != IDLE and iv.header is None:  # pragma: no cover
                iv.release_worm()
        self.n_flits -= dropped
        return dropped

    def occupancy(self) -> int:
        return self.n_flits
