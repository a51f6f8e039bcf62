"""The network: routers + links + fault handling + the cycle loop.

One ``Network.step()`` advances every router through the cycle phases:

1. flush staged incoming flits into buffers (1-cycle link latency),
2. inject source-queue flits through local ports,
3. routing stage (decision latency in interpretation steps),
4. virtual-channel + switch allocation, flit transfers, ejection,
5. fault schedule processing and progress watchdog.

Fault handling implements the paper's assumption iv ("no message is
affected during the diagnosis phase"): in ``quiesce`` mode injection
pauses and the network drains before a dynamic fault is applied and the
routing algorithm's distributed state is recomputed atomically.  The
``harsh`` mode instead rips up worms caught on the dying link — the
situation the paper notes must otherwise be solved by re-injection.

The reliability layer (all opt-in, see :class:`~repro.sim.config.
SimConfig`) refines the harsh mode into an end-to-end story:

* ``diagnosis_hop_delay`` replaces the instant global fault knowledge
  with per-node fault views updated by a hop-by-hop notification flood
  (:mod:`repro.sim.diagnosis`); the algorithm's distributed state is
  recomputed when the flood converges;
* ``retry_limit``/``retry_backoff`` return ripped-up or stranded
  messages to their source and retransmit them with exponential
  backoff once the source's local view confirms the fault, with
  dead-letter accounting when the attempt cap is exhausted;
* a stall raises a :class:`DeadlockError` carrying a structured
  :class:`~repro.sim.watchdog.StallDiagnosis` instead of a bare string.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from ..obs import events as trace_ev
from ..obs.tracer import NULL_TRACER
from .config import SimConfig
from .diagnosis import DiagnosisEngine
from .faults import FaultEvent, FaultSchedule, FaultState
from .flit import Flit, Message
from .router import ACTIVE, IDLE, LOCAL, Router
from .stats import StatsCollector
from .arbiter import Arbiter, make_arbiter
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..routing.base import RoutingAlgorithm
    from .watchdog import StallDiagnosis


class DeliveryError(RuntimeError):
    """A flit was ejected at a node other than its destination —
    always a routing-algorithm bug, never a legitimate outcome."""


class DeadlockError(RuntimeError):
    """No flit moved for ``deadlock_threshold`` cycles while worms were
    in flight — a routing-algorithm deadlock (or a livelock so slow it
    is indistinguishable from one).  ``diagnosis`` carries the
    structured :class:`~repro.sim.watchdog.StallDiagnosis` when the
    stall happened inside a live network (None for e.g. a failed
    quiesce drain guard)."""

    def __init__(self, message: str,
                 diagnosis: "StallDiagnosis | None" = None):
        super().__init__(message)
        self.diagnosis = diagnosis


def _fault_payload(event: FaultEvent) -> dict:
    """JSON-able trace payload for a fault event (the key is ``fault``,
    not ``kind`` — ``kind`` names the trace-event type itself)."""
    target = (list(event.target) if event.kind == "link"
              else int(event.target))
    return {"fault": event.kind, "target": target}


@dataclass
class _SourceState:
    queue: deque = field(default_factory=deque)     # pending Messages
    current: list[Flit] = field(default_factory=list)  # worm being injected
    current_msg: Message | None = None


class Network:
    #: which engine implements the data path ("object" here; the
    #: batched subclass overrides it) — lets runners and reports record
    #: what actually ran after build_network()'s fallback rules
    engine_name = "object"

    def __init__(self, topology: Topology, algorithm: "RoutingAlgorithm",
                 config: SimConfig | None = None,
                 arbiter: str | Arbiter = "round_robin",
                 tracer=None, metrics=None):
        algorithm.check_topology(topology)
        self.topology = topology
        self.algorithm = algorithm
        self.config = config or SimConfig()
        if self.config.backup_routes:
            # LFA-style fast reroute: wrap the algorithm with its
            # precompiled backup subbases now — before any failure —
            # so _confirm_fault can arm them with a pure set insert
            from ..routing.backup import FastReroute
            if not isinstance(algorithm, FastReroute):
                algorithm = FastReroute(algorithm, topology)
            self.algorithm = algorithm
        # output-selection policy over each decision's legal candidate
        # list (repro.routing.select).  None for the default
        # "deterministic": the route stage then skips the hook with one
        # attribute check, keeping the seed behaviour bit-identical.
        self.policy = None
        if self.config.policy != "deterministic":
            from ..routing.select import make_policy
            self.policy = make_policy(self.config.policy,
                                      seed=self.config.policy_seed)
            self.policy.reset(self)
        # observability (see repro.obs): the tracer is always present —
        # NULL_TRACER's enabled=False keeps every emission site to one
        # attribute check; metrics is None unless a timeseries is
        # attached
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        self.faults = FaultState(topology)
        # the routers' *knowledge* of the fault set: an alias of the
        # ground truth unless a detection delay or a per-node diagnosis
        # protocol is configured, in which case the Information Units
        # confirm faults only after the heartbeat timeout (paper
        # Fig. 3: "they could produce and check heartbeat messages")
        # and/or the notification flood
        if self.config.detection_delay or self.config.diagnosis_hop_delay:
            self.known_faults = FaultState(topology)
        else:
            self.known_faults = self.faults
        # per-node fault views updated by hop-by-hop flooding; None
        # means instant global knowledge (fault_view() then answers
        # every node with known_faults)
        self.diagnosis: DiagnosisEngine | None = None
        if self.config.diagnosis_hop_delay:
            self.diagnosis = DiagnosisEngine(
                topology, self.faults, self.config.diagnosis_hop_delay,
                tracer=self.tracer)
        self._pending_detections: list[tuple[int, object]] = []
        # source-retransmission queue: (release_cycle, seq, src, dst,
        # length, header fields) min-heap; seq keeps ties stable
        self._pending_retries: list[tuple] = []
        self._retry_seq = itertools.count()
        #: root msg_ids that exhausted their retry budget (or whose
        #: source can never learn of / route around the fault)
        self.dead_letters: list[int] = []
        #: per dynamic harsh-mode fault: occurrence, confirmation
        #: (detection at the site) and convergence (global knowledge)
        #: cycles — the raw material of the recovery-gap metrics
        self.fault_log: list[dict] = []
        self._fault_log_ix: dict = {}
        self.stats = StatsCollector()
        if self.config.backup_routes:
            # conditional so summaries of non-backup runs stay
            # bit-identical (same convention as engine_fallback)
            self.stats.reroute = {"worms_healed": 0, "worms_absorbed": 0,
                                  "backup_route_decisions": 0}
        if metrics is not None:
            # summaries grow a "metrics" key only when a timeseries is
            # attached — the unobserved summary stays bit-identical
            self.stats.timeseries = metrics
        self.cycle = 0
        # advances whenever buffer contents or VC ownership change;
        # routers key their output_load memo on it
        self._load_token = 0
        # advances whenever the routing algorithm's fault knowledge is
        # recomputed; non-adaptive blocked heads re-route only then
        self.route_epoch = 0
        self.routers: list[Router] = []
        self._make_routers()
        # nodes whose router may hold flits / whose source may inject —
        # the active sets the per-cycle phases iterate (stale entries
        # are pruned lazily; see _live_routers)
        self._active: set[int] = set()
        self._active_sources: set[int] = set()
        self.sources = [_SourceState() for _ in topology.nodes()]
        # private message-id allocator: every network numbers its
        # messages from 0, so concurrent networks in one process (and
        # sweep points fanned out over worker processes) produce
        # identical, isolated id sequences
        self._msg_ids = itertools.count()
        self.messages: dict[int, Message] = {}
        self.fault_schedule = FaultSchedule()
        self.traffic = None
        self._eject_progress: dict[int, int] = {}  # msg_id -> flits ejected
        self._last_progress = 0
        self._injection_paused = False
        self.arbiter = (arbiter if isinstance(arbiter, Arbiter)
                        else make_arbiter(arbiter))
        algorithm.reset(self)

    def _make_routers(self) -> None:
        """Build the per-node router state into ``self.routers``.  The
        batched engine (:mod:`repro.sim.batched`) overrides this to
        construct its struct-of-arrays state plus router facades."""
        self.routers = [Router(self, n) for n in self.topology.nodes()]
        for r in self.routers:
            r.finalize()

    # -- configuration ------------------------------------------------------

    def attach_traffic(self, traffic) -> None:
        self.traffic = traffic

    def schedule_faults(self, schedule: FaultSchedule) -> None:
        schedule.validate(self.topology)
        self.fault_schedule = schedule
        for ev in schedule.due(0):
            self._apply_fault_now(ev)
            if self.known_faults is not self.faults:
                # faults present at boot are already diagnosed: the
                # detection delay / flood model *dynamic* failures only
                self.known_faults.apply(ev)
            if self.diagnosis is not None:
                self.diagnosis.seed_boot(ev)
        if schedule.due(0):
            self.route_epoch += 1
            self.algorithm.on_fault_update(self)

    def fault_view(self, node: int) -> FaultState:
        """The fault set as *this node* currently knows it.  With the
        diagnosis protocol disabled every node shares the global
        ``known_faults`` (instant flooding)."""
        if self.diagnosis is not None:
            return self.diagnosis.views[node]
        return self.known_faults

    def set_warmup(self, cycles: int) -> None:
        self.stats.warmup = cycles

    # -- message injection -----------------------------------------------------

    def offer(self, src: int, dst: int, length: int, **fields) -> Message | None:
        """Create a message at a source node.  Honours assumption iii:
        messages to dead or disconnected destinations are refused and
        counted as unroutable.  With the per-node diagnosis protocol
        the *source's local view* does the screening — a source that
        has not yet heard of a fault will happily inject into it (and
        the message is then ripped up and retransmitted)."""
        tr = self.tracer
        if not self.faults.node_ok(src):
            self.stats.count_unroutable()
            if tr.enabled:
                tr.emit(trace_ev.WORM_BLOCKED, src=src, dst=dst,
                        reason="source_dead")
            return None
        screen = (self.faults if self.diagnosis is None
                  else self.diagnosis.views[src])
        if not screen.node_ok(dst) or not screen.connected(src, dst):
            self.stats.count_unroutable()
            if tr.enabled:
                tr.emit(trace_ev.WORM_BLOCKED, src=src, dst=dst,
                        reason="destination_unreachable")
            return None
        if not self.algorithm.accepts(src, dst):
            self.stats.count_unroutable()
            if tr.enabled:
                tr.emit(trace_ev.WORM_BLOCKED, src=src, dst=dst,
                        reason="algorithm_refused")
            return None
        msg = Message.create(src, dst, length, self.cycle,
                             msg_id=next(self._msg_ids), **fields)
        self.messages[msg.header.msg_id] = msg
        self.sources[src].queue.append(msg)
        self._active_sources.add(src)
        if tr.enabled:
            tr.emit(trace_ev.WORM_CREATED, msg_id=msg.header.msg_id,
                    src=src, dst=dst, length=length)
        return msg

    def _inject_phase(self) -> None:
        vc = self.config.injection_vc
        # ascending node order: the order a scan of every source visits
        for node in sorted(self._active_sources):
            src = self.sources[node]
            if not src.current and not src.queue:
                self._active_sources.discard(node)
                continue
            if not self.faults.node_ok(node):
                continue
            if not src.current and src.queue:
                if self._injection_paused:
                    # quiescing for a fault: no new worms start, but
                    # half-injected worms must finish entering or the
                    # network can never drain
                    continue
                msg = src.queue.popleft()
                src.current = msg.flits()
                src.current_msg = msg
            if not src.current:
                continue
            router = self.routers[node]
            iv = router.input_vcs[LOCAL][vc]
            if len(iv.buffer) + len(iv.incoming) < iv.capacity:
                flit = src.current.pop(0)
                iv.incoming.append(flit)  # enters the buffer next cycle
                router.n_flits += 1
                router._has_incoming = True
                self._active.add(node)
                if flit.is_head:
                    assert src.current_msg is not None
                    src.current_msg.injected = self.cycle
                    tr = self.tracer
                    if tr.enabled:
                        tr.emit(trace_ev.WORM_INJECT, msg_id=flit.msg_id,
                                node=node)
                if not src.current:
                    src.current_msg = None

    # -- ejection ------------------------------------------------------------------

    def eject(self, node: int, flit: Flit, cycle: int) -> None:
        self.stats.count_delivered_flit()
        msg = self.messages.get(flit.msg_id)
        if msg is None:  # pragma: no cover - defensive
            return
        if flit.is_tail:
            msg.delivered = cycle
            msg.hops = msg.header.path_len
            if msg.header.dst != node:
                raise DeliveryError(
                    f"message {msg.header.msg_id} for node {msg.header.dst} "
                    f"was delivered at node {node}")
            self.stats.count_message(msg)
            tr = self.tracer
            if tr.enabled:
                tr.emit(trace_ev.WORM_DELIVER, msg_id=msg.header.msg_id,
                        src=msg.header.src, dst=node,
                        injected=msg.injected, created=msg.header.created,
                        hops=msg.hops,
                        attempt=int(msg.header.fields.get("attempt", 0)))
            first_dropped = msg.header.fields.get("first_dropped")
            if first_dropped is not None:
                # a retransmitted copy made it: time-to-recover is the
                # first rip-up of the original to this delivery
                self.stats.count_recovery(cycle - int(first_dropped))

    # -- cycle loop ---------------------------------------------------------------------

    def step(self) -> None:
        self.stats.now = self.cycle
        tr = self.tracer
        if tr.enabled:
            tr.now = self.cycle
        if self.fault_schedule.events:
            for ev in self.fault_schedule.due(self.cycle):
                if self.cycle == 0:
                    continue  # applied by schedule_faults
                self.apply_fault(ev)
        if self._pending_detections:
            due = [e for c, e in self._pending_detections if c <= self.cycle]
            self._pending_detections = [
                (c, e) for c, e in self._pending_detections if c > self.cycle]
            for ev in due:
                self._confirm_fault(ev)
        if self.diagnosis is not None and self.diagnosis.pending():
            for ev, reached in self.diagnosis.deliver_due(self.cycle):
                # the flood converged: the fault is globally diagnosed
                self.known_faults.apply(ev)
                self.route_epoch += 1
                self._last_progress = self.cycle
                if tr.enabled:
                    tr.emit(trace_ev.FAULT_CONVERGED,
                            nodes_reached=len(reached),
                            **_fault_payload(ev))
                self.algorithm.on_fault_update(self, nodes=reached)
                rec = self._fault_log_ix.get(ev)
                if rec is not None:
                    rec["converged"] = self.cycle
                if self.config.backup_routes and ev.kind == "link":
                    # slow path converged: the globally reconfigured
                    # primary rules replace the backup subbase
                    self.algorithm.disarm(ev.target)
        if self._pending_retries:
            self._release_due_retries()
        moved = self._advance(with_traffic=True)
        if moved:
            self._last_progress = self.cycle
        elif self._flits_in_flight() and (
                self.cycle - self._last_progress
                > self.config.deadlock_threshold) \
                and not self._stall_excused():
            diag = self._diagnose_stall()
            if tr.enabled:
                tr.emit(trace_ev.SIM_DEADLOCK,
                        algorithm=self.algorithm.name,
                        stalled=len(diag.worms))
            raise DeadlockError(
                f"algorithm {self.algorithm.name}: " + diag.describe(),
                diagnosis=diag)
        metrics = self.metrics
        if metrics is not None and self.cycle % metrics.stride == 0:
            metrics.sample(self)
        self.cycle += 1

    def _advance(self, with_traffic: bool) -> int:
        """One pass through the data-path phases: flush, inject, offer
        traffic, route stage, allocation/transfer.  Returns the number
        of flits moved.  The batched engine overrides this with its
        array kernels; everything around it (fault machinery, watchdog,
        drain loops) is engine-agnostic."""
        routers = self._live_routers()
        for r in routers:
            r.flush_incoming()
        self._inject_phase()
        if with_traffic and self.traffic is not None \
                and not self._injection_paused:
            for src, dst, length in self.traffic.tick(self.cycle):
                self.offer(src, dst, length)
        for r in routers:
            r.route_stage(self.cycle)
        return self._allocate_and_transfer(routers)

    def _stall_excused(self) -> bool:
        """Worms legitimately park while a fault detection or a
        notification flood is outstanding — the watchdog waits for the
        diagnosis machinery to finish before calling a stall a
        deadlock."""
        if self._pending_detections:
            return True
        return self.diagnosis is not None and self.diagnosis.pending()

    def _diagnose_stall(self) -> "StallDiagnosis":
        from .watchdog import diagnose_stall
        return diagnose_stall(self)

    def _live_routers(self) -> list[Router]:
        """The routers that can act this cycle: only those holding flits,
        in ascending node order — the same relative order as a scan of
        every router, and flit-free routers contribute nothing to any
        phase, so the schedule is cycle-accurate.  Routers that gain
        their first flit mid-cycle (injection or a neighbour's grant)
        need no phase this cycle: the flit sits in ``incoming`` until
        the next flush."""
        routers = self.routers
        active = self._active
        stale = [n for n in active if routers[n].n_flits == 0]
        if stale:
            active.difference_update(stale)
        return [routers[n] for n in sorted(active)]

    def _allocate_and_transfer(self, routers: list[Router] | None = None
                               ) -> int:
        moved = 0
        node_ok = self.faults.node_ok
        arbiter = self.arbiter
        # the stock round-robin arbiter's single-request outcome is a
        # pure pointer write we can inline; subclasses (oldest-first
        # keeps its pointer untouched for header-carrying requests) must
        # keep going through choose()
        plain_rr = type(arbiter) is Arbiter
        pointers = arbiter._pointers
        cycle = self.cycle
        for r in (self.routers if routers is None else routers):
            if not node_ok(r.node):
                continue
            requests = r.collect_requests()
            if not requests:
                continue
            if len(requests) == 1:
                # uncontended router: skip the grouping machinery (the
                # arbiter's round-robin pointer still advances exactly
                # as in the general path)
                req = requests[0]
                if plain_rr:
                    pointers[req.out_port] = req.in_port * 64 + req.in_vc + 1
                else:
                    arbiter.choose(req.out_port, requests)
                r.grant(req, cycle)
                moved += 1
                continue
            # every input VC files at most one request per cycle (see
            # collect_requests), so granting once per output group
            # automatically honours the one-flit-per-input constraint
            by_output: dict[int, list] = {}
            for req in requests:
                by_output.setdefault(req.out_port, []).append(req)
            tr = self.tracer
            for out_port in sorted(by_output):
                group = by_output[out_port]
                req = arbiter.choose(out_port, group)
                if tr.enabled and len(group) > 1:
                    tr.emit(trace_ev.LINK_ARB, node=r.node,
                            out_port=out_port,
                            winner=(req.header.msg_id
                                    if req.header is not None else None),
                            contenders=len(group))
                r.grant(req, cycle)
                moved += 1
        return moved

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def run_until_drained(self, max_cycles: int = 200_000) -> None:
        """Step until no flits remain anywhere — sources, pending
        retransmissions and the diagnosis machinery included."""
        for _ in range(max_cycles):
            if not self._flits_in_flight() and not self._pending_sources() \
                    and not self._pending_retries \
                    and not self._pending_detections \
                    and not (self.diagnosis is not None
                             and self.diagnosis.pending()):
                return
            self.step()
        diag = self._diagnose_stall()
        raise DeadlockError(f"network failed to drain within {max_cycles} "
                            f"cycles\n" + diag.describe(), diagnosis=diag)

    # -- fault application ------------------------------------------------------------------

    def apply_fault(self, event) -> None:
        if self.config.fault_mode == "quiesce":
            self._drain_for_fault()
            self._apply_fault_now(event)
            self.route_epoch += 1
            self.algorithm.on_fault_update(self)
            return
        # harsh mode: the physical fault is immediate ...
        self._apply_fault_now(event)
        rec = {"kind": event.kind,
               "target": (list(event.target) if event.kind == "link"
                          else int(event.target)),
               "cycle": self.cycle, "confirmed": None, "converged": None,
               "fast_reroute": bool(self.config.backup_routes
                                    and event.kind == "link")}
        self.fault_log.append(rec)
        self._fault_log_ix[event] = rec
        if self.config.detection_delay:
            # ... but the routers only learn of it after the heartbeat
            # timeout; worms caught on the link stall until then
            self._pending_detections.append(
                (self.cycle + self.config.detection_delay, event))
        else:
            self._confirm_fault(event)

    def _confirm_fault(self, event) -> None:
        """Detection completes at the fault site: rip up stalled worms,
        then either flood the notification (per-node diagnosis) or —
        with instant flooding — update the known fault set and
        recompute the distributed algorithm state right away."""
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.FAULT_DETECT, **_fault_payload(event))
        rec = self._fault_log_ix.get(event)
        if rec is not None:
            rec["confirmed"] = self.cycle
        backups = self.config.backup_routes and event.kind == "link"
        if backups:
            # fast path: the endpoints switch to the precompiled backup
            # subbase the moment detection completes — no flooding
            # round-trip.  Worms caught on the link are healed and
            # locally re-injected instead of ripped up.
            self.algorithm.arm(event.target)
        if self.diagnosis is not None:
            # flood first: rip-up schedules retries against the flood's
            # per-node arrival times (a source can only react to a fault
            # once its own view has heard of it)
            self.diagnosis.start_flood(event, self.cycle)
        if backups:
            self._heal_worms(event)
        else:
            self._rip_up_worms(event)
        self._last_progress = self.cycle   # diagnosis progress counts
        if self.diagnosis is not None:
            # known_faults/route_epoch update when the flood converges
            return
        if self.known_faults is not self.faults:
            self.known_faults.apply(event)
        self.route_epoch += 1
        self.algorithm.on_fault_update(self)
        if rec is not None:
            rec["converged"] = self.cycle
        if backups:
            self.algorithm.disarm(event.target)

    def _apply_fault_now(self, event) -> None:
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.FAULT_INJECT, **_fault_payload(event))
        self.faults.apply(event)
        if event.kind == "node":
            # a dead node's source queue and buffered flits are gone
            node = int(event.target)
            self.sources[node].queue.clear()
            self.sources[node].current = []
            self.sources[node].current_msg = None

    def _drain_for_fault(self) -> None:
        """Assumption iv: let in-flight messages complete before the
        fault takes effect (injection paused meanwhile)."""
        self._injection_paused = True
        guard = 0
        while (self._flits_in_flight()
               or any(s.current for s in self.sources)):
            self._step_drain()
            guard += 1
            if guard > self.config.deadlock_threshold * 10:
                raise DeadlockError("network failed to quiesce for a fault")
        self._injection_paused = False

    def _step_drain(self) -> None:
        self.stats.now = self.cycle
        tr = self.tracer
        if tr.enabled:
            tr.now = self.cycle
        self._advance(with_traffic=False)  # half-injected worms finish
        metrics = self.metrics
        if metrics is not None and self.cycle % metrics.stride == 0:
            metrics.sample(self)
        self.cycle += 1

    def _rip_up_worms(self, event) -> None:
        """'harsh' mode: kill worms using the dying link/node."""
        victims: set[int] = set()
        if event.kind == "link":
            a, b = event.target
            for node, pid_ok in ((a, b), (b, a)):
                router = self.routers[node]
                for pid, port in router.ports.items():
                    if port.neighbor == pid_ok:
                        victims |= router.worms_using_port(pid)
        else:
            node = int(event.target)
            router = self.routers[node]
            for vcs in router.input_vcs.values():
                for iv in vcs:
                    for f in list(iv.buffer) + list(iv.incoming):
                        victims.add(f.msg_id)
            for r in self.routers:
                for pid, port in r.ports.items():
                    if port.neighbor == node:
                        victims |= r.worms_using_port(pid)
        for msg_id in victims:
            self.drop_message(msg_id, event=event)

    # -- fast reroute: worm healing + local re-injection ---------------------

    def _heal_worms(self, event) -> None:
        """Fast-reroute counterpart of :meth:`_rip_up_worms` for a link
        fault: every worm caught mid-flight on the dead link is *split*
        at the break instead of killed.  The downstream fragment gets a
        dummy tail and finishes its journey (flits already past the
        break are not lost); the upstream remainder is absorbed and
        locally re-injected at the detecting endpoint as a fresh
        logical message, which the armed backup subbase routes around
        the fault."""
        a, b = event.target
        for node, far in ((a, b), (b, a)):
            router = self.routers[node]
            for pid, port in router.ports.items():
                if port.neighbor != far:
                    continue
                for iv in router._ivs:
                    if iv.state == ACTIVE and iv.out_port == pid \
                            and iv.header is not None:
                        self._heal_one(router, iv)

    def _heal_one(self, router, iv) -> None:
        msg_id = iv.header.msg_id
        msg = self.messages.get(msg_id)
        if msg is None:  # pragma: no cover - defensive
            return
        self._finish_fragment(router, iv, msg)
        n_rem = self._absorb_remainder(router, iv, msg_id)
        self._load_token += 1
        rr = self.stats.reroute
        if rr is not None:
            rr["worms_healed"] += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.WORM_HEALED, msg_id=msg_id,
                    node=router.node, remainder_flits=n_rem)
        fields = msg.header.fields
        copy = self.offer(
            router.node, msg.header.dst, n_rem + 1,
            healed_from=msg_id,
            first_dropped=int(fields.get("first_dropped", self.cycle)),
            orig_created=int(fields.get("orig_created",
                                        msg.header.created)))
        if copy is None:
            # the endpoint cannot re-inject (destination believed
            # dead / algorithm refusal): give up loudly, never silently
            self._dead_letter(int(fields.get("root_id", msg_id)))

    def _finish_fragment(self, router, iv, msg) -> None:
        """Walk the worm's occupancy chain beyond the break; mark its
        rearmost surviving flit as the tail so the fragment delivers
        and releases its channels normally.  Chain input VCs upstream
        of every remaining fragment flit would wait forever for flits
        that died with the link — force-release those.  When no
        fragment flit remains anywhere (everything but the tail was
        already ejected at the destination), the message is complete in
        all but name: mark it delivered."""
        msg_id = msg.header.msg_id
        chain: list[tuple] = []
        step = router._down.get(iv.out_port)
        if step is None:  # pragma: no cover - defensive
            return
        cur_r, cur_iv = step[0], step[1][iv.out_vc]
        while True:
            ours = (cur_iv.header is not None
                    and cur_iv.header.msg_id == msg_id)
            holds = any(f.msg_id == msg_id
                        for f in list(cur_iv.buffer) + cur_iv.incoming)
            if not ours and not holds:
                break
            chain.append((cur_r, cur_iv))
            if not (ours and cur_iv.state == ACTIVE) \
                    or cur_iv.out_port in (LOCAL, None):
                break
            nxt = cur_r._down.get(cur_iv.out_port)
            if nxt is None:  # pragma: no cover - defensive
                break
            cur_r, cur_iv = nxt[0], nxt[1][cur_iv.out_vc]
        for i, (r, civ) in enumerate(chain):
            flits = [f for f in list(civ.buffer) + civ.incoming
                     if f.msg_id == msg_id]
            if flits:
                flits[-1].is_tail = True
                for rr_, dead_iv in chain[:i]:
                    self._force_release(rr_, dead_iv)
                return
        for r, civ in chain:
            self._force_release(r, civ)
        if not msg.delivered:
            msg.delivered = self.cycle
            msg.hops = msg.header.path_len
            self.stats.count_message(msg)

    def _absorb_remainder(self, router, iv, msg_id: int) -> int:
        """Remove the upstream remainder of a split worm — every flit
        behind the break, the channels it holds, and any flits still
        waiting at the source — and return how many flits were
        absorbed."""
        n_rem = 0
        cur_r, cur_iv = router, iv
        while True:
            before = len(cur_iv.buffer) + len(cur_iv.incoming)
            cur_iv.buffer = deque(
                f for f in cur_iv.buffer if f.msg_id != msg_id)
            cur_iv.incoming = [
                f for f in cur_iv.incoming if f.msg_id != msg_id]
            removed = before - len(cur_iv.buffer) - len(cur_iv.incoming)
            n_rem += removed
            cur_r.n_flits -= removed
            in_port, in_vc = cur_iv.port, cur_iv.vc
            self._force_release(cur_r, cur_iv)
            if in_port == LOCAL:
                src = self.sources[cur_r.node]
                if src.current_msg is not None \
                        and src.current_msg.header.msg_id == msg_id:
                    n_rem += len(src.current)
                    src.current = []
                    src.current_msg = None
                return n_rem
            port = cur_r.ports[in_port]
            up_r = self.routers[port.neighbor]
            up_iv = next(
                (c for c in up_r._ivs
                 if c.state == ACTIVE and c.header is not None
                 and c.header.msg_id == msg_id
                 and c.out_port == port.neighbor_port
                 and c.out_vc == in_vc), None)
            if up_iv is None:
                # the tail already crossed into the VCs we cleaned:
                # nothing of the worm remains further upstream
                return n_rem
            cur_r, cur_iv = up_r, up_iv

    def _force_release(self, router, iv) -> None:
        if iv.out_port is not None and iv.out_vc is not None:
            ov = router.output_vcs[iv.out_port][iv.out_vc]
            if ov.owner == (iv.port, iv.vc):
                ov.owner = None
        iv.release_worm()

    def _absorb_and_reinject(self, msg: Message) -> None:
        """Backup-mode handling of a worm the algorithm declared stuck
        (typically mid-flight, against a remote fault its local
        knowledge has not converged on): absorb the whole worm where it
        stands and schedule a local re-injection with backoff, so the
        retry meets a (more) converged view.  A bounded number of local
        retries keeps livelock impossible; exhaustion dead-letters
        loudly."""
        msg_id = msg.header.msg_id
        where = msg.header.src
        for r in self.routers:
            for civ in r._ivs:
                if (civ.header is not None
                        and civ.header.msg_id == msg_id
                        and civ.state != ACTIVE) \
                        or (civ.state == IDLE and civ.buffer
                            and civ.buffer[0].msg_id == msg_id
                            and civ.buffer[0].is_head):
                    where = r.node
                    break
        for r in self.routers:
            r.purge_message(msg_id)
        src = self.sources[msg.header.src]
        if src.current_msg is msg:
            src.current = []
            src.current_msg = None
        msg.dropped = True
        msg.header.fields["stuck"] = True
        self.stats.messages_stuck += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.WORM_STUCK, msg_id=msg_id)
        fields = msg.header.fields
        root = int(fields.get("root_id", msg_id))
        retries = int(fields.get("local_retries", 0))
        if retries >= 3:
            self._dead_letter(root)
            return
        rr = self.stats.reroute
        if rr is not None:
            rr["worms_absorbed"] += 1
        if tr.enabled:
            tr.emit(trace_ev.WORM_ABSORBED, msg_id=msg_id, node=where,
                    retries=retries + 1)
        carry = {
            "retry_of": msg_id,
            "root_id": root,
            "local_retries": retries + 1,
            "first_dropped": int(fields.get("first_dropped", self.cycle)),
            "orig_created": int(fields.get("orig_created",
                                           msg.header.created)),
        }
        release = self.cycle + self.config.retry_backoff * (1 << retries)
        heappush(self._pending_retries,
                 (release, next(self._retry_seq), where,
                  msg.header.dst, msg.header.length, carry))

    def message_stuck(self, msg_id: int) -> None:
        """The routing algorithm declared a message permanently
        unroutable mid-flight (Condition-3 violation): remove it and
        count it separately from fault-ripped drops."""
        if self.config.backup_routes:
            msg_ = self.messages.get(msg_id)
            if msg_ is not None and not msg_.delivered:
                self._absorb_and_reinject(msg_)
                return
        for r in self.routers:
            r.purge_message(msg_id)
        msg = self.messages.get(msg_id)
        if msg is not None:
            src = self.sources[msg.header.src]
            if src.current_msg is msg:
                src.current = []
                src.current_msg = None
            msg.dropped = True
            msg.header.fields["stuck"] = True
        self.stats.messages_stuck += 1
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.WORM_STUCK, msg_id=msg_id)
        if msg is not None and self.config.retry_limit \
                and not msg.delivered:
            self._schedule_retry(msg)

    def drop_message(self, msg_id: int, event=None) -> None:
        """Remove a message killed mid-flight (harsh-mode rip-up).
        ``event`` is the fault that killed it, used to anchor the
        source-retransmission release to the cycle the *source's* view
        confirms that fault."""
        for r in self.routers:
            r.purge_message(msg_id)
        msg = self.messages.get(msg_id)
        if msg is None:  # pragma: no cover
            return
        src = self.sources[msg.header.src]
        if src.current_msg is msg:
            src.current = []
            src.current_msg = None
        msg.dropped = True
        self.stats.count_dropped()
        tr = self.tracer
        if tr.enabled:
            payload = {} if event is None else _fault_payload(event)
            tr.emit(trace_ev.WORM_DROP, msg_id=msg_id,
                    src=msg.header.src, dst=msg.header.dst, **payload)
        if msg.delivered:
            return
        if self.config.retry_limit:
            self._schedule_retry(msg, event=event)
        elif self.config.retransmit_dropped:
            # the re-injection recovery the paper sketches for messages
            # ripped up by a link fault; the copy records its original
            self.offer(msg.header.src, msg.header.dst, msg.header.length,
                       retry_of=msg.header.msg_id)

    # -- source retransmission ---------------------------------------------------

    def _schedule_retry(self, msg: Message, event=None) -> None:
        """Queue a dropped/stranded message for re-injection at its
        source.  The retransmission is released once (a) the source's
        local fault view has confirmed the killing fault — a real
        source cannot react to a fault it has not heard of — and (b)
        the exponential backoff for this attempt has elapsed."""
        hdr = msg.header
        fields = hdr.fields
        attempt = int(fields.get("attempt", 0)) + 1
        root = fields.get("root_id", hdr.msg_id)
        if attempt > self.config.retry_limit:
            self._dead_letter(root)
            return
        confirm = self.cycle
        if event is not None and self.diagnosis is not None:
            eta = self.diagnosis.eta(hdr.src, event)
            if eta is None:
                # the flood can never reach the source: it is cut off
                # from the fault site, hence from the destination too
                self._dead_letter(root)
                return
            confirm = max(confirm, eta)
        backoff = self.config.retry_backoff * (1 << (attempt - 1))
        carry = {
            "retry_of": hdr.msg_id,
            "root_id": root,
            "attempt": attempt,
            "first_dropped": int(fields.get("first_dropped", self.cycle)),
            "orig_created": int(fields.get("orig_created", hdr.created)),
        }
        heappush(self._pending_retries,
                 (confirm + backoff, next(self._retry_seq),
                  hdr.src, hdr.dst, hdr.length, carry))

    def _release_due_retries(self) -> None:
        while self._pending_retries \
                and self._pending_retries[0][0] <= self.cycle:
            _, _, src, dst, length, carry = heappop(self._pending_retries)
            self._release_retry(src, dst, length, carry)

    def _release_retry(self, src: int, dst: int, length: int,
                       carry: dict) -> None:
        root = carry["root_id"]
        if not self.faults.node_ok(src):
            # the source itself died while the retry was queued
            self._dead_letter(root)
            return
        view = self.fault_view(src)
        if not view.node_ok(dst) or not view.connected(src, dst) \
                or not self.algorithm.accepts(src, dst):
            # fail-stop faults are permanent: a destination the source's
            # view already knows to be dead/unreachable (or that the
            # algorithm's convex completion excludes) will never come
            # back — give up loudly instead of retrying forever
            self._dead_letter(root)
            return
        msg = Message.create(src, dst, length, self.cycle,
                             msg_id=next(self._msg_ids), **carry)
        self.messages[msg.header.msg_id] = msg
        self.sources[src].queue.append(msg)
        self._active_sources.add(src)
        self.stats.count_retried()
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.WORM_RETRY, msg_id=msg.header.msg_id,
                    root_id=root, src=src, dst=dst,
                    attempt=carry["attempt"])

    def _dead_letter(self, root_id: int) -> None:
        self.dead_letters.append(root_id)
        self.stats.count_dead_letter()
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.WORM_DEAD_LETTER, root_id=root_id)

    # -- queries ----------------------------------------------------------------------

    def _flits_in_flight(self) -> int:
        return sum(r.occupancy() for r in self.routers)

    def _pending_sources(self) -> int:
        return sum(len(s.queue) + len(s.current) for s in self.sources)

    def _metrics_active_routers(self) -> int:
        """Gauge behind the metrics timeseries' ``active_routers``
        column (the batched engine answers from its C-side mirror)."""
        return len(self._active)

    def in_flight(self) -> int:
        return self._flits_in_flight()

    def undelivered(self) -> list[Message]:
        return [m for m in self.messages.values()
                if m.delivered is None and not m.dropped]
