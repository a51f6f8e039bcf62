"""Health watchdog: structured diagnosis of a stalled network.

When no flit moves for ``deadlock_threshold`` cycles, the network used
to raise a bare ``DeadlockError`` string — useless for debugging a
routing algorithm or a chaos scenario.  This module snapshots the stall
instead:

* every **stalled worm**: where its head sits (node, input port/VC),
  its allocation state, the output it holds or wants, and which worms
  it is waiting on;
* the **holding nodes** — routers with flits parked in them;
* the **blocking cycle**, if one exists, found in the runtime wait-for
  graph over worms.  The cycle is also reported as the channel chain
  ``(node, out_port, vc)`` — the same channel vocabulary as the static
  CDG analysis in :mod:`repro.analysis.deadlock`, so a runtime cycle
  can be cross-checked against the algorithm's dependency graph.

A stall with pending fault detections or an in-flight diagnosis flood
is *expected* (worms legitimately park on a dying link until the
Information Units confirm it); the network suppresses the watchdog
while either is outstanding and the diagnosis records it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .router import ACTIVE, LOCAL, ROUTED

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

Channel = tuple[int, int, int]    # (node, out_port, vc) — as in analysis


@dataclass
class StalledWorm:
    """One worm's head position and blocking relation at stall time."""

    msg_id: int
    src: int
    dst: int
    node: int                     # router holding the head
    in_port: int
    in_vc: int
    state: str                    # router allocation state of the head VC
    flits_here: int               # flits of this worm buffered at node
    out_port: int | None = None   # held (ACTIVE) or first-wanted (ROUTED)
    out_vc: int | None = None
    waiting_on: list[int] = field(default_factory=list)   # msg_ids
    reason: str = ""              # "contended" | "dead-port" | "no-route"

    def held_channel(self) -> Channel | None:
        if self.state == ACTIVE and self.out_port is not None \
                and self.out_port != LOCAL:
            return (self.node, self.out_port, self.out_vc or 0)
        return None


@dataclass
class StallDiagnosis:
    """Structured picture of why the network stopped making progress."""

    cycle: int
    last_progress: int
    flits_in_flight: int
    worms: list[StalledWorm]
    holding_nodes: list[int]
    blocking_cycle: list[int] | None          # msg_ids around the cycle
    cycle_channels: list[Channel] | None      # their held channels
    pending_detections: int = 0
    diagnosis_in_flight: bool = False

    def summary(self) -> dict:
        return {
            "cycle": self.cycle,
            "last_progress": self.last_progress,
            "flits_in_flight": self.flits_in_flight,
            "stalled_worms": len(self.worms),
            "holding_nodes": self.holding_nodes,
            "blocking_cycle": self.blocking_cycle,
            "cycle_channels": self.cycle_channels,
            "pending_detections": self.pending_detections,
            "diagnosis_in_flight": self.diagnosis_in_flight,
        }

    def describe(self) -> str:
        lines = [
            f"no progress since cycle {self.last_progress} "
            f"(now {self.cycle}) with {self.flits_in_flight} flits in "
            f"flight on {len(self.holding_nodes)} nodes",
        ]
        for w in sorted(self.worms, key=lambda w: w.msg_id):
            where = (f"out={w.out_port}/vc{w.out_vc}"
                     if w.out_port is not None else "unrouted")
            waits = (f" waiting on {sorted(set(w.waiting_on))}"
                     if w.waiting_on else "")
            lines.append(
                f"  worm {w.msg_id} ({w.src}->{w.dst}) at node {w.node} "
                f"in={w.in_port}/vc{w.in_vc} [{w.state}] {where} "
                f"({w.reason}){waits}")
        if self.blocking_cycle:
            chain = " -> ".join(str(m) for m in self.blocking_cycle)
            lines.append(f"  blocking cycle: {chain} -> "
                         f"{self.blocking_cycle[0]}")
            if self.cycle_channels:
                lines.append("  cycle channels (node,out_port,vc): "
                             + ", ".join(map(str, self.cycle_channels)))
        else:
            lines.append("  no wait-for cycle: the stall is a resource "
                         "starvation or an unconfirmed fault, not a "
                         "classic deadlock")
        if self.pending_detections:
            lines.append(f"  ({self.pending_detections} fault detections "
                         f"still pending)")
        return "\n".join(lines)


def diagnose_stall(network: "Network") -> StallDiagnosis:
    """Snapshot every stalled worm and find the blocking cycle (if any)
    in the runtime wait-for graph."""
    # on the stall path only: the analysis package imports the network
    from ..analysis.deadlock import find_cycle
    worms: dict[int, StalledWorm] = {}
    #: every channel each worm's ACTIVE segments hold (a worm spans
    #: several routers; the kept StalledWorm entry is only its front)
    held: dict[int, list[Channel]] = {}
    holding: set[int] = set()

    def owner_msg(router, pid: int, vc: int) -> int | None:
        """msg_id of the worm currently blocking output (pid, vc)."""
        ov = router.output_vcs[pid][vc]
        if ov.owner is not None:
            holder = router.input_vcs[ov.owner[0]][ov.owner[1]]
            if holder.header is not None:
                return holder.header.msg_id
            return None
        if pid == LOCAL:
            return None
        down_iv = router._down[pid][1][vc]
        if len(down_iv.buffer) + len(down_iv.incoming) >= down_iv.capacity:
            front = down_iv.buffer[0] if down_iv.buffer else None
            return front.msg_id if front is not None else None
        return None

    for router in network.routers:
        if router.n_flits == 0:
            continue
        holding.add(router.node)
        for iv in router._ivs:
            n_here = len(iv.buffer) + len(iv.incoming)
            if n_here == 0 and iv.state not in (ROUTED, ACTIVE):
                continue
            hdr = iv.header
            if hdr is None:
                front = iv.buffer[0] if iv.buffer else None
                if front is None or front.header is None:
                    continue   # body flits mid-stream; head is elsewhere
                hdr = front.header
            w = StalledWorm(
                msg_id=hdr.msg_id, src=hdr.src, dst=hdr.dst,
                node=router.node, in_port=iv.port, in_vc=iv.vc,
                state=iv.state, flits_here=n_here)
            if iv.state == ACTIVE:
                w.out_port, w.out_vc = iv.out_port, iv.out_vc
                if iv.out_port != LOCAL \
                        and not router.port_alive(iv.out_port):
                    w.reason = "dead-port"
                else:
                    w.reason = "contended"
                    blocker = owner_msg(router, iv.out_port, iv.out_vc or 0)
                    if blocker is not None and blocker != hdr.msg_id:
                        w.waiting_on.append(blocker)
            elif iv.state == ROUTED and iv.decision is not None:
                cands = iv.decision.candidates
                if cands:
                    w.out_port, w.out_vc = cands[0]
                    w.reason = "contended"
                    for pid, vc in cands:
                        blocker = owner_msg(router, pid, vc)
                        if blocker is not None and blocker != hdr.msg_id:
                            w.waiting_on.append(blocker)
                else:
                    w.reason = "no-route"
            else:
                w.reason = "contended"
            if (ch := w.held_channel()) is not None:
                held.setdefault(hdr.msg_id, []).append(ch)
            # one entry per worm: a worm spans several routers, one
            # segment per hop.  Keep the *front* segment (the one whose
            # buffer still holds the head flit — where the worm's next
            # move is decided) and union the wait-for edges from every
            # segment, so an upstream ACTIVE tail seen first cannot
            # shadow the head's blockers.
            is_front = any(f.is_head for f in list(iv.buffer)
                           + list(iv.incoming))
            prev = worms.get(hdr.msg_id)
            if prev is None:
                worms[hdr.msg_id] = w
            else:
                keep, other = (w, prev) if is_front else (prev, w)
                keep.waiting_on = sorted(set(keep.waiting_on)
                                         | set(other.waiting_on))
                keep.flits_here = prev.flits_here + w.flits_here
                worms[hdr.msg_id] = keep

    graph = {m: [b for b in w.waiting_on if b in worms]
             for m, w in worms.items()}
    closed = find_cycle(graph)
    cyc = closed[:-1] if closed else None        # open: no repeat
    channels = None
    if cyc:
        channels = [ch for m in cyc for ch in held.get(m, [])]
    return StallDiagnosis(
        cycle=network.cycle,
        last_progress=network._last_progress,
        flits_in_flight=network._flits_in_flight(),
        worms=list(worms.values()),
        holding_nodes=sorted(holding),
        blocking_cycle=cyc,
        cycle_channels=channels,
        pending_detections=len(network._pending_detections),
        diagnosis_in_flight=bool(network.diagnosis is not None
                                 and network.diagnosis.pending()),
    )
