"""Hop-by-hop fault-diagnosis protocol: per-node fault views.

The paper's assumption iv says routers learn of a fault through a
diagnosis phase before any routing state is recomputed.  The simulator
historically short-circuited that phase: one global ``FaultState`` was
shared by every router, so the instant a fault was confirmed *all*
nodes knew.  This module models the diagnosis phase explicitly:

* every node owns a **fault view** — a private :class:`FaultState`
  recording the faults this node has been *notified* of;
* when a fault is confirmed at its detection site (the adjacent
  Information Units, after the heartbeat ``detection_delay``), a
  notification **floods hop-by-hop** over the surviving links at a
  configurable speed (``diagnosis_hop_delay`` cycles per hop — the
  bounded-delay information channel of paper Figure 3);
* a node's view is updated when the notification reaches it; the
  network treats the fault as **globally diagnosed** (and reruns the
  routing algorithm's distributed recomputation) once the flood has
  reached every node it can reach.

Nodes cut off from the detection site by the fault pattern itself never
learn of the event — exactly the partition behaviour a real flooding
protocol has.  ``diagnosis_hop_delay=0`` disables the engine entirely
and reproduces the legacy instant-knowledge behaviour bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..obs import events as trace_ev
from ..obs.tracer import NULL_TRACER
from .faults import FaultEvent, FaultState
from .topology import Topology


def _event_payload(event: FaultEvent) -> dict:
    """JSON-able trace payload for a fault event (the key is ``fault``,
    not ``kind`` — ``kind`` names the trace-event type itself)."""
    target = (list(event.target) if event.kind == "link"
              else int(event.target))
    return {"fault": event.kind, "target": target}


class DiagnosisEngine:
    """Schedules and delivers fault-notification floods.

    The engine owns one :class:`FaultState` view per node.  Floods are
    precomputed at confirmation time (BFS distance from the detection
    sites over the currently healthy links) and delivered from a heap —
    cost is O(nodes) per fault event, zero per quiet cycle.
    """

    def __init__(self, topology: Topology, ground_truth: FaultState,
                 hop_delay: int, tracer=None):
        if hop_delay < 1:
            raise ValueError("diagnosis hop delay must be >= 1 cycle")
        self.topology = topology
        self.faults = ground_truth       # live reference, never mutated here
        self.hop_delay = hop_delay
        self.tracer = NULL_TRACER if tracer is None else tracer
        # the views share one component labelling per distinct fault set
        labels: dict = {}
        self.views: list[FaultState] = [
            FaultState(topology, shared_labels=labels)
            for _ in topology.nodes()]
        # (deliver_cycle, seq, node, event); seq keeps the heap stable
        self._heap: list[tuple[int, int, int, FaultEvent]] = []
        self._seq = 0
        #: deliveries still owed per in-flight event
        self._remaining: dict[FaultEvent, int] = {}
        #: nodes each in-flight event will have reached on completion
        self._reached: dict[FaultEvent, list[int]] = {}
        #: (event, node) -> cycle the node's view confirms the event
        #: (absent: the node never learns of it)
        self._eta: dict[tuple[FaultEvent, int], int] = {}
        #: bumped whenever any view changes; consumers cache against it
        self.version = 0

    # -- queries -------------------------------------------------------

    def view(self, node: int) -> FaultState:
        return self.views[node]

    def pending(self) -> bool:
        return bool(self._heap)

    def eta(self, node: int, event: FaultEvent) -> int | None:
        """Cycle at which ``node``'s view confirms ``event`` (past or
        future), or None if the notification can never reach it."""
        return self._eta.get((event, node))

    # -- flood lifecycle -----------------------------------------------

    def seed_boot(self, event: FaultEvent) -> None:
        """Faults present at boot are already diagnosed everywhere (the
        detection machinery models *dynamic* failures only)."""
        for node, view in enumerate(self.views):
            view.apply(event)
            self._eta[(event, node)] = 0
        self.version += 1

    def start_flood(self, event: FaultEvent, cycle: int) -> int:
        """Begin flooding a confirmed fault from its detection sites;
        returns the cycle the flood will have converged."""
        sites = self._detection_sites(event)
        dist = self._bfs_distances(sites)
        reached = []
        last = cycle
        for node, d in dist.items():
            when = cycle + d * self.hop_delay
            heappush(self._heap, (when, self._seq, node, event))
            self._seq += 1
            self._eta[(event, node)] = when
            reached.append(node)
            if when > last:
                last = when
        self._remaining[event] = len(reached)
        self._reached[event] = reached
        tr = self.tracer
        if tr.enabled:
            tr.emit(trace_ev.FAULT_FLOOD_START, sites=sites,
                    nodes=len(reached), converges=last,
                    **_event_payload(event))
        return last

    def deliver_due(self, cycle: int) -> list[tuple[FaultEvent, list[int]]]:
        """Apply every notification due by ``cycle`` to its node view;
        returns the events whose floods completed, with the nodes each
        one reached."""
        completed: list[tuple[FaultEvent, list[int]]] = []
        tr = self.tracer
        while self._heap and self._heap[0][0] <= cycle:
            _, _, node, event = heappop(self._heap)
            self.views[node].apply(event)
            self.version += 1
            if tr.enabled:
                tr.emit(trace_ev.FAULT_FLOOD_NODE, node=node,
                        **_event_payload(event))
            self._remaining[event] -= 1
            if self._remaining[event] == 0:
                del self._remaining[event]
                completed.append((event, self._reached.pop(event)))
        return completed

    # -- flood geometry ------------------------------------------------

    def _detection_sites(self, event: FaultEvent) -> list[int]:
        """The nodes whose Information Units detect the event directly:
        a dying link's two endpoints, a dying node's live neighbours."""
        if event.kind == "link":
            a, b = event.target  # type: ignore[misc]
            return [n for n in (a, b) if self.faults.node_ok(n)]
        node = int(event.target)  # type: ignore[arg-type]
        return [nb for nb in self.topology.neighbors(node)
                if self.faults.node_ok(nb)]

    def _bfs_distances(self, sites: list[int]) -> dict[int, int]:
        """Hop distance from the nearest detection site, flooding only
        over links that are healthy in the *ground truth* (a
        notification cannot cross a dead link)."""
        dist: dict[int, int] = {}
        queue: deque[int] = deque()
        for s in sites:
            if s not in dist:
                dist[s] = 0
                queue.append(s)
        link_ok = self.faults.link_ok
        ports = self.topology.ports
        while queue:
            cur = queue.popleft()
            d = dist[cur] + 1
            for p in ports(cur).values():
                nb = p.neighbor
                if nb not in dist and link_ok(cur, nb):
                    dist[nb] = d
                    queue.append(nb)
        return dist
