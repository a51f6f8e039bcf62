"""Simulation statistics: latency, throughput, decision steps.

Measurement windows follow interconnection-network practice: a warm-up
period is excluded, then latency is averaged over messages *created*
inside the measurement window and throughput over flits delivered in
it.  The per-message figures (latency, hops, the misrouted share) are
one reduction over the network's message ledger
(:class:`~repro.sim.flit.Ledger`), the same on both engines; the
counters are counted as they happen, because metrics sampling reads
them every stride.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .flit import M_MISROUTED


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


class DecisionDigest:
    """Canonical running digest of every routing decision in a run.

    Two simulations agree bit-for-bit on routing behaviour iff their
    digests match: each ``route_stage`` decision is folded in as
    ``node|msg_id|deliver|stuck|steps|(port,vc)...`` in the order the
    scheduler made them, so interpreter variants (compiled table, AST)
    and engines can be compared without storing full decision logs.
    """

    __slots__ = ("_hash", "count")

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0

    def update(self, node: int, msg_id: int, decision) -> None:
        parts = [str(node), str(msg_id), "1" if decision.deliver else "0",
                 "1" if decision.stuck else "0", str(decision.steps)]
        parts.extend(f"{p}.{v}" for p, v in decision.candidates)
        self._hash.update(("|".join(parts) + "\n").encode())
        self.count += 1

    def update_raw(self, data: bytes, lines: int) -> None:
        """Fold in pre-formatted decision lines (the batched engine's
        C-side formatter emits byte-identical lines in decision order
        and flushes them here once per cycle)."""
        self._hash.update(data)
        self.count += lines

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class StatsCollector:
    warmup: int = 0
    now: int = 0

    flit_hops: int = 0
    flits_delivered: int = 0
    flits_delivered_measured: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_unroutable: int = 0
    messages_stuck: int = 0
    messages_retried: int = 0
    messages_dead_lettered: int = 0
    decisions: int = 0
    decision_steps: int = 0
    max_decision_steps: int = 0
    #: delivery_cycle - first_drop_cycle of every message that was
    #: ripped up / stranded and later delivered by a retransmission
    _recovery_times: list[int] = field(default_factory=list)
    #: attached :class:`~repro.obs.metrics.MetricsTimeseries` (set by
    #: the network when one is configured; None keeps summaries
    #: bit-identical to the unobserved simulator)
    timeseries: object | None = None
    #: attached :class:`DecisionDigest` (opt-in, e.g. by the conformance
    #: harness; None keeps summaries bit-identical to undigested runs)
    digest: DecisionDigest | None = None
    #: why a ``SimConfig(engine="batched")`` request fell back to the
    #: object engine (set by :func:`repro.sim.batched.build_network`;
    #: None — and no summary key — when no fallback happened, so
    #: unaffected summaries stay bit-identical)
    engine_fallback: str | None = None
    #: fast-reroute counters (set by the network only when
    #: ``backup_routes`` is on; None keeps every other summary
    #: bit-identical): worms_healed, worms_absorbed,
    #: backup_route_decisions
    reroute: dict | None = None
    #: the network's message :class:`~repro.sim.flit.Ledger`, which
    #: the per-message figures reduce (None outside a network: no
    #: message figures)
    ledger: object | None = None

    # -- recording -----------------------------------------------------

    def count_decision(self, steps: int) -> None:
        self.decisions += 1
        self.decision_steps += steps
        if steps > self.max_decision_steps:
            self.max_decision_steps = steps

    def count_delivered_flit(self) -> None:
        self.flits_delivered += 1
        if self.now >= self.warmup:
            self.flits_delivered_measured += 1

    def count_dropped(self) -> None:
        self.messages_dropped += 1

    def count_unroutable(self) -> None:
        self.messages_unroutable += 1

    def count_retried(self) -> None:
        self.messages_retried += 1

    def count_dead_letter(self) -> None:
        self.messages_dead_lettered += 1

    def count_recovery(self, cycles: int) -> None:
        self._recovery_times.append(cycles)

    # -- summaries -----------------------------------------------------------

    def _measured(self):
        """(latencies, network latencies, hops, misrouted count) of the
        measured messages: the ledger rows with a delivered stamp that
        were created inside the measured window."""
        lg = self.ledger
        if lg is None:
            return (), (), (), 0
        n = lg.cs.n_msgs
        dlv, born = lg.msg_dlv[:n], lg.msg_born[:n]
        ids = np.flatnonzero((dlv >= 0) & (born >= self.warmup))
        dlv = dlv[ids].astype(np.int64)
        return (dlv - born[ids], dlv - lg.msg_inj[ids], lg.msg_plen[ids],
                int(np.count_nonzero(lg.msg_flags[ids] & M_MISROUTED)))

    @property
    def mean_latency(self) -> float:
        return _mean(self._measured()[0])

    @property
    def mean_network_latency(self) -> float:
        return _mean(self._measured()[1])

    @property
    def p99_latency(self) -> float:
        lat = self._measured()[0]
        return float(np.percentile(lat, 99)) if len(lat) else float("nan")

    @property
    def mean_hops(self) -> float:
        return _mean(self._measured()[2])

    @property
    def misrouted_fraction(self) -> float:
        _, _, hops, misrouted = self._measured()
        return misrouted / len(hops) if len(hops) else 0.0

    @property
    def mean_decision_steps(self) -> float:
        return self.decision_steps / self.decisions if self.decisions else 0.0

    @property
    def messages_recovered(self) -> int:
        return len(self._recovery_times)

    @property
    def mean_time_to_recover(self) -> float:
        # 0.0 (not nan) when nothing recovered, so summaries stay
        # comparable with ==
        return (float(np.mean(self._recovery_times))
                if self._recovery_times else 0.0)

    @property
    def max_time_to_recover(self) -> int:
        return max(self._recovery_times, default=0)

    def throughput(self, n_nodes: int) -> float:
        """Delivered flits per node per cycle over the measured window."""
        cycles = max(1, self.now - self.warmup)
        return self.flits_delivered_measured / (cycles * n_nodes)

    def measured_messages(self) -> int:
        return len(self._measured()[0])

    def summary(self, n_nodes: int) -> dict:
        out = self._summary(n_nodes)
        if self.timeseries is not None:
            out["metrics"] = self.timeseries.to_dict()
        if self.digest is not None:
            out["decision_digest"] = self.digest.hexdigest()
            out["decision_digest_count"] = self.digest.count
        if self.engine_fallback is not None:
            out["engine_fallback"] = self.engine_fallback
        if self.reroute is not None:
            out["reroute"] = dict(self.reroute)
        return out

    def _summary(self, n_nodes: int) -> dict:
        return {
            "cycles": self.now,
            "messages_delivered": self.messages_delivered,
            "messages_measured": self.measured_messages(),
            "messages_dropped": self.messages_dropped,
            "messages_unroutable": self.messages_unroutable,
            "messages_stuck": self.messages_stuck,
            "messages_retried": self.messages_retried,
            "messages_dead_lettered": self.messages_dead_lettered,
            "messages_recovered": self.messages_recovered,
            "mean_time_to_recover": self.mean_time_to_recover,
            "max_time_to_recover": self.max_time_to_recover,
            "mean_latency": self.mean_latency,
            "mean_network_latency": self.mean_network_latency,
            "p99_latency": self.p99_latency,
            "mean_hops": self.mean_hops,
            "misrouted_fraction": self.misrouted_fraction,
            "throughput_flits_node_cycle": self.throughput(n_nodes),
            "decisions": self.decisions,
            "mean_decision_steps": self.mean_decision_steps,
            "max_decision_steps": self.max_decision_steps,
        }
