"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the flit-level wormhole simulator.

    ``cycles_per_step`` converts rule-interpretation steps into router
    cycles (paper Section 4.3 delay model: one step = wiring + 2 x FCFB
    + one table access; with the default 1998-era numbers that fits one
    10 ns router cycle).  The decision-time benchmarks sweep it.

    The reliability layer is opt-in and neutral when disabled: with
    ``detection_delay=0``, ``diagnosis_hop_delay=0``, ``retry_limit=0``
    and ``hop_budget=0`` (the defaults) the simulator behaves
    bit-for-bit like the pre-reliability code paths.
    """

    buffer_depth: int = 4          # flits per virtual-channel buffer
    cycles_per_step: int = 1       # router cycles per interpretation step
    injection_vc: int = 0          # local-port VC messages enter through
    fault_mode: str = "quiesce"    # "quiesce" honours assumption iv;
    #                                "harsh" kills worms on dying links
    retransmit_dropped: bool = False  # legacy: immediate re-offer of a
    #                                   ripped-up message, no backoff
    detection_delay: int = 0       # cycles between a fault occurring and
    #                                the Information Units confirming it
    #                                (heartbeat detection; harsh mode only)
    diagnosis_hop_delay: int = 0   # cycles per hop for the fault-
    #                                notification flood (0 = instant
    #                                global knowledge, the legacy model;
    #                                harsh mode only)
    retry_limit: int = 0           # max source-retransmission attempts per
    #                                message (0 = retries disabled)
    retry_backoff: int = 16        # base backoff in cycles; attempt k
    #                                waits retry_backoff * 2**(k-1) after
    #                                the source's view confirms the fault
    hop_budget: int = 0            # livelock guard: a message exceeding
    #                                this many hops is declared stuck
    #                                (0 = disabled)
    backup_routes: bool = False    # LFA-style fast reroute: precompile
    #                                per-node backup subbases against
    #                                each local link fault, heal worms
    #                                caught on a dying link and re-inject
    #                                locally (harsh mode only; link
    #                                faults — node faults keep the
    #                                rip-up/retry slow path)
    trace_paths: bool = False      # record per-message node paths
    deadlock_threshold: int = 2000  # cycles without progress => deadlock
    engine: str = "object"         # "object": per-flit Python objects
    #                                (the bit-exact oracle); "batched":
    #                                the struct-of-arrays engine of
    #                                repro.sim.batched — same results,
    #                                selected via build_network()
    policy: str = "deterministic"  # output-selection policy over the
    #                                legal candidate list (see
    #                                repro.routing.select): the default
    #                                keeps the algorithm's adaptivity
    #                                order bit-identical; "ecmp",
    #                                "flowlet" and "credit" re-order it
    #                                for load balancing (object engine
    #                                only — build_network falls back)
    policy_seed: int = 0           # hash seed for ecmp/flowlet (ignored
    #                                by deterministic/credit)

    def __post_init__(self):
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.cycles_per_step < 0:
            raise ValueError("cycles_per_step must be >= 0")
        if self.fault_mode not in ("quiesce", "harsh"):
            raise ValueError(f"unknown fault_mode {self.fault_mode!r}")
        if self.detection_delay < 0:
            raise ValueError("detection_delay must be >= 0")
        if self.detection_delay and self.fault_mode != "harsh":
            raise ValueError("detection_delay needs fault_mode='harsh' "
                             "(quiesce mode models instantaneous, "
                             "message-safe diagnosis)")
        if self.diagnosis_hop_delay < 0:
            raise ValueError("diagnosis_hop_delay must be >= 0")
        if self.diagnosis_hop_delay and self.fault_mode != "harsh":
            raise ValueError("diagnosis_hop_delay needs fault_mode='harsh' "
                             "(quiesce mode quiesces the network for an "
                             "atomic, global diagnosis phase)")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.retry_backoff < 1:
            raise ValueError("retry_backoff must be >= 1 cycle")
        if self.hop_budget < 0:
            raise ValueError("hop_budget must be >= 0")
        if self.backup_routes and self.fault_mode != "harsh":
            raise ValueError("backup_routes needs fault_mode='harsh' "
                             "(quiesce mode loses no messages, so there "
                             "is no recovery gap to close)")
        if self.engine not in ("object", "batched"):
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"choose 'object' or 'batched'")
        # lazy import: repro.routing pulls in modules that import
        # repro.sim, so a top-level import here would be circular
        from ..routing.select import POLICIES
        if self.policy not in POLICIES:
            raise ValueError(f"unknown selection policy {self.policy!r}; "
                             f"choose from {sorted(POLICIES)}")
        if self.retry_limit and self.retransmit_dropped:
            raise ValueError("retry_limit and the legacy "
                             "retransmit_dropped are mutually exclusive; "
                             "use retry_limit")
