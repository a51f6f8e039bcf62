"""Check the end-to-end benchmark's deterministic smoke counts against
their floors and exact pins.

Each workload in :data:`TABLE` runs once, traced, at ``--smoke`` size::

    python benchmarks/e2e/run.py --workload W --smoke --seconds 0 --trace 1

and its result line must report ``correct``, every floor metric must be
at least its floor and every pinned metric must equal its pin (floats
compared at 12 decimals).  These are counts and count ratios, not
timings, so they do not depend on the machine.  CI runs::

    python benchmarks/check_smoke_pins.py

A run that exits non-zero (its stderr goes to this script's stderr) is a
failure of that workload, and the remaining workloads still run.  To
check one workload, run the ``run.py`` line above for it.

Ratchet a floor up, never down, in the change that raises it.  Update a
pin only in a change that moves it on purpose, and say why in the
table.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"

#: per workload: floors (metric -> least value) and pins (metric ->
#: exact value)
TABLE = {
    # routing.native_frac: the share of the job's routing decisions the
    # batched engine replays in C without entering Python; the floor is
    # the value measured when route_c_rules got a native contract
    # (0.6786; 0.6547 with NAFTA's relative keys alone, 0.3322 before
    # them).  The pins are the rule machine's counts: rule base calls,
    # Python route() calls, decisions and steps per decision.
    # route_c_rules decisions replay in C since its native contract
    # (6012 -> 4554 rule calls, 12708 -> 11934 route() calls)
    "python_decisions": {
        "floors": {"routing.native_frac": 0.678},
        "pins": {"core.rule_call.calls": 4554,
                 "routing.route.calls": 11934,
                 "sim.decisions": 28945,
                 "core.steps_per_decision": 1.822560027639},
    },
    # the same share on the chaos job, whose backup-table scenarios wrap
    # nafta in FastReroute: it falls toward 0 when the wrapper stops
    # forwarding the inner algorithm's native contract.  The floor is
    # the value measured when the contract became one NativeContract
    # value (0.7684).  The pins are the fault-recovery machinery's
    # counts: Python route() calls, decisions, fault-knowledge updates,
    # Python offer calls (the batched engine admits traffic in its
    # kernel, so these are heal re-offers and public-API offers only),
    # healed worms and loss-window cycles
    "chaos": {
        "floors": {"routing.native_frac": 0.768},
        "pins": {"routing.route.calls": 67570,
                 "sim.decisions": 10170,
                 "routing.on_fault_update.calls": 117,
                 "sim.offer.calls": 1,
                 "sim.worms_healed": 1,
                 "sim.cycles_of_loss": 160,
                 "core.steps_per_decision": 1.259292035398},
    },
    # the batched data path: Python offer calls (none: the kernel draws,
    # screens and admits the traffic; the span counts only fast-reroute
    # heal re-offers and public-API offers), decisions, active
    # node-cycles, route() calls (the clean-table probes at set-up
    # only) and the native share
    "native_mesh": {
        "floors": {},
        "pins": {"sim.offer.calls": 0,
                 "sim.decisions": 10600,
                 "sim.node_cycles": 127744,
                 "routing.route.calls": 1315,
                 "routing.native_frac": 1.0},
    },
    # the object engine on xy, nara and spanning_tree on an 8x8 mesh,
    # at loads 0.05 and 0.4: decisions, active node-cycles and route()
    # calls
    "latency_load": {
        "floors": {},
        "pins": {"sim.decisions": 41837,
                 "sim.node_cycles": 191616,
                 "routing.route.calls": 88198},
    },
    # the same on the interpretation-step simulations (nara, nafta,
    # route_c_nft and route_c, with and without faults), plus the steps
    # per decision those runs report
    "paper_tables": {
        "floors": {},
        "pins": {"sim.decisions": 13586,
                 "sim.node_cycles": 99376,
                 "routing.route.calls": 15064,
                 "core.steps_per_decision": 1.325629324304},
    },
}


def smoke_result(workload: str) -> dict | None:
    """The result line of one traced smoke run of ``workload``, or None
    when the run exits non-zero."""
    run = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--smoke",
         "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    if run.returncode:
        return None
    return json.loads(run.stdout.strip().splitlines()[-1])


def failures(workload: str, result: dict | None) -> list[str]:
    """What in ``result`` breaks ``workload``'s floors and pins."""
    if result is None:
        return [f"{workload}: run.py exited non-zero"]
    if not result["correct"]:
        return [f"{workload}: not correct: {result}"]
    metrics = result["metrics"]
    row = TABLE[workload]
    out = []
    for name, floor in row["floors"].items():
        got = metrics[name]["value"]
        if got < floor:
            out.append(f"{workload}: {name} {got:.4f} fell below the "
                       f"floor {floor}")
    for name, want in row["pins"].items():
        got = metrics[name]["value"]
        if isinstance(want, float):
            got = round(got, 12)
        if got != want:
            out.append(f"{workload}: {name} {got} != pinned {want}")
    return out


def main() -> int:
    bad = []
    for workload in TABLE:
        found = failures(workload, smoke_result(workload))
        bad += found
        print(f"{workload}: " + ("FAIL" if found else
                                 "floors and pins hold"), flush=True)
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
