"""Fast-reroute recovery gap: precompiled backups vs diagnosis-only.

The tentpole claim of the fast-reroute layer (docs/ROBUSTNESS.md) is
that precompiled backup rule subbases close the recovery gap: with
source retransmission *disabled* (``retry_limit=0``) a chaos campaign
must lose nothing when backups are armed, and every scenario's
loss window — cycles between a fault landing and routing working
again — must be strictly smaller than the diagnosis-flood slow path
achieves on its own.

This benchmark runs the same fixed-seed campaign twice (identical
fault draws and traffic; only ``backup_routes`` differs) and reports:

* ``reroute.cycles_of_loss`` — summed per-fault loss windows with
  backups on (fault cycle to local confirmation, when backups arm);
* ``reroute.time_to_recover_cycles`` — the worst single loss window
  with backups on;
* the backups-off counterparts, and the per-scenario comparison CI
  asserts on (zero dead letters / silent loss with backups, strictly
  smaller loss window in every scenario).

Both tracked metrics are *lower-is-better* and deterministic for a
given seed, so ``check_regression.py`` holds them to the committed
``BENCH_reroute.json`` baseline (quick runs compare against its
``quick_reference`` section).

Run directly::

    PYTHONPATH=src python benchmarks/bench_reroute.py
    PYTHONPATH=src python benchmarks/bench_reroute.py --quick
"""

from __future__ import annotations

import argparse
import json

from repro.experiments import run_campaign

#: the CI scenario: small enough for the chaos-recovery lane, large
#: enough that worms are mid-flight when links die
SCENARIO = dict(
    width=6, height=6, algorithm="updown", n_link_faults=2,
    load=0.12, message_length=6, cycles=1500, warmup=200, seed=7,
    detection_delay=40, diagnosis_hop_delay=2,
    retry_limit=0, retry_backoff=16,
)


def _campaign(n_scenarios: int, backups: bool) -> dict:
    # the batched engine is bit-identical to the object oracle, backups
    # included, so the simulated figures do not depend on the engine
    return run_campaign(n_scenarios, workers=0, cache=False,
                        backup_routes=backups, engine="batched",
                        **SCENARIO)


def run(quick: bool = False, n_scenarios: int | None = None) -> dict:
    n = n_scenarios or (4 if quick else 12)
    off = _campaign(n, backups=False)
    on = _campaign(n, backups=True)

    per_scenario = []
    strictly_smaller = True
    for s_on, s_off in zip(on["scenarios"], off["scenarios"]):
        row = {
            "scenario": s_on["scenario"],
            "cycles_of_loss": s_on["cycles_of_loss"],
            "cycles_of_loss_no_backup": s_off["cycles_of_loss"],
            "dead_lettered": s_on["dead_lettered"],
            "dead_lettered_no_backup": s_off["dead_lettered"],
            "silent_loss": s_on["silent_loss"],
            "silent_loss_no_backup": s_off["silent_loss"],
        }
        strictly_smaller &= row["cycles_of_loss"] < \
            row["cycles_of_loss_no_backup"]
        per_scenario.append(row)

    worst = max((e["loss_window"] for s in on["scenarios"]
                 for e in s["fault_events"]), default=0)
    reroute = {
        "time_to_recover_cycles": worst,
        "cycles_of_loss": on["cycles_of_loss"],
        "cycles_of_loss_no_backup": off["cycles_of_loss"],
        "dead_letters": on["dead_lettered"],
        "dead_letters_no_backup": off["dead_lettered"],
        "silent_loss": on["silent_loss"],
        "silent_loss_no_backup": off["silent_loss"],
        "delivery_rate": on["delivery_rate"],
        "delivery_rate_no_backup": off["delivery_rate"],
        "strictly_smaller_every_scenario": strictly_smaller,
        "per_scenario": per_scenario,
    }
    return {
        "quick": quick,
        "n_scenarios": n,
        "scenario": dict(SCENARIO),
        "reroute": reroute,
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer scenarios (CI smoke test)")
    ap.add_argument("--scenarios", type=int, default=None,
                    help="override the scenario count")
    ap.add_argument("--out", default=None,
                    help="write the JSON report here (default: "
                         "BENCH_reroute.json next to the repo root; "
                         "'-' prints to stdout only)")
    args = ap.parse_args(argv)
    report = run(quick=args.quick, n_scenarios=args.scenarios)
    if not args.quick and args.scenarios is None:
        # the committed baseline doubles as the quick-mode reference:
        # the quick campaign is a prefix of the full one, but its
        # aggregates differ, so record them explicitly
        quick_report = run(quick=True)
        report["quick_reference"] = {"reroute": quick_report["reroute"]}
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out != "-":
        import pathlib
        out = pathlib.Path(args.out) if args.out else \
            pathlib.Path(__file__).resolve().parent.parent / \
            "BENCH_reroute.json"
        out.write_text(text + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
