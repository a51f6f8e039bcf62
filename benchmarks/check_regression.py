"""Compare a fresh benchmark report against a committed baseline
(``BENCH_engine.json``, ``BENCH_reroute.json``) and fail loudly on a
regression.

CI runs::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --quick --out /tmp/bench_quick.json
    python benchmarks/check_regression.py /tmp/bench_quick.json
    PYTHONPATH=src python benchmarks/bench_reroute.py \
        --quick --out /tmp/bench_reroute.json
    python benchmarks/check_regression.py /tmp/bench_reroute.json \
        --baseline BENCH_reroute.json

Wall-clock totals are never compared — repeat counts differ between
``--quick`` and the full run that produced the baseline. Two metric
directions exist:

* **higher-is-better** (rates: decisions/sec, cycles/sec, speedups) —
  a metric regresses when it drops more than ``--threshold`` (default
  30%) below the baseline; improvements never fail. The wide threshold
  absorbs runner-to-runner variance while still catching the
  "accidentally interpreted the hot loop" class of mistake — a genuine
  2x slowdown trips it with a wide margin.
* **lower-is-better** (recovery gaps: ``reroute.cycles_of_loss``,
  ``reroute.time_to_recover_cycles``) — a metric regresses when it
  *rises* past the threshold; and because these are deterministic
  counts (not noisy rates), a zero baseline is held exactly: any
  nonzero current value fails.

If a regression is intentional (a feature that trades the metric for
capability), refresh the baseline instead of raising the threshold::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_reroute.py

and commit the updated baseline JSON with a note in the PR body
explaining the accepted cost.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: (dotted path into the report, short label, direction) where
#: direction is "higher" (rates) or "lower" (gaps) — see module doc
TRACKED = (
    ("decision_throughput.fastpath_decisions_per_sec",
     "fastpath decisions/sec", "higher"),
    ("simulation_throughput_low_load.active_cycles_per_sec",
     "sim cycles/sec (low load)", "higher"),
    ("simulation_throughput_moderate_load.active_cycles_per_sec",
     "sim cycles/sec (moderate load)", "higher"),
    ("batched_engine.cycles_per_sec", "batched engine cycles/sec",
     "higher"),
    # large-mesh speedups are ratios, not rates, but regress the same
    # way: a drop means the batched data path lost ground to the object
    # oracle on the fabrics it exists for (64x64 only appears in full
    # reports, so quick runs skip it)
    ("large_mesh.speedup_32x32", "large-mesh 32x32 speedup", "higher"),
    ("large_mesh.speedup_64x64", "large-mesh 64x64 speedup", "higher"),
    ("hypercube.cycles_per_sec", "hypercube batched cycles/sec",
     "higher"),
    # fast-reroute recovery gaps (BENCH_reroute.json): cycles of
    # routing outage per chaos campaign — growth means the backup
    # tables stopped arming (or stopped applying) somewhere
    ("reroute.cycles_of_loss", "reroute loss-window cycles", "lower"),
    ("reroute.time_to_recover_cycles",
     "reroute worst recovery gap (cycles)", "lower"),
    # load-balance sweep (BENCH_loadbalance.json): per-policy mean
    # accepted throughput near saturation (a drop means a policy
    # stopped spreading or started misrouting) and link-imbalance
    # aggregates (growth means the candidate re-ordering stopped
    # reaching the fabric)
    ("loadbalance.deterministic_throughput",
     "loadbalance deterministic throughput", "higher"),
    ("loadbalance.ecmp_throughput", "loadbalance ecmp throughput",
     "higher"),
    ("loadbalance.flowlet_throughput", "loadbalance flowlet throughput",
     "higher"),
    ("loadbalance.credit_throughput", "loadbalance credit throughput",
     "higher"),
    ("loadbalance.mean_imbalance", "loadbalance mean link imbalance",
     "lower"),
    ("loadbalance.ecmp_imbalance", "loadbalance ecmp link imbalance",
     "lower"),
)


def _fmt(v: float) -> str:
    """Rates print as integers; ratios/throughputs (< 100) keep their
    significant digits instead of rounding to zero."""
    return f"{v:,.0f}" if abs(v) >= 100 else f"{v:.4g}"

DEFAULT_BASELINE = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_engine.json"


def lookup(report: dict, dotted: str) -> float | None:
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node)


def compare(baseline: dict, current: dict, threshold: float) -> list[str]:
    """Human-readable rows; raises SystemExit(1) after printing if any
    tracked metric regressed past the threshold."""
    rows = []
    failures = []
    for dotted, label, direction in TRACKED:
        base = lookup(baseline, dotted)
        cur = lookup(current, dotted)
        if base is None or cur is None:
            rows.append(f"  {label:<38} (missing — skipped)")
            continue
        mark = "ok"
        if direction == "lower" and base == 0.0:
            # deterministic count with a perfect baseline: hold exactly
            ratio_text = "zero-base"
            if cur > 0.0:
                mark = "REGRESSION"
                failures.append(
                    f"{label}: {_fmt(cur)} vs a zero baseline — any "
                    f"nonzero value is a regression"
                )
        else:
            ratio = cur / base
            ratio_text = f"{ratio:.0%} of baseline"
            if direction == "higher" and ratio < 1.0 - threshold:
                mark = "REGRESSION"
                failures.append(
                    f"{label}: {_fmt(cur)} is {1 - ratio:.0%} below the "
                    f"baseline {_fmt(base)} (allowed: {threshold:.0%})"
                )
            elif direction == "lower" and ratio > 1.0 + threshold:
                mark = "REGRESSION"
                failures.append(
                    f"{label}: {_fmt(cur)} is {ratio - 1:.0%} above the "
                    f"baseline {_fmt(base)} (allowed: {threshold:.0%}; "
                    f"lower is better)"
                )
        rows.append(
            f"  {label:<38} {_fmt(cur):>12}  vs {_fmt(base):>12}  "
            f"({ratio_text})  {mark}"
        )
    print(f"benchmark regression check (threshold {threshold:.0%}):")
    for row in rows:
        print(row)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="fresh benchmark report JSON to check")
    ap.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                    help="committed baseline (default: BENCH_engine.json)")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="max tolerated fractional drop (default 0.30)")
    args = ap.parse_args(argv)

    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    current = json.loads(pathlib.Path(args.current).read_text())
    if current.get("quick") and "quick_reference" in baseline:
        # quick mode amortizes warmup over far fewer repeats, so its
        # rates sit systematically below the full run — compare against
        # the committed quick-mode reference instead
        print("(--quick report: comparing against the quick_reference "
              "baseline section)")
        baseline = baseline["quick_reference"]
    failures = compare(baseline, current, args.threshold)
    if failures:
        print("\nFAIL: tracked metrics regressed past the tolerated "
              "threshold:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        print(
            "\nIf this regression is intentional, regenerate the baseline\n"
            "(PYTHONPATH=src python benchmarks/bench_engine_throughput.py\n"
            "or benchmarks/bench_reroute.py) and commit the updated JSON\n"
            "with a PR note explaining the accepted cost. Do not raise\n"
            "--threshold to make CI pass.",
            file=sys.stderr,
        )
        return 1
    print("all tracked throughput metrics within threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
