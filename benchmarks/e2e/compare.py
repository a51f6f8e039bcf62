"""Compare two suite result files (``run.py --out``) workload by
workload, under the bounds in BENCHMARK.json::

    python benchmarks/e2e/compare.py A.json B.json

One row per workload and end-to-end metric: both sides' median and
quartiles and a verdict for B against A.  ``unchanged``/``better``/
``worse`` compare the medians against the bound; when either side's
interquartile range exceeds the bound the verdict is ``unresolved``,
unless every run of one side beats every run of the other.  Exact
per-layer counts (from ``--trace`` runs) that differ are listed after
the table; a simulated count that moved is a behaviour change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from run import load_benchmark, median_q  # noqa: E402
from spans import EXACT_COUNTS  # noqa: E402

#: absolute floors under a metric's relative bound: set-up times of a
#: fraction of a second move by more than 25% on scheduling noise alone
FLOORS = {"setup_s": 0.1}


def verdict(a: list[float], b: list[float], bound: float, better: str,
            floor: float = 0.0) -> str:
    """B against A, for one metric."""
    med_a, q1_a, q3_a = median_q(a)
    med_b, q1_b, q3_b = median_q(b)
    tol = max(bound * med_a, floor)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = (med_b - med_a) * sign
    if q3_a - q1_a > tol or q3_b - q1_b > tol:
        b_wins = max(v * sign for v in b) < min(v * sign for v in a)
        a_wins = max(v * sign for v in a) < min(v * sign for v in b)
        if not (b_wins or a_wins):
            return "unresolved"
    if worse_by > tol:
        return "worse"
    if worse_by < -tol:
        return "better"
    return "unchanged"


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], int]:
    """Report lines and the number of worse or unresolved rows."""
    lines = [f"{'workload':<18} {'metric':<12} {'A median [q1, q3]':>28} "
             f"{'B median [q1, q3]':>28}  verdict"]
    bad = 0
    for w in (m["name"] for m in bench["workloads"]):
        wa, wb = a["workloads"].get(w), b["workloads"].get(w)
        if not wa or not wb or not wa["wall_s"] or not wb["wall_s"]:
            lines.append(f"{w:<18} missing from one side")
            bad += 1
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            v = verdict(wa[name], wb[name], m["bound"], m["better"],
                        FLOORS.get(name, 0.0))
            bad += v in ("worse", "unresolved")
            lines.append(f"{w:<18} {name:<12} {_fmt(wa[name]):>28} "
                         f"{_fmt(wb[name]):>28}  {v}")
        fa = wa["ops_failed"] / wa["ops"] if wa["ops"] else 1.0
        fb = wb["ops_failed"] / wb["ops"] if wb["ops"] else 1.0
        v = "worse" if fb > fa else "better" if fb < fa else "unchanged"
        bad += v == "worse"
        lines.append(f"{w:<18} {'failed_frac':<12} {fa:>28.4f} {fb:>28.4f}"
                     f"  {v}")
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"] not in ("s", "ratio", "1/s")]
    moved = []
    for w, ta in a.get("trace", {}).items():
        tb = b.get("trace", {}).get(w)
        if tb is None:
            continue
        for n in counts:
            if ta.get(n) != tb.get(n):
                tag = " (simulated: behaviour change)" \
                    if n in EXACT_COUNTS else ""
                moved.append(f"  {w:<18} {n:<34} {ta.get(n)} -> "
                             f"{tb.get(n)}{tag}")
    if moved:
        lines.append("\nper-layer counts that differ:")
        lines += moved
    return lines, bad


def _fmt(values: list[float]) -> str:
    med, q1, q3 = median_q(values)
    return f"{med:.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline result file")
    ap.add_argument("b", help="candidate result file")
    args = ap.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    lines, bad = compare(a, b, load_benchmark())
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
