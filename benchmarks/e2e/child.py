"""One benchmark job in a fresh process: set-up, timed ops, checks.

``run.py`` starts this script once per job run, one at a time, and
reads the JSON record it writes to ``--out``.  It is not a user entry
point, but can be run by hand for debugging::

    PYTHONPATH=src python benchmarks/e2e/child.py --workload chaos \\
        --seed 1 --out /dev/stdout

Set-up (``setup_s``) runs from ``--spawned`` (the parent's monotonic
clock just before it started this process) to the first timed op: the
interpreter start, imports, and one throw-away network build per
distinct configuration.  The timed ops (``wall_s``) run serially, each
starting when the previous one ended.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: an op that takes longer than this (per user-visible op) has failed
OP_LIMIT_S = 30.0


class OpTimeout(BaseException):
    """Raised into an op that overran its time limit (a BaseException
    so that no ``except Exception`` inside the program swallows it)."""


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"op exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_kernel() -> dict:
    """Compile (or find) the batched C kernel in ``REPRO_BATCHED_CACHE``
    and time just that step."""
    from repro.sim import _batched_kernel

    t0 = time.monotonic()
    ok = _batched_kernel.kernel_available()
    return {"kernel_build_s": time.monotonic() - t0, "available": ok}


def run_job(workload: str, seed: int, smoke: bool, trace: bool,
            setup_only: bool, spawned: float) -> dict:
    import spans
    import workloads

    ops = workloads.generate(workload, seed, smoke)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    workloads.set_up(ops)
    t_ops = time.monotonic()
    record = {"workload": workload, "seed": seed, "smoke": smoke,
              "trace": trace, "setup_s": t_ops - spawned}
    if setup_only:
        record["peak_rss_mb"] = peak_rss_mb()
        return record

    if tracer is not None:
        tracer.summaries.clear()
    per_op = []
    results = []
    summaries = {}
    for op in ops:
        n = workloads.op_count(op)
        before = tracer.snapshot() if tracer is not None else None
        n_summaries = len(tracer.summaries) if tracer is not None else 0
        error = None
        pairs = []
        t0 = time.monotonic()
        try:
            with time_limit(OP_LIMIT_S * n):
                pairs = workloads.run_op(op)
        except (Exception, OpTimeout) as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.monotonic() - t0
        if error is None and len(pairs) != n:
            error = f"expected {n} results, got {len(pairs)}"
        if error is not None:
            pairs = [(f"{op['name']}[{i}]" if n > 1 else op["name"], None)
                     for i in range(n)]
        for name, summary in pairs:
            summaries[name] = summary
            results.append({
                "name": name,
                "digest": None if summary is None
                else workloads.digest(summary),
                "violations": ([error] if summary is None
                               else workloads.violations(op, summary)),
            })
        if tracer is not None:
            per_op.append({
                "name": op["name"], "seconds": seconds,
                "delta": spans.diff(tracer.snapshot(), before),
                "sums": spans.summary_sums(tracer.summaries[n_summaries:]),
            })
    wall_s = time.monotonic() - t_ops

    job_bad = workloads.job_violations(
        workload, {k: v for k, v in summaries.items() if v is not None})
    for res in results:
        res["violations"] += job_bad.get(res["name"], [])
    record.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb(), ops=results)
    if tracer is not None:
        report = tracer.snapshot()
        report.update(setup_s=record["setup_s"], wall_s=wall_s,
                      sums=spans.summary_sums(tracer.summaries),
                      ops=len(results))
        record.update(trace_report=report, per_op=per_op)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--build-kernel", action="store_true")
    ap.add_argument("--spawned", type=float, default=None,
                    help="parent's time.monotonic() at process start")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.build_kernel:
        record = build_kernel()
    else:
        if not args.workload:
            ap.error("--workload is required")
        record = run_job(args.workload, args.seed, args.smoke, args.trace,
                         args.setup_only, spawned)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
