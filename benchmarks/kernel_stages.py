"""Seconds and calls per batched-kernel entry point for one e2e job.

Runs one workload of the end-to-end benchmark (``benchmarks/e2e``) in
this process: the job's set-up first (untimed), then its ops, with
every ``k_*`` function of the loaded C kernel wrapped in a
``perf_counter`` timer.  Prints, per kernel function, the calls and
seconds and their share of the job, then the whole job.  The route
scan and the allocation walk also count the occupied input VCs they
visit (the kernel's cumulative ``visits`` counters), so their rows
show the nanoseconds per visited VC::

    PYTHONPATH=src python benchmarks/kernel_stages.py \\
        --workload native_mesh --seed 1 [--op 32x32] [--smoke]

``--op`` keeps only the ops whose name contains the text (``32x32``:
the 32x32 mesh ops of ``native_mesh``).  The timers add about 0.2 us
per call, charged to the job, not to the kernels.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

#: the kernels whose calls add to a ``visits`` counter, and its slot
VISITS = {"k_route_scan": 0, "k_alloc": 1}


class _Timed:
    """The kernel library with every ``k_*`` function timed."""

    def __init__(self, lib):
        self.lib = lib
        self.secs: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.visits: dict[str, int] = {}
        for name in dir(lib):
            if name.startswith("k_"):
                setattr(self, name, self._wrap(name, getattr(lib, name)))

    def _wrap(self, name, fn):
        secs, calls, visits = self.secs, self.calls, self.visits
        secs[name] = 0.0
        calls[name] = 0
        slot = VISITS.get(name)
        clock = time.perf_counter
        if slot is None:
            def timed(*args):
                t0 = clock()
                out = fn(*args)
                secs[name] += clock() - t0
                calls[name] += 1
                return out
            return timed
        visits[name] = 0

        def counted(cs, *args):
            before = cs.visits[slot]
            t0 = clock()
            out = fn(cs, *args)
            secs[name] += clock() - t0
            calls[name] += 1
            visits[name] += cs.visits[slot] - before
            return out
        return counted

    def __getattr__(self, name):
        return getattr(self.lib, name)


def measure(workload: str, seed: int, smoke: bool = False,
            op_filter: str = "") -> dict:
    """Run the job and return its per-kernel ``secs``, ``calls`` and
    ``visits`` and the job's ``job_s`` and op names."""
    sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
    import workloads
    from repro.sim import _batched_kernel

    ops = [op for op in workloads.generate(workload, seed, smoke)
           if op_filter in op["name"]]
    if not ops:
        raise SystemExit(f"no {workload} op name contains {op_filter!r}")
    workloads.set_up(ops)
    loaded = _batched_kernel.load_kernel()
    if loaded is None:
        raise SystemExit("the batched kernel is unavailable: "
                         f"{_batched_kernel.unavailable_reason()}")
    ffi, lib = loaded
    timed = _Timed(lib)
    _batched_kernel._LOADED = (ffi, timed)
    try:
        t0 = time.perf_counter()
        for op in ops:
            workloads.run_op(op)
        job = time.perf_counter() - t0
    finally:
        _batched_kernel._LOADED = loaded
    return {"workload": workload, "seed": seed, "smoke": smoke,
            "ops": [op["name"] for op in ops], "job_s": job,
            "secs": timed.secs, "calls": timed.calls,
            "visits": timed.visits}


def report(res: dict) -> str:
    job = res["job_s"]
    lines = [f"{res['workload']} seed {res['seed']}"
             f"{' (smoke)' if res['smoke'] else ''}: "
             f"{len(res['ops'])} ops",
             f"{'kernel':<18}{'calls':>10}{'seconds':>10}{'share':>8}"
             f"{'visited VCs':>14}{'ns/VC':>8}"]
    rows = sorted(((s, n) for n, s in res["secs"].items()
                   if res["calls"][n]), reverse=True)
    for secs, name in rows:
        line = (f"{name:<18}{res['calls'][name]:>10}{secs:>10.3f}"
                f"{secs / job:>8.1%}")
        nv = res["visits"].get(name)
        if nv:
            line += f"{nv:>14}{1e9 * secs / nv:>8.1f}"
        lines.append(line)
    kern = sum(s for s, _ in rows)
    lines.append(f"{'all kernels':<18}{sum(res['calls'].values()):>10}"
                 f"{kern:>10.3f}{kern / job:>8.1%}")
    lines.append(f"{'job':<18}{'':>10}{job:>10.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="native_mesh")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true",
                    help="the job's reduced smoke sizes")
    ap.add_argument("--op", default="",
                    help="only the ops whose name contains this text")
    ap.add_argument("--json", action="store_true",
                    help="print the measurement as JSON")
    args = ap.parse_args(argv)
    res = measure(args.workload, args.seed, args.smoke, args.op)
    print(json.dumps(res, indent=1) if args.json else report(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
