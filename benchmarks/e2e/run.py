"""End-to-end benchmark: five seeded user jobs through the public
``repro`` API, host-side timings, per-layer attribution from a separate
traced run.  See README.md in this directory.

Suite (5 rounds x 5 workloads, the order rotated each round; one round
with ``--smoke``)::

    PYTHONPATH=src python benchmarks/e2e/run.py [--trace] [--out FILE]

One workload, the form a benchmark driver calls (the last stdout line
is one JSON object)::

    python3 benchmarks/e2e/run.py --workload chaos --seed 1 \\
        --seconds 10 --trace 0

Every job runs in its own fresh child process (``child.py``), one at a
time.  A measurement (one suite round of one workload, or one driver
call) starts job runs until ``--seconds`` have passed and reports the
medians.  Nothing is written outside the work directory (default
``.bench_build/e2e`` in the checkout, which git ignores): the children's
bytecode, the batched kernel build, table caches and temporary files
all go there, and this process writes no bytecode at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
#: suite rounds over all workloads (one with --smoke)
ROUNDS = 5
#: set-up times per measurement (median reported)
SETUP_SAMPLES = 5
#: a driver-form call stops starting job runs after this (it must end
#: within 180 s)
DEADLINE_S = 165.0
#: hard limit on one child in suite mode
CHILD_LIMIT_S = 900.0
#: seeds whose op digests expected.json pins
RECORD_SEEDS = (1, 2)

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from spans import layer_metrics  # noqa: E402


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def median_q(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


class Children:
    """Starts child processes with the benchmark's environment: the
    checkout's ``src`` on the path, and every cache, bytecode and
    temporary file inside the work directory."""

    def __init__(self, work: Path, deadline: float | None = None):
        self.work = work
        self.deadline = deadline
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PYTHONPYCACHEPREFIX=str(work / "pycache"),
                        REPRO_RESULTS_DIR=str(work / "results"),
                        TMPDIR=str(work / "tmp"))
        # set-up times warm imports whatever the caller's environment
        # says: bytecode is cached, in the work directory
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.kernel_dir = work / "kernel"

    def _timeout(self) -> float:
        if self.deadline is None:
            return CHILD_LIMIT_S
        return self.deadline - time.monotonic()

    def spawn(self, args: list[str], cache: Path, out: Path) -> dict | None:
        """Run child.py to completion; its record, or None if it
        failed or overran."""
        timeout = self._timeout()
        if timeout <= 0:
            log("  deadline reached; job run not started")
            return None
        env = dict(self.env, REPRO_BATCHED_CACHE=str(cache))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), *args, "--spawned",
                 repr(spawned), "--out", str(out)],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            log(f"  child {' '.join(args)} overran {timeout:.0f} s; killed")
            return None
        if proc.returncode != 0:
            log(f"  child {' '.join(args)} exited {proc.returncode}:\n"
                + proc.stderr[-2000:])
            return None
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    def build_kernel(self, cold: bool) -> float:
        """Compile the batched C kernel that every job run starts from
        (``cold``: into a fresh directory, so the time is a full
        compile); returns the build time."""
        if cold:
            self.kernel_dir = self.work / "kernel-cold"
            shutil.rmtree(self.kernel_dir, ignore_errors=True)
        self.kernel_dir.mkdir(parents=True, exist_ok=True)
        rec = self.spawn(["--build-kernel"], self.kernel_dir,
                         self.work / "kernel-build.json")
        if rec is None:
            raise RuntimeError("could not run the kernel build")
        return rec["kernel_build_s"]

    def job(self, workload: str, seed: int, smoke: bool, trace=False,
            setup_only=False) -> dict | None:
        """One job run in a fresh process with an empty table cache
        seeded only with the prebuilt kernel."""
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.work))
        try:
            cache = run_dir / "cache"
            cache.mkdir()
            for so in self.kernel_dir.glob("kernel-*.so"):
                try:
                    os.link(so, cache / so.name)
                except OSError:
                    shutil.copy2(so, cache / so.name)
            args = ["--workload", workload, "--seed", str(seed)]
            args += ["--smoke"] * smoke + ["--trace"] * trace
            args += ["--setup-only"] * setup_only
            return self.spawn(args, cache, run_dir / "record.json")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


class Tally:
    """Attempted and failed ops of one workload over all its job runs.

    An op fails if it raised, overran its limit, broke an invariant,
    has a digest other than expected.json's for this seed, or produced
    a different output than the same op in an earlier run (traced runs
    included).  A job run that crashed fails all its ops."""

    def __init__(self, workload: str, seed: int, smoke: bool,
                 expected: dict | None):
        self.expected = None
        if expected is not None and not smoke:
            self.expected = expected.get(str(seed), {}).get(workload)
        self.reference: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)

    def add(self, record: dict | None) -> int:
        """Count one job run; returns its failed ops."""
        before = self.failed
        if record is None:
            n = len(self.expected or self.reference) or 1
            self.attempted += n
            for _ in range(n):
                self._fail("job run crashed or overran")
            return self.failed - before
        names = {op["name"] for op in record["ops"]}
        for op in record["ops"]:
            why = list(op["violations"])
            digest = op["digest"]
            if self.expected is not None \
                    and self.expected.get(op["name"]) != digest:
                why.append("digest differs from expected.json")
            ref = self.reference.setdefault(op["name"], digest)
            if digest != ref:
                why.append("output differs from an earlier run"
                           + (" (traced)" if record["trace"] else ""))
            self.attempted += 1
            if why:
                self._fail(f"{op['name']}: {'; '.join(why)}")
        for name in sorted(set(self.expected or ()) - names):
            self.attempted += 1
            self._fail(f"{name}: missing")
        return self.failed - before


def load_expected() -> dict:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh)["seeds"]
    except FileNotFoundError:
        return {}


def traced_layers(kids: Children, tally: Tally, bench: dict, workload: str,
                  seed: int, smoke: bool, kernel_build_s: float,
                  untraced_wall: list[float]) -> tuple[dict, dict] | None:
    """One traced job run: (per-layer metrics, per-op detail)."""
    rec = kids.job(workload, seed, smoke, trace=True)
    failed = tally.add(rec)
    if rec is None or not untraced_wall:
        return None
    report = rec["trace_report"]
    report["ops_failed"] = failed
    metrics = layer_metrics(report, kernel_build_s,
                            statistics.median(untraced_wall),
                            [m["name"] for m in bench["per_layer"]])
    detail = {"fallback_reasons": report["sums"]["fallback_reasons"],
              "per_op": rec["per_op"]}
    return metrics, detail


def measure(kids: Children, tally: Tally, workload: str, seed: int,
            smoke: bool, seconds: float) -> dict | None:
    """One measurement of a workload: job runs, each in a fresh
    process, until ``seconds`` have passed (at least one), then
    set-up-only runs until there are SETUP_SAMPLES set-up times.
    Returns the medians (and the job runs' wall times), or None if no
    job run completed."""
    records = []
    t0 = time.monotonic()
    while True:
        rec = kids.job(workload, seed, smoke)
        tally.add(rec)
        if rec is None:
            break
        records.append(rec)
        if time.monotonic() - t0 >= seconds:
            break
    if not records:
        return None
    setups = [r["setup_s"] for r in records]
    while len(setups) < SETUP_SAMPLES:
        rec = kids.job(workload, seed, smoke, setup_only=True)
        if rec is None:
            break
        setups.append(rec["setup_s"])
    wall = [r["wall_s"] for r in records]
    return {"wall_s": statistics.median(wall),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in records),
            "runs": wall}


# -- one workload (the driver's form) ----------------------------------------

def run_one(args, bench: dict, kids: Children) -> int:
    kernel_build_s = kids.build_kernel(cold=bool(args.trace))
    tally = Tally(args.workload, args.seed, args.smoke, load_expected())
    values = measure(kids, tally, args.workload, args.seed, args.smoke,
                     args.seconds)
    if values is None:
        log("no job run completed")
        return 1
    specs = bench["end_to_end"]
    if args.trace:
        traced = traced_layers(kids, tally, bench, args.workload, args.seed,
                               args.smoke, kernel_build_s, values["runs"])
        if traced is None:
            log("the traced job run failed")
            return 1
        values = traced[0]
        specs = bench["per_layer"]
    for why in tally.failures:
        log(f"  FAILED {why}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }))
    return 0 if tally.failed == 0 else 1


# -- the suite -----------------------------------------------------------------

def run_suite(args, bench: dict, kids: Children) -> int:
    names = [w["name"] for w in bench["workloads"]]
    kernel_build_s = kids.build_kernel(cold=bool(args.trace))
    expected = load_expected()
    tallies = {w: Tally(w, args.seed, args.smoke, expected) for w in names}
    samples = {w: {m["name"]: [] for m in bench["end_to_end"]}
               for w in names}
    rounds = 1 if args.smoke else ROUNDS
    for r in range(rounds):
        k = r % len(names)
        for w in names[k:] + names[:k]:
            values = measure(kids, tallies[w], w, args.seed, args.smoke,
                             args.seconds)
            if values is None:
                continue
            for name, series in samples[w].items():
                series.append(values[name])
            log(f"round {r + 1}/{rounds} {w}: wall "
                f"{values['wall_s']:.3f} s ({len(values['runs'])} job "
                f"runs), setup {values['setup_s']:.3f} s")
    result = {"schema": 1, "seed": args.seed, "rounds": rounds,
              "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    for w in names:
        t = tallies[w]
        result["workloads"][w] = dict(samples[w], ops=t.attempted,
                                      ops_failed=t.failed,
                                      failures=t.failures)
    if args.trace:
        result["kernel_build_s"] = kernel_build_s
        result["trace"], result["trace_detail"] = {}, {}
        for w in names:
            traced = traced_layers(kids, tallies[w], bench, w, args.seed,
                                   args.smoke, kernel_build_s,
                                   result["workloads"][w]["wall_s"])
            if traced is not None:
                result["trace"][w], result["trace_detail"][w] = traced
            t = tallies[w]
            result["workloads"][w].update(ops=t.attempted, ops_failed=t.failed,
                                          failures=t.failures)
    print_suite(result, bench)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(w["ops_failed"] == 0 and w["wall_s"]
             for w in result["workloads"].values())
    return 0 if ok else 1


def print_suite(result: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(f"{'workload':<18} {'metric':<12} {'unit':<6} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'n':>3}")
    for w, data in result["workloads"].items():
        for name, unit in units.items():
            if data[name]:
                med, q1, q3 = median_q(data[name])
                print(f"{w:<18} {name:<12} {unit:<6} {med:>10.4f} "
                      f"{q1:>10.4f} {q3:>10.4f} {len(data[name]):>3}")
        frac = data["ops_failed"] / data["ops"] if data["ops"] else 1.0
        print(f"{w:<18} {'failed_frac':<12} {'ratio':<6} {frac:>10.4f} "
              f"{'':>10} {'':>10} {'':>3}  ({data['ops_failed']} of "
              f"{data['ops']} ops failed)")
        for why in data["failures"]:
            print(f"    FAILED {why}")
    for w, metrics in result.get("trace", {}).items():
        traced_s = metrics["trace.traced_s"]
        print(f"\nper-layer metrics, {w} (traced run, {traced_s:.3f} s; "
              f"overhead {metrics['trace.overhead_frac']:+.1%})")
        for m in bench["per_layer"]:
            name, unit = m["name"], m["unit"]
            v = metrics[name]
            extra = (f"  ({v * traced_s:.4f} s)"
                     if name.endswith(".self_frac") else "")
            print(f"  {name:<38} {v:>14.6g} {unit}{extra}")


# -- recording digests ----------------------------------------------------------

def record(args, bench: dict, kids: Children) -> int:
    kids.build_kernel(cold=False)
    seeds: dict = {}
    for seed in RECORD_SEEDS:
        for w in (m["name"] for m in bench["workloads"]):
            tally = Tally(w, seed, False, None)
            rec = kids.job(w, seed, False)
            tally.add(rec)
            if tally.failed:
                log(f"not recording: {w} seed {seed} failed: "
                    f"{tally.failures}")
                return 1
            seeds.setdefault(str(seed), {})[w] = {
                op["name"]: op["digest"] for op in rec["ops"]}
            log(f"recorded {w} seed {seed}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"about": "sha256 of each op's summary as canonical JSON "
                            "without engine keys; written by run.py --record",
                   "seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run one workload and print one "
                    "JSON line (the benchmark-driver form)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="per measurement: start job runs until this long "
                    "has passed (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="add a traced run and report "
                    "per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes that drive every code path in "
                    "seconds (no digest checks; the suite runs one round)")
    ap.add_argument("--out", help="suite: write the results here as JSON")
    ap.add_argument("--record", action="store_true",
                    help="write expected.json from seeds 1 and 2")
    ap.add_argument("--work", type=Path, default=ROOT / ".bench_build" / "e2e",
                    help="directory for caches and temporary files")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {ROOT / 'src'}; run from a checkout "
            f"of the repository")
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload is not None:
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            ap.error(f"unknown workload {args.workload!r}")
        kids = Children(args.work, time.monotonic() + DEADLINE_S)
        return run_one(args, bench, kids)
    kids = Children(args.work)
    if args.record:
        return record(args, bench, kids)
    return run_suite(args, bench, kids)


if __name__ == "__main__":
    sys.exit(main())
