"""conform — fuzz the routing algorithms against the oracle registry.

Usage::

    python -m repro.tools.conform run --budget 60
    python -m repro.tools.conform run --cases 200 --algorithms nafta,route_c \
        --workers 4 --seed 3
    python -m repro.tools.conform run --budget 30 --mutate route_c_skip_safe_check
    python -m repro.tools.conform replay conformance/corpus/<entry>.json
    python -m repro.tools.conform shrink conformance/corpus/<entry>.json

``run`` generates seeded cases per algorithm (round-robin) until the
time or case budget is spent, fanning them out over the sweep pool.
Failing cases are shrunk to minimal repros and written to the corpus;
the exit status is the number of distinct failing cases (0 = clean).

``replay`` re-runs a corpus entry twice and checks (a) both runs agree
bit-for-bit (decision digest) and (b) the entry's recorded oracle
still fires — exit 0 iff the failure reproduces deterministically.
With ``--expect-clean`` the entry must instead pass every oracle
(useful after a fix lands: the corpus entry becomes a regression
test).

``shrink`` re-shrinks an entry in place (or to ``--out``), e.g. after
the shrinker learned new passes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from ..conformance import (ConformanceCase, generate_cases, run_case_payload,
                           save_entry, shrink_case)
from ..conformance.corpus import load_entry
from ..conformance.mutations import MUTATIONS
from ..conformance.runner import RUN_DEFAULTS
from ..experiments.pool import run_parallel
from ..routing.registry import ALGORITHM_META

#: cases dispatched per pool round while a time budget is in force
_CHUNK = 8


def _algorithms(arg: str | None) -> list[str]:
    if not arg:
        return sorted(ALGORITHM_META)
    names = [a.strip() for a in arg.split(",") if a.strip()]
    unknown = [a for a in names if a not in ALGORITHM_META]
    if unknown:
        raise SystemExit(f"unknown algorithm(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(sorted(ALGORITHM_META))}")
    return names


def cmd_run(args) -> int:
    algorithms = _algorithms(args.algorithms)
    if args.mutate and args.mutate not in MUTATIONS:
        raise SystemExit(f"unknown mutation {args.mutate!r}; choose from "
                         f"{', '.join(sorted(MUTATIONS))}")
    # run options ride in every payload, beside the case fields
    run = {k: getattr(args, k) for k, v in RUN_DEFAULTS.items()
           if getattr(args, k) != v}
    if args.frr:
        # FastReroute compiles backup tables around a fault-tolerant
        # inner algorithm; reject nft algorithms up front instead of
        # crashing every worker with the wrapper's ValueError
        from ..routing.registry import ALGORITHMS
        not_ft = [a for a in algorithms if not ALGORITHMS[a]().fault_tolerant]
        if not_ft:
            raise SystemExit(
                f"--frr needs fault-tolerant algorithms; "
                f"{', '.join(not_ft)} are not (pass --algorithms "
                f"with fault-tolerant names only)")
    stream = generate_cases(algorithms, args.seed, mutation=args.mutate)
    if args.cases:
        stream = itertools.islice(stream, args.cases)

    deadline = (time.monotonic() + args.budget) if args.budget else None
    reports: list[dict] = []
    failures: list[dict] = []
    ran = 0
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            break
        chunk = list(itertools.islice(stream, _CHUNK))
        if not chunk:
            break
        payloads = [{**c.to_dict(), **run} for c in chunk]
        reports.extend(run_parallel(payloads, run_case_payload,
                                    workers=args.workers,
                                    progress=args.progress,
                                    label="conform"))
        ran += len(chunk)
        failures = [r for r in reports if r["violations"]]
        if failures and args.fail_fast:
            break
        if args.cases and ran >= args.cases and deadline is None:
            break

    per_algo: dict[str, int] = {}
    for r in reports:
        per_algo[r["algorithm"]] = per_algo.get(r["algorithm"], 0) + 1
    print(f"conform run: {ran} cases, "
          f"{sum(len(r['violations']) for r in reports)} violations "
          f"in {len(failures)} failing cases "
          f"(seed {args.seed}"
          + (f", mutation {args.mutate}" if args.mutate else "")
          + "".join(f", {k} {v}" for k, v in run.items()) + ")")
    for name in sorted(per_algo):
        print(f"  {name}: {per_algo[name]} cases")

    for report in failures:
        case = ConformanceCase.from_dict(report["case"])
        oracles = sorted({v["oracle"] for v in report["violations"]})
        print(f"FAIL {case.algorithm} case {report['case_key']}: "
              f"{', '.join(oracles)}")
        for v in report["violations"][:3]:
            print(f"  - [{v['oracle']}] {v['message']}")
        if args.shrink:
            sstats: dict = {}
            small = shrink_case(case, max_evals=args.shrink_evals,
                                stats=sstats)
            sreport = run_case_payload(small.to_dict())
            path = save_entry(small, sreport["violations"],
                              corpus_dir=args.corpus_dir, original=case)
            print(f"  shrunk in {sstats['evals']} evals -> {path}")
        else:
            path = save_entry(case, report["violations"],
                              corpus_dir=args.corpus_dir)
            print(f"  saved -> {path}")

    return len(failures)


def cmd_replay(args) -> int:
    case, expected = load_entry(args.entry)
    first = run_case_payload(case.to_dict())
    second = run_case_payload(case.to_dict())
    if first["digest"] != second["digest"]:
        print(f"NONDETERMINISTIC: digests differ across replays "
              f"({first['digest'][:12]} vs {second['digest'][:12]})")
        return 1
    got = sorted({v["oracle"] for v in first["violations"]})
    if args.json:
        print(json.dumps(first, indent=1, sort_keys=True))
    if args.expect_clean:
        if got:
            print(f"expected clean, but oracles fired: {', '.join(got)}")
            for v in first["violations"][:5]:
                print(f"  - [{v['oracle']}] {v['message']}")
            return 1
        print(f"replay clean: case {first['case_key']} passes every "
              f"oracle (digest {first['digest'][:12]})")
        return 0
    want = sorted({v["oracle"] for v in expected})
    if not set(got) & set(want):
        print(f"NOT REPRODUCED: entry expects {', '.join(want) or '(none)'}"
              f", run fired {', '.join(got) or '(none)'}")
        return 1
    print(f"reproduced: case {first['case_key']} fires "
          f"{', '.join(sorted(set(got) & set(want)))} deterministically "
          f"(digest {first['digest'][:12]})")
    return 0


def cmd_shrink(args) -> int:
    case, _ = load_entry(args.entry)
    sstats: dict = {}
    small = shrink_case(case, max_evals=args.shrink_evals, stats=sstats)
    report = run_case_payload(small.to_dict())
    if not report["violations"]:
        print("case no longer fails any oracle; nothing to shrink")
        return 1
    out_dir = args.out if args.out else None
    path = save_entry(small, report["violations"], corpus_dir=out_dir,
                      original=case)
    print(f"shrunk in {sstats['evals']} evals "
          f"(target: {', '.join(sstats['target'])}) -> {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.conform",
        description="conformance fuzzing of the routing algorithms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="generate and judge cases")
    p_run.add_argument("--budget", type=float, default=0,
                       help="time budget in seconds (0 = use --cases)")
    p_run.add_argument("--cases", type=int, default=0,
                       help="case budget (0 with no --budget: 50)")
    p_run.add_argument("--algorithms",
                       help="comma-separated registry names (default all)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = in-process)")
    p_run.add_argument("--corpus-dir",
                       help="where failing entries go "
                            "(default conformance/corpus/)")
    p_run.set_defaults(**RUN_DEFAULTS)
    p_run.add_argument("--engine", choices=["object", "batched"],
                       help="simulation engine to run cases under; "
                            "batched must match the object oracle "
                            "bit-for-bit, so this doubles as an "
                            "engine-parity check")
    p_run.add_argument("--metrics", dest="metrics_stride",
                       action="store_const", const=1,
                       help="attach a stride-1 metrics timeseries to "
                            "every run; sampling must never perturb a "
                            "digest, so this doubles as an "
                            "observer-invisibility check")
    p_run.add_argument("--frr", action="store_true",
                       help="run every case with backup_routes=True; "
                            "conformance faults are static (never "
                            "confirmed), so the FastReroute wrapper "
                            "must stay fully transparent")
    p_run.add_argument("--mutate", metavar="NAME",
                       help="apply a registered test-only mutation "
                            f"({', '.join(sorted(MUTATIONS))})")
    p_run.add_argument("--no-shrink", dest="shrink", action="store_false",
                       help="save failing cases unshrunk")
    p_run.add_argument("--shrink-evals", type=int, default=250)
    p_run.add_argument("--fail-fast", action="store_true",
                       help="stop at the first failing chunk")
    p_run.add_argument("--progress", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="re-run a corpus entry")
    p_replay.add_argument("entry", help="corpus entry JSON file")
    p_replay.add_argument("--expect-clean", action="store_true",
                          help="succeed iff no oracle fires")
    p_replay.add_argument("--json", action="store_true",
                          help="dump the full run report")
    p_replay.set_defaults(func=cmd_replay)

    p_shrink = sub.add_parser("shrink", help="re-shrink a corpus entry")
    p_shrink.add_argument("entry", help="corpus entry JSON file")
    p_shrink.add_argument("--out", help="output corpus dir "
                                        "(default conformance/corpus/)")
    p_shrink.add_argument("--shrink-evals", type=int, default=250)
    p_shrink.set_defaults(func=cmd_shrink)

    args = parser.parse_args(argv)
    if args.command == "run" and not args.budget and not args.cases:
        args.cases = 50
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
