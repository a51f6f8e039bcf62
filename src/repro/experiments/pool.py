"""Parallel sweep engine with a content-addressed result cache.

The paper's evaluation is reproduced by sweeping many fully independent
simulation points (loads, fault counts, seeds, algorithms).  This
module fans a batch of :class:`~repro.experiments.runners.WorkloadSpec`
points out over a :class:`concurrent.futures.ProcessPoolExecutor` and
memoizes every point's result on disk under a content address, so
re-running a sweep only simulates points whose spec *or* code changed.

Design constraints the engine enforces:

* **Process safety** — workers receive ``spec.to_dict()`` payloads
  (topology *descriptions*, never live ``Topology`` objects) and
  rebuild the simulation from scratch; message ids are allocated
  per-``Network``, so results are byte-identical whether a point runs
  in-process, in a worker, or is replayed from the cache.
* **Submission order** — results come back in the order the specs were
  given, regardless of worker completion order.
* **Content addressing** — the cache key is
  ``sha256(code_version_token + canonical spec JSON)``; the code token
  hashes every ``repro`` source and ruleset file, so any change to the
  simulator, the routing algorithms or the DSL invalidates all cached
  points automatically.  Cache layout: one
  ``benchmarks/results/cache/<key>.json`` per point holding
  ``{schema, key, code_token, spec, result}``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from hashlib import sha256
from pathlib import Path

from .harness import results_dir
from .runners import WorkloadSpec, run_workload

#: bump to invalidate every cache entry independently of source changes
CACHE_SCHEMA = 1

_code_token: str | None = None


def code_version_token() -> str:
    """Hash of the whole ``repro`` package source (``*.py`` and the
    ``*.rules`` rulesets), memoized per process.  Simulation results
    are a function of (spec, code); this is the code half of the cache
    key."""
    global _code_token
    if _code_token is None:
        root = Path(__file__).resolve().parents[1]
        h = sha256()
        h.update(f"schema={CACHE_SCHEMA}".encode())
        files = sorted(list(root.rglob("*.py")) + list(root.rglob("*.rules")))
        for path in files:
            h.update(b"\0")
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _code_token = h.hexdigest()[:20]
    return _code_token


def default_cache_dir() -> Path:
    """``benchmarks/results/cache/`` (follows ``REPRO_RESULTS_DIR``)."""
    return results_dir() / "cache"


def effective_workers(requested: int, n_payloads: int) -> int:
    """The process count a ``workers=N`` request actually gets.

    Never more workers than payloads, and never more than
    ``os.cpu_count()``: on a 1-CPU machine a process pool cannot run
    two workers concurrently, so fan-out only pays fork + pickle
    overhead (a 0.83x "speed-up" when it was measured).  Anything
    that clamps to <= 1 runs serially
    in-process through the same worker entry point, which is
    byte-identical by construction."""
    return min(int(requested), n_payloads, os.cpu_count() or 1)


def _run_spec_dict(payload: dict) -> dict:
    """Worker entry point: rebuild the spec (topology included) inside
    the worker process and run it.  Top-level so it pickles."""
    return run_workload(WorkloadSpec.from_dict(payload))


def _cache_load(path: Path, key: str) -> dict | None:
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except (OSError, ValueError):
        return None
    if blob.get("schema") != CACHE_SCHEMA or blob.get("key") != key:
        return None
    return blob.get("result")


def _cache_store(path: Path, key: str, token: str, spec_dict: dict,
                 result: dict) -> None:
    blob = {"schema": CACHE_SCHEMA, "key": key, "code_token": token,
            "spec": spec_dict, "result": result}
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(json.dumps(blob, sort_keys=True) + "\n")
        os.replace(tmp, path)  # atomic: concurrent sweeps never see torn files
    except OSError:
        tmp.unlink(missing_ok=True)


class _Progress:
    """Per-sweep progress lines: done/total, cache hits, ETA from the
    simulated-point rate (cache hits are ~free and would skew it)."""

    def __init__(self, sink, label: str, total: int, hits: int):
        self.sink = (sink if callable(sink)
                     else (lambda line: print(line, file=sys.stderr,
                                              flush=True)))
        self.enabled = bool(sink)
        self.label = label
        self.total = total
        self.hits = hits
        self.done = hits
        self.t0 = time.perf_counter()

    def tick(self) -> None:
        self.done += 1
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self.t0
        simulated = self.done - self.hits
        rate = simulated / elapsed if elapsed > 0 else 0.0
        left = self.total - self.done
        eta = f"{left / rate:5.1f}s" if rate > 0 else "  ?  "
        self.sink(f"[{self.label}] {self.done}/{self.total} done "
                  f"({self.hits} cache hits), ETA {eta}")


def run_parallel(payloads, worker, *, workers: int = 0, progress=False,
                 label: str = "batch", stats: dict | None = None,
                 hits: int = 0, total: int | None = None) -> list:
    """Fan ``payloads`` out over a process pool, results in submission
    order.

    The generic core of :func:`run_sweep`, also used by the conformance
    harness: ``worker`` must be a top-level (picklable) callable taking
    one payload.  ``workers`` is clamped by :func:`effective_workers`
    (never more processes than payloads or CPUs); ``workers=0`` (or 1,
    or any request on a single-CPU machine) runs in-process through the
    same entry point, so serial and parallel runs are identical by
    construction.  ``hits``/``total`` only pre-load the progress
    display for callers that satisfied some points elsewhere (e.g. from
    a cache).
    """
    payloads = list(payloads)
    t0 = time.perf_counter()
    results: list = [None] * len(payloads)
    prog = _Progress(progress, label,
                     total if total is not None else len(payloads), hits)
    n_workers = effective_workers(workers, len(payloads))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = {pool.submit(worker, p): i
                       for i, p in enumerate(payloads)}
            for fut in as_completed(futures):
                results[futures[fut]] = fut.result()
                prog.tick()
    else:
        for i, payload in enumerate(payloads):
            results[i] = worker(payload)
            prog.tick()
    if stats is not None:
        stats.update(total=len(payloads), workers=n_workers,
                     wall_s=time.perf_counter() - t0)
    return results


def run_sweep(specs, *, workers: int = 0, cache: bool = False,
              cache_dir=None, progress=False, label: str = "sweep",
              stats: dict | None = None) -> list[dict]:
    """Run a batch of workload specs, in submission order.

    ``workers=0`` (or 1) runs in-process; ``workers=N`` fans the
    uncached points out over at most N worker processes (clamped by
    :func:`effective_workers` to the point count and the machine's
    CPUs — a 1-CPU machine always runs serially).  ``cache=True`` reads
    and writes the content-addressed result cache (``cache_dir``
    defaults to :func:`default_cache_dir`).  ``progress`` is ``False``,
    ``True`` (lines to stderr) or a callable sink.  ``stats``, if
    given, is filled with ``total`` / ``cache_hits`` / ``simulated`` /
    ``workers`` / ``wall_s``.
    """
    specs = list(specs)
    t0 = time.perf_counter()
    token = code_version_token()
    keys = [spec.spec_key(token) for spec in specs]
    payloads = [spec.to_dict() for spec in specs]
    results: list[dict | None] = [None] * len(specs)

    cdir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    hits = 0
    if cache:
        cdir.mkdir(parents=True, exist_ok=True)
        for i, key in enumerate(keys):
            res = _cache_load(cdir / f"{key}.json", key)
            if res is not None:
                results[i] = res
                hits += 1

    todo = [i for i, res in enumerate(results) if res is None]
    sub = run_parallel([payloads[i] for i in todo], _run_spec_dict,
                       workers=workers, progress=progress, label=label,
                       hits=hits, total=len(specs))
    for i, res in zip(todo, sub):
        results[i] = res

    if cache:
        for i in todo:
            _cache_store(cdir / f"{keys[i]}.json", keys[i], token,
                         payloads[i], results[i])

    if stats is not None:
        stats.update(total=len(specs), cache_hits=hits, simulated=len(todo),
                     workers=effective_workers(workers, len(todo)),
                     wall_s=time.perf_counter() - t0)
    return results
