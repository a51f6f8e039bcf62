"""benchmarks/kernel_stages.py on the smoke sizes of ``native_mesh``:
every kernel call of the job is timed and counted, and the two walks
report the occupied input VCs they visited."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.sim.batched import batched_fallback_reason

_ROOT = pathlib.Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    batched_fallback_reason() is not None,
    reason=f"batched engine unavailable: {batched_fallback_reason()}")


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(_ROOT / "benchmarks" / "kernel_stages.py"),
         "--smoke", *args], cwd=_ROOT, env=env, capture_output=True,
        text=True, timeout=300)


def test_smoke_job_times_and_counts_every_walk():
    out = _run("--json")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout)
    assert res["workload"] == "native_mesh" and res["smoke"]
    cycles = 500                        # the smoke op's 16x16 run
    for name in ("k_flush", "k_route_scan", "k_alloc"):
        assert res["calls"][name] == cycles, name
    assert set(res["visits"]) == {"k_route_scan", "k_alloc"}
    # every VC the route scan visits holds flits, so the allocation
    # walk, which visits every VC holding flits, sees at least as many
    assert 0 < res["visits"]["k_route_scan"] <= res["visits"]["k_alloc"]
    assert 0 < sum(res["secs"].values()) < res["job_s"]


def test_report_names_the_walks_per_visited_vc():
    out = _run("--op", "16x16")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("native_mesh seed 1 (smoke): 1 ops")
    walks = [line for line in lines if line.startswith(("k_alloc",
                                                        "k_route_scan"))]
    assert len(walks) == 2
    for line in walks:
        assert len(line.split()) == 6       # ... visited VCs, ns/VC
    assert lines[-1].startswith("job")


def test_an_op_filter_matching_nothing_fails():
    out = _run("--op", "no such op")
    assert out.returncode != 0
    assert "no native_mesh op name contains" in out.stderr
