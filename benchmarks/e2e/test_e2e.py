"""Harness tests for the end-to-end benchmark (``pytest benchmarks/e2e``).

They check the benchmark's own contract — names, the metric map, seed
handling, output checks and span accounting — and drive every workload
once at ``--smoke`` size through both command-line forms.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import Tally, load_benchmark  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = load_benchmark()
E2E = [m["name"] for m in BENCH["end_to_end"]]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def layer_map() -> dict[str, tuple[str, list[str]]]:
    """README.md's per-layer table: metric -> (the end-to-end metric it
    explains, the workloads that exercise it).  A cell such as
    ``core.compile.calls``, ``.self_frac`` names two metrics."""
    text = (HERE / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Per-layer metrics", 1)[1].split("\n## ", 1)[0]
    out = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        explains = cells[2].strip("`")
        on = WORKLOADS if cells[3] == "all" \
            else [w.strip() for w in cells[3].split(",")]
        stem = ""
        for name in re.findall(r"`([^`]+)`", cells[0]):
            if name.startswith("."):
                name = stem + name
            stem = name.rpartition(".")[0]
            out[name] = (explains, on)
    return out


def test_names_match_grammar():
    names = WORKLOADS + E2E + [m["name"] for m in BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m


def test_workloads_and_bounds():
    assert tuple(WORKLOADS) == workloads.WORKLOADS
    bound = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert set(bound) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert 0 < bound["peak_rss_mb"] <= 0.10
    # wall_s misses the 10% target; README.md gives the spreads behind
    # this bound
    assert 0 < bound["wall_s"] <= 0.25
    # the benchmark format gives set-up time the largest bound
    assert bound["setup_s"] == max(bound.values()) <= 0.25


def test_every_layer_metric_names_an_e2e_metric_and_workloads():
    table = layer_map()
    assert set(table) == set(PER_LAYER)
    for name, (explains, on) in table.items():
        assert explains in E2E, name
        assert on and set(on) <= set(WORKLOADS), (name, on)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_the_generated_specs_and_nothing_else(workload):
    one = workloads.generate(workload, 1)
    assert workloads.generate(workload, 1) == one
    two = workloads.generate(workload, 2)
    assert [(o["name"], o["kind"]) for o in one] \
        == [(o["name"], o["kind"]) for o in two]
    seed_keys = {"seed", "fault_links", "timed_faults"}
    changed = False
    for a, b in zip(one, two):
        inner_a = a.get("spec") or a.get("kw") or {}
        inner_b = b.get("spec") or b.get("kw") or {}
        assert {k: v for k, v in a.items() if k not in ("spec", "kw")} \
            == {k: v for k, v in b.items() if k not in ("spec", "kw")}
        diff = {k for k in inner_a.keys() | inner_b.keys()
                if inner_a.get(k) != inner_b.get(k)}
        assert diff <= seed_keys, (a["name"], diff)
        changed |= bool(diff)
    assert changed


def _record(digests: dict, violations=None, trace=False) -> dict:
    return {"trace": trace,
            "ops": [{"name": n, "digest": d,
                     "violations": (violations or {}).get(n, [])}
                    for n, d in digests.items()]}


def test_a_planted_wrong_digest_counts_as_a_failed_op():
    expected = {"1": {"w": {"a": "aaa", "b": "bbb"}}}
    tally = Tally("w", 1, False, expected)
    assert tally.add(_record({"a": "aaa", "b": "bbb"})) == 0
    assert tally.add(_record({"a": "aaa", "b": "planted"})) == 1
    assert tally.attempted == 4 and tally.failed == 1
    assert "digest differs" in tally.failures[0]
    # on a seed without recorded digests, runs must still agree
    free = Tally("w", 9, False, expected)
    free.add(_record({"a": "x"}))
    assert free.add(_record({"a": "y"}, trace=True)) == 1
    assert "(traced)" in free.failures[0]
    # invariants, missing ops and crashed runs fail too
    assert tally.add(_record({"a": "aaa", "b": "bbb"},
                             {"a": ["deadlocked"]})) == 1
    assert tally.add(_record({"a": "aaa"})) == 1
    assert tally.add(None) == 2


def test_spans_nest_so_self_times_are_non_negative():
    tracer = spans.Tracer()

    def leaf(n):
        return sum(i * i for i in range(n))

    leaf_t = tracer.span("leaf", leaf)
    middle_t = tracer.span("middle", lambda n: leaf_t(n) + leaf_t(n))
    outer_t = tracer.span("outer", lambda n: middle_t(n) + middle_t(n))
    # same-name nesting (a wrapper delegating to what it wraps)
    inner = tracer.span("route", leaf)
    wrapper = tracer.span("route", lambda n: inner(n))
    outer_t(20000)
    wrapper(20000)
    assert tracer.calls == {"leaf": 4, "middle": 2, "outer": 1, "route": 1}
    for name, s in tracer.self_s.items():
        assert s >= 0, name
    covered = sum(tracer.self_s[n] for n in ("leaf", "middle", "outer"))
    assert covered == pytest.approx(tracer.total["outer"], rel=1e-9)
    assert tracer.self_s["route"] == pytest.approx(tracer.total["route"],
                                                   rel=1e-9)


def test_compare_verdicts():
    a = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(a, a, 0.1, "lower") == "unchanged"
    assert compare.verdict(a, [v * 1.3 for v in a], 0.1, "lower") == "worse"
    assert compare.verdict(a, [v * 0.7 for v in a], 0.1, "lower") == "better"
    assert compare.verdict(a, [v * 0.7 for v in a], 0.1,
                           "higher") == "worse"
    wide = [7.0, 9.0, 11.0, 13.0, 15.0]
    assert compare.verdict(a, wide, 0.1, "lower") == "unresolved"
    # a wide spread still resolves when every run of one side wins
    assert compare.verdict(wide, [v + 9 for v in wide], 0.1,
                           "lower") == "worse"
    # the absolute floor keeps sub-second set-up noise unchanged
    assert compare.verdict([0.2] * 5, [0.28] * 5, 0.25, "lower",
                           floor=0.1) == "unchanged"


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=timeout)


def test_smoke_suite_drives_every_workload(tmp_path):
    out = tmp_path / "suite.json"
    proc = _run(["benchmarks/e2e/run.py", "--smoke", "--seconds", "0",
                 "--trace", "--work", str(tmp_path / "work"),
                 "--out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == set(WORKLOADS)
    for w, data in result["workloads"].items():
        assert data["ops"] > 0 and data["ops_failed"] == 0, (w, data)
    for name in E2E + ["failed_frac"]:
        assert name in proc.stdout
    for w in WORKLOADS:
        metrics = result["trace"][w]
        assert set(metrics) == set(PER_LAYER)
        for name, value in metrics.items():
            if name.endswith("_frac") and name != "trace.overhead_frac":
                assert 0.0 <= value <= 1.0, (w, name, value)
    # every span shows up on the workloads the map says exercise it
    for name, (_, on) in layer_map().items():
        if name.endswith(".self_frac"):
            assert any(result["trace"][w][name] for w in on), name


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_prints_one_result_line(tmp_path, trace):
    proc = _run(["benchmarks/e2e/run.py", "--workload", "paper_tables",
                 "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--smoke", "--work", str(tmp_path / "work")])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in specs}


def test_fails_without_the_repository_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    t0 = time.monotonic()
    proc = _run(["benchmarks/e2e/run.py", "--workload", "chaos", "--seed",
                 "1", "--seconds", "10", "--trace", "0"], cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - t0 < 60
