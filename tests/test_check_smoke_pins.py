"""benchmarks/check_smoke_pins.py: one table of smoke floors and pins.

The table must cover exactly the benchmark's workloads, and a result
line must fail on a floor undershot, a pin moved (floats compared at
12 decimals), an incorrect run or a crashed one, and on nothing else.
"""

import importlib.util
import json
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_smoke_pins", _ROOT / "benchmarks" / "check_smoke_pins.py")
check_smoke_pins = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_smoke_pins)
TABLE = check_smoke_pins.TABLE
failures = check_smoke_pins.failures


def _result(workload: str, **moved) -> dict:
    """A correct result line at ``workload``'s floors and pins, with
    the metrics in ``moved`` replaced."""
    row = TABLE[workload]
    values = {**row["floors"], **row["pins"], **moved}
    return {"correct": True,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def test_table_covers_every_benchmark_workload():
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text())
    assert set(TABLE) == {w["name"] for w in bench["workloads"]}


def test_values_at_the_table_pass():
    for workload in TABLE:
        assert failures(workload, _result(workload)) == []


def test_floor_pin_and_correctness_each_fail():
    above = _result("chaos", **{"routing.native_frac": 0.9})
    assert failures("chaos", above) == []
    low = _result("chaos", **{"routing.native_frac": 0.7})
    assert [f.split(" ")[1] for f in failures("chaos", low)] \
        == ["routing.native_frac"]
    # a float pin holds to 12 decimals, not beyond
    steps = TABLE["paper_tables"]["pins"]["core.steps_per_decision"]
    near = _result("paper_tables",
                   **{"core.steps_per_decision": steps + 1e-14})
    assert failures("paper_tables", near) == []
    moved = _result("paper_tables", **{"sim.decisions": 13587})
    assert failures("paper_tables", moved) \
        == ["paper_tables: sim.decisions 13587 != pinned 13586"]
    wrong = dict(_result("latency_load"), correct=False)
    assert len(failures("latency_load", wrong)) == 1
    # a run that exited non-zero has no result line
    assert failures("chaos", None) == ["chaos: run.py exited non-zero"]
