"""benchmarks/check_regression.py: direction-aware gating.

The checker mixes higher-is-better rates and lower-is-better recovery
gap metrics in one TRACKED table; these tests drive one
invocation over a report containing both directions and check each
regression class fires (and only fires) on its own side.
"""

import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" /
    "check_regression.py")
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


BASELINE = {
    "decision_throughput": {"fastpath_decisions_per_sec": 100_000.0},
    "batched_engine": {"cycles_per_sec": 5_000.0},
    "reroute": {"cycles_of_loss": 0.0,
                "time_to_recover_cycles": 40.0},
}


def _write(tmp_path, name, report):
    p = tmp_path / name
    p.write_text(json.dumps(report))
    return str(p)


def _run(tmp_path, current, threshold=0.30):
    base = _write(tmp_path, "baseline.json", BASELINE)
    cur = _write(tmp_path, "current.json", current)
    return check_regression.main([cur, "--baseline", base,
                                  "--threshold", str(threshold)])


def test_mixed_directions_all_within_threshold(tmp_path, capsys):
    # one invocation covering both directions: two slightly slower
    # rates and a slightly larger recovery gap all pass
    current = {
        "decision_throughput": {"fastpath_decisions_per_sec": 90_000.0},
        "batched_engine": {"cycles_per_sec": 4_400.0},
        "reroute": {"cycles_of_loss": 0.0,
                    "time_to_recover_cycles": 48.0},
    }
    assert _run(tmp_path, current) == 0
    out = capsys.readouterr().out
    assert "within threshold" in out


def test_higher_is_better_drop_fails(tmp_path, capsys):
    current = {
        "decision_throughput": {"fastpath_decisions_per_sec": 60_000.0},
        "batched_engine": {"cycles_per_sec": 5_000.0},
        "reroute": {"cycles_of_loss": 0.0,
                    "time_to_recover_cycles": 40.0},
    }
    assert _run(tmp_path, current) == 1
    err = capsys.readouterr().err
    assert "fastpath decisions/sec" in err
    assert "below the baseline" in err


def test_lower_is_better_rise_fails(tmp_path, capsys):
    # the rate metrics are fine; only the lower-is-better recovery gap
    # regressed — the direction flip must catch the *rise*
    current = {
        "decision_throughput": {"fastpath_decisions_per_sec": 100_000.0},
        "batched_engine": {"cycles_per_sec": 6_000.0},
        "reroute": {"cycles_of_loss": 0.0,
                    "time_to_recover_cycles": 56.0},
    }
    assert _run(tmp_path, current) == 1
    err = capsys.readouterr().err
    assert "recovery gap" in err
    assert "above the baseline" in err


def test_lower_is_better_improvement_passes(tmp_path):
    current = {"decision_throughput": {"fastpath_decisions_per_sec":
                                       100_000.0},
               "reroute": {"cycles_of_loss": 0.0,
                           "time_to_recover_cycles": 20.0},
               "batched_engine": {"cycles_per_sec": 10_000.0}}
    assert _run(tmp_path, current) == 0


def test_zero_baseline_held_exactly(tmp_path, capsys):
    current = {"reroute": {"cycles_of_loss": 1.0,
                           "time_to_recover_cycles": 40.0}}
    assert _run(tmp_path, current) == 1
    err = capsys.readouterr().err
    assert "zero baseline" in err


def test_both_directions_fail_in_one_invocation(tmp_path, capsys):
    current = {
        "decision_throughput": {"fastpath_decisions_per_sec": 50_000.0},
        "reroute": {"time_to_recover_cycles": 60.0},
    }
    assert _run(tmp_path, current) == 1
    err = capsys.readouterr().err
    assert "fastpath decisions/sec" in err and "recovery gap" in err


def test_missing_metrics_skipped(tmp_path, capsys):
    # tracked metrics the baseline lacks (hypercube, the two low/
    # moderate-load rates) belong to the other baseline: skipped, even
    # when the report has them
    current = {**BASELINE, "hypercube": {"cycles_per_sec": 1.0}}
    assert _run(tmp_path, current) == 0
    out = capsys.readouterr().out
    assert "hypercube batched cycles/sec" in out
    assert "not in this baseline" in out


def test_metric_missing_from_the_report_fails(tmp_path, capsys):
    # a section the report stopped writing must not pass the gate
    current = {k: v for k, v in BASELINE.items() if k != "batched_engine"}
    assert _run(tmp_path, current) == 1
    err = capsys.readouterr().err
    assert "batched engine cycles/sec" in err
    assert "missing from the report" in err


def test_quick_report_uses_quick_reference(tmp_path, capsys):
    baseline = {
        "batched_engine": {"cycles_per_sec": 1_000.0},
        "quick_reference": {"batched_engine": {"cycles_per_sec": 3_000.0}},
    }
    current = {"quick": True, "batched_engine": {"cycles_per_sec": 2_900.0}}
    base = _write(tmp_path, "baseline.json", baseline)
    cur = _write(tmp_path, "current.json", current)
    assert check_regression.main([cur, "--baseline", base]) == 0
    assert "quick_reference" in capsys.readouterr().out
    # ... and a quick report that only beats the *full* numbers fails
    current["batched_engine"]["cycles_per_sec"] = 1_100.0
    cur = _write(tmp_path, "current2.json", current)
    assert check_regression.main([cur, "--baseline", base]) == 1


@pytest.mark.parametrize("value,expect", [
    (123456.0, "123,456"), (0.2749, "0.2749"), (2.6789, "2.679"),
])
def test_fmt_keeps_small_values_readable(value, expect):
    assert check_regression._fmt(value) == expect
