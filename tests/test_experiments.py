"""Tests for the experiments package (runners, harness, paper data)."""

import gc
import weakref

import pytest

from repro.experiments import (PAPER, PAPER_TABLE1, WorkloadSpec, fmt,
                               latency_vs_load, mesh_fault_sweep,
                               paper_table2_row, run_workload,
                               saturation_throughput, table)
from repro.sim import Mesh2D
from repro.sim.batched import batched_fallback_reason


class TestRunners:
    def test_run_workload_summary(self):
        spec = WorkloadSpec(topology=Mesh2D(4, 4), algorithm="xy",
                            load=0.05, cycles=300, warmup=50, seed=1)
        res = run_workload(spec)
        assert res["algorithm"] == "xy"
        assert res["messages_delivered"] > 0
        assert not res["deadlocked"]
        assert res["undelivered"] == 0

    def test_run_without_drain(self):
        spec = WorkloadSpec(topology=Mesh2D(4, 4), algorithm="xy",
                            load=0.2, cycles=200, warmup=50, seed=1,
                            drain=False)
        res = run_workload(spec)
        assert res["cycles"] <= 200

    def test_latency_vs_load_monotone_points(self):
        points = latency_vs_load(lambda: Mesh2D(4, 4), "xy",
                                 [0.05, 0.15], cycles=400, warmup=100,
                                 seed=2)
        assert [p["load"] for p in points] == [0.05, 0.15]
        assert saturation_throughput(points) > 0.04

    def test_mesh_fault_sweep_counts(self):
        rows = mesh_fault_sweep("nafta", [0, 2], width=5, height=5,
                                load=0.08, cycles=400, warmup=100)
        assert [r["n_link_faults"] for r in rows] == [0, 2]
        assert rows[1]["n_faults"] == 2

    def test_cycles_per_step_passed_through(self):
        spec = WorkloadSpec(topology=Mesh2D(4, 4), algorithm="xy",
                            load=0.05, cycles=300, warmup=50, seed=1,
                            cycles_per_step=3)
        res = run_workload(spec)
        base = run_workload(WorkloadSpec(topology=Mesh2D(4, 4),
                                         algorithm="xy", load=0.05,
                                         cycles=300, warmup=50, seed=1))
        assert res["mean_latency"] > base["mean_latency"]

    @pytest.mark.skipif(batched_fallback_reason() is not None,
                        reason="batched engine unavailable")
    def test_finished_batched_network_freed_without_gc(self, monkeypatch):
        """A campaign runs scenario after scenario in one process; each
        finished network (numpy arrays, C buffers) must be freed by
        refcounting alone, not left for a cyclic GC pass."""
        from repro.experiments import runners
        real_build = runners.build_network
        built = []

        def build(*args, **kwargs):
            net = real_build(*args, **kwargs)
            built.append((weakref.ref(net), weakref.ref(net._tab)))
            return net

        monkeypatch.setattr(runners, "build_network", build)
        spec = WorkloadSpec(topology=Mesh2D(4, 4), algorithm="nafta",
                            load=0.1, cycles=200, warmup=50, seed=1,
                            engine="batched")
        gc.disable()
        try:
            run_workload(spec)
            (net, table), = built
            assert net() is None
            assert table() is None
        finally:
            gc.enable()


class TestHarness:
    def test_fmt(self):
        assert fmt(3) == "3"
        assert fmt(3.14159) == "3.142"
        assert fmt(31.4159) == "31.42"
        assert fmt(float("nan")) == "nan"
        assert fmt("x") == "x"

    def test_table_renders(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": float("nan")}]
        out = table(rows, [("a", "alpha"), ("b", "beta")], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "alpha" in lines[1]
        assert "nan" in lines[-1]

    def test_table_empty_rows(self):
        out = table([], [("a", "alpha")], title="T")
        assert "alpha" in out

    def test_save_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.experiments import save_report
        p = save_report("unit_test_report", "hello world")
        assert p.read_text().strip() == "hello world"
        assert "hello world" in capsys.readouterr().out


class TestPaperData:
    def test_table1_totals(self):
        total = sum(e * w for e, w, *_ in PAPER_TABLE1.values())
        # 1024*8 + 256*7 + 64*28 + 64*8 + 64*9 + 32*9 + 16*4 + 4*4
        # + 3*4 + 2*3 + 2*7
        assert total == 13264

    def test_table2_parametric_rows(self):
        e, w, _, _, nft = paper_table2_row("decide_vc", 6, 2)
        assert (e, w) == (24, 3)
        assert not nft
        e, w, _, _, nft = paper_table2_row("decide_dir", 6, 2)
        assert (e, w) == (512, 4)
        assert nft

    def test_register_formulas(self):
        assert PAPER["route_c_register_bits"](6) == 15 * 6 + 2 * 3 + 3
        assert PAPER["route_c_register_bits_nft"](6) == 54
        assert PAPER["merged_entries"](6) == 1024 * 64
        assert PAPER["merged_width"](6, 2) == 9

    def test_step_counts(self):
        assert PAPER["nafta_steps_worst"] == 3
        assert PAPER["route_c_steps"] == 2
