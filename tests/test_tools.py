"""Tests for the command-line tools (rulec, simulate)."""

import json

import pytest

from repro.routing.base import RoutingError
from repro.tools.rulec import main as rulec_main, parse_params
from repro.tools.simulate import main as simulate_main


class TestRulec:
    def test_compile_shipped_ruleset(self, capsys):
        assert rulec_main(["--ruleset", "route_c", "-p", "d=4"]) == 0
        out = capsys.readouterr().out
        assert "decide_dir" in out
        assert "total rule-table memory" in out

    def test_compile_file(self, tmp_path, capsys):
        f = tmp_path / "tiny.rules"
        f.write_text("""
        VARIABLE x IN 0 TO 3
        ON tick()
          IF x < 3 THEN x <- x + 1;
        END tick;
        """)
        assert rulec_main([str(f)]) == 0
        out = capsys.readouterr().out
        assert "rule base tick" in out
        # x <- x + 1 guarded by a premise compiles to the paper's
        # "conditional increment" FCFB
        assert "conditional increment" in out

    def test_registers_flag(self, capsys):
        assert rulec_main(["--ruleset", "nafta", "--registers"]) == 0
        out = capsys.readouterr().out
        assert "usable_set" in out

    def test_verify_flag(self, capsys):
        assert rulec_main(["--ruleset", "route_c", "-p", "d=3",
                           "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verify decide_dir" in out
        assert "OK" in out

    def test_no_table_flag(self, capsys):
        assert rulec_main(["--ruleset", "route_c_merged", "-p", "d=8",
                           "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "decide_all" in out

    def test_syntax_error_reported(self, tmp_path, capsys):
        f = tmp_path / "broken.rules"
        f.write_text("ON f( garbage")
        assert rulec_main([str(f)]) == 1
        assert "rulec:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert rulec_main(["/nonexistent/x.rules"]) == 2

    def test_parse_params(self):
        assert parse_params(["d=6", "name=mesh"]) == {"d": 6, "name": "mesh"}
        with pytest.raises(SystemExit):
            parse_params(["bad"])


class TestSimulateCli:
    @staticmethod
    def _run_json(capsys, *argv) -> dict:
        assert simulate_main(["run", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def test_topology_choice_reaches_the_algorithm(self, capsys):
        argv = ["--dimension", "3", "--algorithm", "ecube",
                "--load", "0.05", "--cycles", "200", "--warmup", "50"]
        res = self._run_json(capsys, "--topology", "cube", *argv)
        assert res["messages_delivered"] > 0
        with pytest.raises(RoutingError, match="hypercubes"):
            simulate_main(["run", "--topology", "mesh", *argv])
        for kind in ("torus", "ring"):
            with pytest.raises(SystemExit):
                simulate_main(["run", "--topology", kind])

    def test_small_run(self, capsys):
        res = self._run_json(capsys, "--width", "4", "--height", "4",
                             "--algorithm", "xy", "--load", "0.05",
                             "--cycles", "300", "--warmup", "50")
        assert res["algorithm"] == "xy" and res["engine"] == "object"
        assert res["deadlocked"] is False
        assert res["messages_delivered"] > 0
        assert "mean_latency" in res

    def test_run_with_faults(self, capsys):
        res = self._run_json(capsys, "--width", "5", "--height", "5",
                             "--algorithm", "nafta", "--load", "0.08",
                             "--cycles", "400", "--warmup", "100",
                             "--link-faults", "2", "--seed", "3",
                             "--arbiter", "oldest_first",
                             "--cycles-per-step", "2")
        assert res["n_faults"] == 2
        assert res["deadlocked"] is False

    def test_cube_run(self, capsys):
        res = self._run_json(capsys, "--topology", "cube", "--dimension",
                             "3", "--algorithm", "route_c", "--load",
                             "0.08", "--cycles", "400", "--node-faults",
                             "1", "--seed", "2")
        assert res["n_faults"] == 1
        assert res["algorithm"] == "route_c"

    def test_sweep_seeds(self, capsys):
        assert simulate_main(["run", "--width", "4", "--height", "4",
                              "--algorithm", "xy", "--load", "0.05",
                              "--cycles", "200", "--warmup", "50",
                              "--sweep-seeds", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "2 seeds" in out
        assert "mean latency over seeds" in out

    def test_campaign_one_scenario(self, capsys, tmp_path):
        report = tmp_path / "campaign.json"
        assert simulate_main(["campaign", "--algorithm", "updown",
                              "--scenarios", "1", "--link-faults", "1",
                              "--width", "4", "--height", "4",
                              "--cycles", "300", "--load", "0.05",
                              "--no-cache", "--json", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert len(doc["scenarios"]) == 1
        assert doc["silent_loss"] == 0

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert simulate_main(["trace", "--algorithm", "nafta",
                              "--width", "4", "--height", "4",
                              "--load", "0.05", "--cycles", "200",
                              "--fault", "100:link:5,6",
                              "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert "delivered" in capsys.readouterr().out
