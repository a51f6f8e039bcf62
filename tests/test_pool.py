"""Tests for the parallel sweep engine: spec serialization round-trips,
serial/parallel/cached determinism, per-network message-id isolation,
and the sequence-seeded fault sweeps."""

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import pytest

from repro.experiments import (WorkloadSpec, code_version_token,
                               run_sweep, run_workload, sweep_fault_rng)
from repro.routing.registry import make_algorithm
from repro.sim import (Mesh2D, Network, SimConfig,
                       random_link_faults)


def small_spec(**over) -> WorkloadSpec:
    kw = dict(topology=Mesh2D(4, 4), algorithm="xy", load=0.08,
              cycles=300, warmup=50, seed=5)
    kw.update(over)
    return WorkloadSpec(**kw)


def _spec_key_in_subprocess(payload: dict) -> str:
    """Round-trip the spec through a dict in another process and hash
    it there (top-level so it pickles)."""
    return WorkloadSpec.from_dict(payload).spec_key()


class TestSpecRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        spec = small_spec(algorithm="nafta",
                          fault_links=[(5, 9), (1, 2)], fault_nodes=[3])
        d = spec.to_dict()
        rebuilt = WorkloadSpec.from_dict(d)
        assert rebuilt.to_dict() == d
        assert rebuilt.spec_key() == spec.spec_key()
        assert rebuilt.build_topology().n_nodes == 16

    def test_to_dict_is_json_canonical(self):
        d = small_spec(fault_links=[(9, 5)]).to_dict()
        assert json.loads(json.dumps(d)) == d
        # link endpoints are canonicalized (a < b)
        assert d["fault_links"] == [[5, 9]]

    def test_spec_key_invariant_under_fault_ordering(self):
        a = small_spec(fault_links=[(1, 2), (5, 9)], fault_nodes=[7, 3])
        b = small_spec(fault_links=[(9, 5), (2, 1)], fault_nodes=[3, 7])
        assert a.spec_key() == b.spec_key()

    def test_spec_key_distinguishes_fields(self):
        base = small_spec()
        assert base.spec_key() != small_spec(seed=6).spec_key()
        assert base.spec_key() != small_spec(load=0.09).spec_key()
        assert base.spec_key() != small_spec(drain=False).spec_key()
        assert base.spec_key() != \
            small_spec(topology=Mesh2D(4, 5)).spec_key()

    def test_spec_key_includes_code_token(self):
        spec = small_spec()
        assert spec.spec_key("tokenA") != spec.spec_key("tokenB")
        assert spec.spec_key() == spec.spec_key(code_version_token())

    def test_policy_and_pattern_kwargs_round_trip(self):
        spec = small_spec(algorithm="nafta", pattern="hotspot",
                          pattern_kwargs={"hotspot": 5, "fraction": 0.3})
        d = spec.to_dict()
        rebuilt = WorkloadSpec.from_dict(d)
        assert rebuilt.to_dict() == d
        assert rebuilt.pattern_kwargs == {"hotspot": 5, "fraction": 0.3}
        assert rebuilt.spec_key() == spec.spec_key()

    def test_every_field_serialized(self):
        # defaults are written too: spec_key already embeds the code
        # token, so no cached key outlives a change to the field set
        d = small_spec().to_dict()
        assert set(d) == {f.name for f in fields(WorkloadSpec)}
        assert d["pattern_kwargs"] == {}
        assert WorkloadSpec.from_dict(d).to_dict() == d

    def test_unknown_pattern_rejected_at_spec_parse(self):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            small_spec(pattern="nope")
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            WorkloadSpec.from_dict({**small_spec().to_dict(),
                                    "pattern": "nope"})

    def test_unknown_pattern_kwarg_rejected_at_spec_parse(self):
        # a misspelt key fails here, not as a TypeError in a worker
        with pytest.raises(ValueError,
                           match="takes no argument hotpsot; it accepts "
                                 "hotspot, fraction"):
            small_spec(pattern="hotspot", pattern_kwargs={"hotpsot": 3})

    def test_spec_key_stable_across_processes(self):
        spec = small_spec(algorithm="nafta", fault_links=[(5, 9)])
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_spec_key_in_subprocess,
                                 spec.to_dict()).result()
        assert remote == spec.spec_key()

    def test_topology_description_spelling_is_equivalent(self):
        live = small_spec()
        described = small_spec(
            topology={"kind": "mesh2d", "width": 4, "height": 4})
        assert live.spec_key() == described.spec_key()
        assert json.dumps(run_workload(described), sort_keys=True) == \
            json.dumps(run_workload(live), sort_keys=True)


class TestSweepDeterminism:
    def specs(self):
        return [small_spec(algorithm=algo, load=load)
                for algo in ("xy", "nafta") for load in (0.05, 0.12)]

    def test_serial_parallel_and_cache_byte_identical(self, tmp_path):
        dump = lambda rows: json.dumps(rows, sort_keys=True)  # noqa: E731
        serial_stats, par_stats, warm_stats = {}, {}, {}
        serial = run_sweep(self.specs(), workers=0, cache=False,
                           stats=serial_stats)
        parallel = run_sweep(self.specs(), workers=2, cache=True,
                             cache_dir=tmp_path, stats=par_stats)
        warm = run_sweep(self.specs(), workers=2, cache=True,
                         cache_dir=tmp_path, stats=warm_stats)
        assert dump(serial) == dump(parallel) == dump(warm)
        assert serial_stats["cache_hits"] == 0
        assert par_stats["cache_hits"] == 0 and par_stats["simulated"] == 4
        assert warm_stats["cache_hits"] == 4 and warm_stats["simulated"] == 0
        # the cache directory holds one content-addressed file per point
        assert len(list(tmp_path.glob("*.json"))) == 4

    def test_results_in_submission_order(self, tmp_path):
        specs = self.specs()
        results = run_sweep(specs, workers=2, cache=False)
        assert [r["algorithm"] for r in results] == \
            [s.algorithm for s in specs]
        assert [r["load"] for r in results] == [s.load for s in specs]

    def test_progress_lines(self, tmp_path):
        lines = []
        run_sweep(self.specs()[:2], workers=0, cache=True,
                  cache_dir=tmp_path, progress=lines.append, label="unit")
        assert len(lines) == 2
        assert lines[-1].startswith("[unit] 2/2 done")
        assert "cache hits" in lines[-1] and "ETA" in lines[-1]

    def test_truncated_cache_entry_is_resimulated(self, tmp_path):
        specs = self.specs()[:1]
        first = run_sweep(specs, workers=0, cache=True, cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.json")
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])
        stats: dict = {}
        again = run_sweep(specs, workers=0, cache=True, cache_dir=tmp_path,
                          stats=stats)
        assert stats["cache_hits"] == 0 and stats["simulated"] == 1
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(first, sort_keys=True)
        # the entry is rewritten whole, and the next sweep reads it
        assert json.loads(path.read_text()) == json.loads(good)
        run_sweep(specs, workers=0, cache=True, cache_dir=tmp_path,
                  stats=stats)
        assert stats["cache_hits"] == 1 and stats["simulated"] == 0

    def test_cache_miss_on_spec_change(self, tmp_path):
        run_sweep(self.specs(), workers=0, cache=True, cache_dir=tmp_path)
        stats: dict = {}
        changed = [small_spec(algorithm="xy", load=0.05, seed=99)]
        run_sweep(changed, workers=0, cache=True, cache_dir=tmp_path,
                  stats=stats)
        assert stats["cache_hits"] == 0 and stats["simulated"] == 1


class TestWorkerClamping:
    """``workers=N`` never over-subscribes the machine: requests clamp
    to ``os.cpu_count()`` (and the payload count), and anything that
    clamps to <= 1 runs serially in-process instead of paying
    process-pool overhead."""

    def specs(self):
        return [small_spec(load=load) for load in (0.05, 0.12)]

    def test_effective_workers_clamps(self, monkeypatch):
        import os

        from repro.experiments.pool import effective_workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert effective_workers(8, 100) == 2      # CPU-bound
        assert effective_workers(2, 1) == 1        # payload-bound
        assert effective_workers(0, 100) == 0      # explicit serial
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert effective_workers(8, 100) == 1      # unknown CPUs: serial

    def test_single_cpu_falls_back_to_serial(self, monkeypatch, tmp_path):
        """On a 1-CPU machine even ``workers=4`` must not build a
        process pool — and the cache semantics stay identical."""
        import os

        from repro.experiments import pool as pool_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def boom(*a, **kw):  # pragma: no cover - fires only on a bug
            raise AssertionError("process pool built on a 1-CPU machine")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", boom)
        stats: dict = {}
        cold = run_sweep(self.specs(), workers=4, cache=True,
                         cache_dir=tmp_path, stats=stats)
        assert stats["workers"] == 1 and stats["simulated"] == 2
        warm_stats: dict = {}
        warm = run_sweep(self.specs(), workers=4, cache=True,
                         cache_dir=tmp_path, stats=warm_stats)
        assert warm_stats["cache_hits"] == 2
        assert json.dumps(cold, sort_keys=True) == \
            json.dumps(warm, sort_keys=True)

    def test_pool_path_when_cpus_allow(self, monkeypatch, tmp_path):
        """With enough CPUs the pool path runs and its results (and
        cache files) are byte-identical to the serial path."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        stats: dict = {}
        parallel = run_sweep(self.specs(), workers=2, cache=True,
                             cache_dir=tmp_path, stats=stats)
        assert stats["workers"] == 2
        serial = run_sweep(self.specs(), workers=0, cache=False)
        assert json.dumps(parallel, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)
        # the pool-written cache replays into the serial path
        warm_stats: dict = {}
        warm = run_sweep(self.specs(), workers=0, cache=True,
                         cache_dir=tmp_path, stats=warm_stats)
        assert warm_stats["cache_hits"] == 2
        assert json.dumps(warm, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)


class TestMessageIdIsolation:
    def test_concurrent_networks_do_not_share_ids(self):
        """Two in-process networks must each number messages from 0 —
        the old module-global counter cross-contaminated them."""
        nets = [Network(Mesh2D(3, 3), make_algorithm("xy"),
                        config=SimConfig()) for _ in range(2)]
        for net in nets:
            net.offer(0, 4, 2)
        for net in nets:
            net.offer(4, 8, 2)
        for net in nets:
            assert sorted(net.messages) == [0, 1]


class TestFaultSweepSeeding:
    def test_sequence_seeding_pinned_mesh_faults(self):
        """Pin the per-point fault sets of the mesh sweep's default
        seed so cache keys (and published sweep tables) stay stable."""
        topo = Mesh2D(8, 8)
        assert random_link_faults(topo, 2, sweep_fault_rng(7, 2)) == \
            [(16, 24), (9, 10)]
        assert random_link_faults(topo, 4, sweep_fault_rng(7, 4)) == \
            [(31, 39), (11, 19), (44, 52), (17, 18)]

    def test_sequence_seeding_pinned_cube_faults(self):
        def pick(seed, n):
            rng = sweep_fault_rng(seed, n)
            nodes = []
            while len(nodes) < n:
                cand = int(rng.integers(0, 16))
                if cand not in nodes:
                    nodes.append(cand)
            return nodes
        assert pick(3, 2) == [13, 0]
        assert pick(3, 3) == [5, 1, 4]

    def test_adjacent_base_seeds_do_not_collide(self):
        """The replaced ``seed + n`` scheme made (seed=7, n=1) and
        (seed=6, n=2) draw from one stream; sequence seeding keeps
        every (seed, point) pair distinct."""
        topo = Mesh2D(8, 8)
        a = random_link_faults(topo, 3, sweep_fault_rng(7, 1))
        b = random_link_faults(topo, 3, sweep_fault_rng(6, 2))
        assert a != b


class TestSweepRunners:
    def test_mesh_fault_sweep_parallel_matches_serial(self):
        from repro.experiments import mesh_fault_sweep
        kw = dict(width=4, height=4, load=0.08, cycles=300, warmup=50)
        serial = mesh_fault_sweep("nafta", [0, 2], **kw)
        parallel = mesh_fault_sweep("nafta", [0, 2], workers=2, **kw)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)
        assert [r["n_link_faults"] for r in serial] == [0, 2]

    def test_cube_fault_sweep_labels(self):
        from repro.experiments import cube_fault_sweep
        rows = cube_fault_sweep("route_c", [1], dimension=3, load=0.08,
                                cycles=300, warmup=50)
        assert rows[0]["n_node_faults"] == 1
        assert rows[0]["n_faults"] == 1
