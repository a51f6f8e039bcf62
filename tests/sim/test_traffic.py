"""Unit tests for traffic patterns and generators."""

import numpy as np
import pytest

from repro.sim import Mesh2D, TrafficGenerator
from repro.sim._batched_kernel import load_kernel, unavailable_reason
from repro.sim.traffic import (PATTERNS, bit_complement_pattern,
                               hotspot_pattern, transpose_pattern,
                               uniform_pattern)


class TestPatterns:
    def test_uniform_never_self(self):
        topo = Mesh2D(4, 4)
        rng = np.random.default_rng(0)
        dest = uniform_pattern(topo, rng)
        for src in topo.nodes():
            for _ in range(20):
                assert dest(src) != src

    def test_uniform_covers_all_destinations(self):
        topo = Mesh2D(4, 4)
        rng = np.random.default_rng(1)
        dest = uniform_pattern(topo, rng)
        seen = {dest(0) for _ in range(600)}
        assert seen == set(range(1, 16))

    def test_transpose(self):
        topo = Mesh2D(4, 4)
        dest = transpose_pattern(topo)
        assert dest(topo.node_at(1, 3)) == topo.node_at(3, 1)
        assert dest(topo.node_at(2, 2)) == topo.node_at(2, 2)

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            transpose_pattern(Mesh2D(4, 3))

    def test_bit_complement(self):
        topo = Mesh2D(4, 4)
        dest = bit_complement_pattern(topo)
        assert dest(0) == 15
        assert dest(0b0101) == 0b1010

    def test_bit_complement_needs_power_of_two(self):
        with pytest.raises(ValueError):
            bit_complement_pattern(Mesh2D(3, 4))

    def test_hotspot_bias(self):
        topo = Mesh2D(4, 4)
        rng = np.random.default_rng(2)
        dest = hotspot_pattern(topo, rng, hotspot=5, fraction=0.5)
        hits = sum(1 for _ in range(1000) if dest(0) == 5)
        assert hits > 350  # ~50% + uniform share

    def test_pattern_registry_complete(self):
        # uniform drives the e2e workloads, transpose and hotspot the
        # adaptive-comparison and ablation benchmarks, bit_complement
        # NAFTA's adversarial no-deadlock test
        assert sorted(PATTERNS) == ["bit_complement", "hotspot",
                                    "transpose", "uniform"]
        topo = Mesh2D(4, 4)
        rng = np.random.default_rng(5)
        for name, factory in PATTERNS.items():
            fn = factory(topo, rng)
            d = fn(0)
            assert 0 <= d < 16


class TestGenerator:
    def test_pattern_kwargs_must_name_accepted_keys(self):
        # an argument-less pattern refuses any key instead of ignoring it
        with pytest.raises(ValueError, match="'uniform' takes no argument "
                                             "hotspot; it accepts none"):
            TrafficGenerator(Mesh2D(4, 4), "uniform",
                             pattern_kwargs={"hotspot": 3})
        gen = TrafficGenerator(Mesh2D(4, 4), "hotspot",
                               pattern_kwargs={"hotspot": 3,
                                               "fraction": 1.0})
        assert gen.destinations()(0) == 3

    def test_rate_close_to_load(self):
        topo = Mesh2D(4, 4)
        gen = TrafficGenerator(topo, "uniform", load=0.2, message_length=4,
                               seed=6)
        msgs = sum(len(gen.tick(c)) for c in range(2000))
        flits = msgs * 4
        offered = flits / (2000 * 16)
        assert offered == pytest.approx(0.2, rel=0.1)

    def test_seeded_reproducibility(self):
        topo = Mesh2D(4, 4)
        a = TrafficGenerator(topo, "uniform", load=0.3, seed=7)
        b = TrafficGenerator(topo, "uniform", load=0.3, seed=7)
        for c in range(50):
            assert a.tick(c) == b.tick(c)

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            TrafficGenerator(Mesh2D(2, 2), "uniform", load=1.5)

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            TrafficGenerator(Mesh2D(2, 2), "nope")

    def test_zero_load_generates_nothing(self):
        gen = TrafficGenerator(Mesh2D(4, 4), "uniform", load=0.0, seed=1)
        assert all(not gen.tick(c) for c in range(100))


class TestUniformStream:
    """The RNG contract batched destination draws rest on: a batch of
    uniform destinations consumes the generator's bit stream exactly as
    one scalar draw per source does (numpy's bounded integers take
    32-bit halves of each 64-bit word and buffer the spare half in the
    generator), so the destinations and the generator's final state,
    buffered half included, are the same."""

    @pytest.mark.parametrize("k", range(21))
    def test_batch_equals_scalar_draws(self, k):
        topo = Mesh2D(6, 6)
        batched, scalar = (np.random.default_rng(5) for _ in range(2))
        batch = uniform_pattern(topo, batched).batch
        dest = uniform_pattern(topo, scalar)
        pick = np.random.default_rng(k)
        for n in (36, 7, 1, 36, 0):
            # interleaved with the per-cycle Bernoulli draws
            assert batched.random(n).tolist() == scalar.random(n).tolist()
            srcs = sorted(pick.choice(36, size=k, replace=False).tolist())
            assert batch(srcs) == [dest(s) for s in srcs]
        assert batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.skipif(unavailable_reason() is not None,
                        reason=f"batched kernel unavailable: "
                               f"{unavailable_reason()}")
    @pytest.mark.parametrize("load", [0.0, 0.05, 0.3, 1.0])
    def test_kernel_tick_equals_tick(self, load):
        """The batched engine draws uniform traffic in its kernel, from
        the generator's bit generator: the same offers, cycle by cycle,
        and the same generator state after every cycle."""
        ffi, lib = load_kernel()
        topo = Mesh2D(8, 8)
        gen, ref = (TrafficGenerator(topo, "uniform", load=load,
                                     message_length=3, seed=11)
                    for _ in range(2))
        n, p = gen.uniform_trials()
        src, dst = (np.zeros(n, dtype=np.int32) for _ in range(2))
        bg = ffi.cast("bitgen_t *",
                      gen.rng.bit_generator.ctypes.bit_generator.value)
        for cycle in range(60):
            k = lib.k_uniform_tick(bg, n, p,
                                   ffi.from_buffer("int32_t[]", src),
                                   ffi.from_buffer("int32_t[]", dst))
            assert [(s, d, 3) for s, d in zip(src[:k].tolist(),
                                               dst[:k].tolist())] \
                == ref.tick(cycle)
            assert gen.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.skipif(unavailable_reason() is not None,
                        reason=f"batched kernel unavailable: "
                               f"{unavailable_reason()}")
    def test_kernel_tick_rejects_as_numpy_does(self):
        """A bound whose rejection zone is wide: 2**32 mod 988485 is
        988456, so about 227 of 988486 draws are redrawn."""
        ffi, lib = load_kernel()
        n = 988486
        gen, ref = (np.random.default_rng(3) for _ in range(2))
        src, dst = (np.zeros(n, dtype=np.int32) for _ in range(2))
        bg = ffi.cast("bitgen_t *",
                      gen.bit_generator.ctypes.bit_generator.value)
        k = lib.k_uniform_tick(bg, n, 1.0, ffi.from_buffer("int32_t[]", src),
                               ffi.from_buffer("int32_t[]", dst))
        assert k == n
        ref.random(n)                   # at p = 1 every node offers
        d = ref.integers(0, n - 1, size=n)
        assert np.array_equal(dst, d + (d >= np.arange(n)))
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_uniform_trials_name_the_uniform_pattern_only(self):
        topo = Mesh2D(4, 4)
        gen = TrafficGenerator(topo, "uniform", load=0.3, message_length=6)
        assert gen.uniform_trials() == (16, 0.3 / 6)
        assert TrafficGenerator(topo, "hotspot").uniform_trials() is None
