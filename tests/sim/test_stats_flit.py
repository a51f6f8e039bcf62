"""Unit tests for messages/flits and the statistics collector."""

import math

import pytest

from repro.sim import FlitKind, Message, StatsCollector
from repro.sim.config import SimConfig


class TestMessage:
    def test_single_flit_message(self):
        m = Message.create(0, 5, 1, cycle=10)
        flits = m.flits()
        assert len(flits) == 1
        assert flits[0].kind == FlitKind.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_worm_structure(self):
        m = Message.create(0, 5, 5, cycle=0)
        flits = m.flits()
        kinds = [f.kind for f in flits]
        assert kinds == [FlitKind.HEAD, FlitKind.BODY, FlitKind.BODY,
                         FlitKind.BODY, FlitKind.TAIL]
        assert [f.seq for f in flits] == [0, 1, 2, 3, 4]
        assert flits[0].header is m.header
        assert all(f.header is None for f in flits[1:])

    def test_msg_ids_unique_and_resettable(self):
        # bare messages draw unique ids from the fallback counter; an
        # explicit msg_id (what every Network passes) restarts numbering
        a = Message.create(0, 1, 2, 0)
        b = Message.create(0, 1, 2, 0)
        assert a.header.msg_id != b.header.msg_id
        c = Message.create(0, 1, 2, 0, msg_id=0)
        assert c.header.msg_id == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Message.create(0, 1, 0, 0)

    def test_latency_accounting(self):
        m = Message.create(0, 1, 2, cycle=10)
        assert m.latency is None
        m.injected = 15
        m.delivered = 40
        assert m.latency == 30
        assert m.network_latency == 25

    def test_header_helpers(self):
        m = Message.create(0, 1, 2, 0)
        h = m.header
        assert not h.misrouted and h.path_len == 0
        h.mark_misrouted()
        h.bump_path_len()
        h.bump_path_len()
        assert h.misrouted and h.path_len == 2


class TestStatsCollector:
    def make_delivered(self, created, injected, delivered, hops=3,
                       misrouted=False):
        m = Message.create(0, 1, 4, created)
        m.injected = injected
        m.delivered = delivered
        m.hops = hops
        if misrouted:
            m.header.mark_misrouted()
        return m

    def test_warmup_excludes_early_messages(self):
        s = StatsCollector(warmup=100)
        s.count_message(self.make_delivered(50, 55, 80))
        s.count_message(self.make_delivered(150, 155, 190))
        assert s.measured_messages() == 1
        assert s.mean_latency == 40

    def test_latency_percentile(self):
        s = StatsCollector()
        for lat in range(1, 101):
            s.count_message(self.make_delivered(0, 0, lat))
        assert s.p99_latency == pytest.approx(99.01, abs=0.5)

    def test_empty_stats_are_nan(self):
        s = StatsCollector()
        assert math.isnan(s.mean_latency)
        assert math.isnan(s.mean_hops)

    def test_throughput_window(self):
        s = StatsCollector(warmup=100)
        s.now = 50
        for _ in range(10):
            s.count_delivered_flit()   # before warmup: not measured
        s.now = 200
        for _ in range(100):
            s.count_delivered_flit()
        assert s.throughput(n_nodes=10) == pytest.approx(100 / (100 * 10))

    def test_misrouted_fraction(self):
        s = StatsCollector()
        s.count_message(self.make_delivered(0, 0, 10))
        s.count_message(self.make_delivered(0, 0, 10, misrouted=True))
        assert s.misrouted_fraction == 0.5

    def test_decision_steps(self):
        s = StatsCollector()
        s.count_decision(1)
        s.count_decision(3)
        assert s.decisions == 2
        assert s.mean_decision_steps == 2.0
        assert s.max_decision_steps == 3

    def test_summary_keys(self):
        s = StatsCollector()
        keys = set(s.summary(4))
        assert {"mean_latency", "throughput_flits_node_cycle",
                "messages_stuck", "max_decision_steps"} <= keys


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.buffer_depth == 4

    @pytest.mark.parametrize("kw", [
        {"buffer_depth": 0},
        {"cycles_per_step": -1},
        {"fault_mode": "optimistic"},
    ])
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)
