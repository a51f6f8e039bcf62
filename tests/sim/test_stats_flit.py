"""Unit tests for messages/flits and the statistics collector."""

import math

import pytest

from repro.routing.registry import make_algorithm
from repro.sim import FlitKind, Message, Network, StatsCollector
from repro.sim.config import SimConfig
from repro.sim.flit import Ledger, Messages
from repro.sim.topology import Mesh2D


class _Admitted:
    """A ledger with its message views, admitting as
    ``Network._admit`` does."""

    def __init__(self):
        self.ledger = Ledger()
        self.messages = Messages(self.ledger)

    def admit(self, src, dst, length, cycle, **fields) -> Message:
        mid = self.ledger.add(src, dst, length, cycle)
        return self.messages.hold(mid, fields)


class TestMessage:
    def test_single_flit_message(self):
        m = _Admitted().admit(0, 5, 1, cycle=10)
        flits = m.flits()
        assert len(flits) == 1
        assert flits[0].kind == FlitKind.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_worm_structure(self):
        m = _Admitted().admit(0, 5, 5, cycle=0)
        flits = m.flits()
        kinds = [f.kind for f in flits]
        assert kinds == [FlitKind.HEAD, FlitKind.BODY, FlitKind.BODY,
                         FlitKind.BODY, FlitKind.TAIL]
        assert [f.seq for f in flits] == [0, 1, 2, 3, 4]
        assert flits[0].header is m.header
        assert all(f.header is None for f in flits[1:])

    def test_msg_ids_unique_and_resettable(self):
        # a message id is its ledger row: unique within a ledger, and
        # every ledger (every network) numbers its messages from 0
        msgs = _Admitted()
        a = msgs.admit(0, 1, 2, 0)
        b = msgs.admit(0, 1, 2, 0)
        assert (a.header.msg_id, b.header.msg_id) == (0, 1)
        assert msgs.messages[1] is b and len(msgs.messages) == 2
        assert _Admitted().admit(0, 1, 2, 0).header.msg_id == 0

    def test_zero_length_rejected(self):
        net = Network(Mesh2D(2, 2), make_algorithm("xy"))
        with pytest.raises(ValueError):
            net.offer(0, 1, 0)
        assert len(net.messages) == 0

    def test_latency_accounting(self):
        m = _Admitted().admit(0, 1, 2, cycle=10)
        assert m.latency is None and m.hops == 0
        m.injected = 15
        m.header.bump_path_len()
        m.deliver(40)
        assert m.latency == 30
        assert m.network_latency == 25
        assert m.hops == 1

    def test_header_helpers(self):
        m = _Admitted().admit(0, 1, 2, 0)
        h = m.header
        assert not h.misrouted and h.path_len == 0
        h.mark_misrouted()
        h.bump_path_len()
        h.bump_path_len()
        assert h.misrouted and h.path_len == 2


class TestStatsCollector:
    """The per-message figures are one reduction over a ledger: the
    rows with a delivered stamp, created inside the measured window."""

    def stats(self, rows, warmup=0) -> StatsCollector:
        """A collector over a ledger holding ``rows`` of (created,
        injected, delivered or None, hops, misrouted)."""
        msgs = _Admitted()
        for created, injected, delivered, hops, misrouted in rows:
            m = msgs.admit(0, 1, 4, created, path_len=hops)
            m.injected = injected
            if misrouted:
                m.header.mark_misrouted()
            if delivered is not None:
                m.deliver(delivered)
        return StatsCollector(warmup=warmup, ledger=msgs.ledger)

    def test_warmup_excludes_early_messages(self):
        s = self.stats([(50, 55, 80, 3, False), (150, 155, 190, 3, False),
                        (160, 165, None, 3, False)], warmup=100)
        assert s.measured_messages() == 1
        assert s.mean_latency == 40
        assert s.mean_network_latency == 35

    def test_latency_percentile(self):
        s = self.stats([(0, 0, lat, 3, False) for lat in range(1, 101)])
        assert s.p99_latency == pytest.approx(99.01, abs=0.5)

    def test_empty_stats_are_nan(self):
        for s in (StatsCollector(), self.stats([])):
            assert math.isnan(s.mean_latency)
            assert math.isnan(s.mean_hops)
            assert s.misrouted_fraction == 0.0

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
        # the mark counts where the delivery is stamped: an undelivered
        # misrouted message is not in the share
        s = self.stats([(0, 0, 10, 3, False), (0, 0, 10, 5, True),
                        (0, 0, None, 3, True)])
        assert s.misrouted_fraction == 0.5
        assert s.mean_hops == 4

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
