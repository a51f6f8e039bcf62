"""Edge cases of the stall watchdog (``repro.sim.watchdog``).

The happy-path deadlock tests live in test_reliability.py (a four-worm
circular wait with a full blocking cycle).  Here we pin the corners:

* a real single-worm stall where the worm chases its own tail around a
  ring — self-waits are excluded from the wait-for graph, so the
  diagnosis must report *no* cycle (starvation), not a bogus one;
* a stall that resolves before the watchdog window closes: a worm
  parked on a dying link while the fault detection is outstanding is an
  excused stall, and the run completes with no DeadlockError.
"""

import pytest

from repro.routing import make_algorithm
from repro.routing.base import RouteDecision, RoutingAlgorithm
from repro.sim import topology as T
from repro.sim.config import SimConfig
from repro.sim.faults import FaultSchedule
from repro.sim.network import DeadlockError, Network
from repro.sim.topology import Mesh2D
from repro.sim.watchdog import diagnose_stall


class _RingForever(RoutingAlgorithm):
    """Clockwise ring on a 2x2 mesh that never delivers: the worm laps
    the ring until its head runs into its own tail."""

    name = "ring_forever"
    n_vcs = 1
    adaptive = False
    _next = {0: T.EAST, 1: T.NORTH, 3: T.WEST, 2: T.SOUTH}

    def route(self, router, header, in_port, in_vc):
        return RouteDecision(candidates=[(self._next[router.node], 0)])


class TestSingleWormSelfStall:
    """A worm waiting only on itself must not be reported as a wait-for
    cycle: diagnose_stall filters self-waits, so the diagnosis falls
    through to the starvation branch."""

    def _stall(self):
        net = Network(Mesh2D(2, 2), _RingForever(),
                      config=SimConfig(deadlock_threshold=50,
                                       buffer_depth=2))
        net.offer(0, 3, 20)  # 20 flits >> ring buffer capacity
        with pytest.raises(DeadlockError) as exc:
            net.run(2000)
        return exc.value.diagnosis

    def test_no_bogus_blocking_cycle(self):
        diag = self._stall()
        assert diag.blocking_cycle is None
        assert "no wait-for cycle" in diag.describe()

    def test_single_worm_merged_across_segments(self):
        # the worm occupies several channels; the diagnosis merges the
        # segments into one StalledWorm entry with the flits summed
        diag = self._stall()
        assert len(diag.worms) == 1
        worm = diag.worms[0]
        assert worm.src == 0 and worm.dst == 3
        assert worm.flits_here > 1
        assert diag.flits_in_flight == worm.flits_here


class TestStallResolvesBeforeWindow:
    """Harsh mode with a slow heartbeat: the worm parks on the dying
    link for much longer than deadlock_threshold, but the stall is
    excused while the detection is pending, the fault is confirmed, the
    worm is ripped and retried, and the run drains deadlock-free."""

    def _net(self):
        cfg = SimConfig(fault_mode="harsh", detection_delay=120,
                        deadlock_threshold=40, buffer_depth=2,
                        retry_limit=3)
        net = Network(Mesh2D(4, 2), make_algorithm("nafta"), config=cfg)
        sched = FaultSchedule()
        sched.add_link_fault(5, 1, 2)  # mid-flight, on the 0->3 path
        net.schedule_faults(sched)
        return net

    def test_excused_stall_then_recovery(self):
        net = self._net()
        net.offer(0, 3, 24)
        # cycle 80 is 35 cycles past detection start and ~74 cycles
        # past the last flit movement — well over the threshold
        for _ in range(81):
            net.step()
        diag = diagnose_stall(net)
        assert diag.pending_detections == 1
        assert diag.cycle - diag.last_progress > 40
        assert "fault detections" in diag.describe()
        # the watchdog never fires: the detection confirms at cycle
        # 125, the parked worm is ripped and source-retried around the
        # fault, and the network drains
        net.run_until_drained(max_cycles=3000)
        s = net.stats.summary(net.topology.n_nodes)
        assert s["messages_delivered"] == 1
        assert s["messages_dropped"] == 1

    def test_sub_threshold_contention_is_silent(self):
        # ordinary contention: two worms share a column, one waits a
        # few cycles — far below the threshold, no watchdog, no drops
        net = Network(Mesh2D(3, 3), make_algorithm("xy"),
                      config=SimConfig(deadlock_threshold=30,
                                       buffer_depth=2))
        net.offer(0, 8, 12)
        net.offer(1, 8, 12)
        net.run_until_drained(max_cycles=500)
        s = net.stats.summary(net.topology.n_nodes)
        assert s["messages_delivered"] == 2
        assert s["messages_dropped"] == 0
