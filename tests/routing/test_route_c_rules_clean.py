"""``route_c_rules`` settles its fault-free ``update_state`` lattice
once per cube dimension and engine mode: every later fault-free network
build loads the register snapshots instead of re-running the lattice,
and must end in the same register files as a fresh settle, before and
after a fault update."""

import pytest

from repro.routing import rule_driven
from repro.routing.registry import make_algorithm
from repro.sim import Hypercube, Network


def _registers(net):
    return [eng.registers.snapshot() for eng in net.algorithm.engines]


@pytest.mark.parametrize("dimension", [3, 4])
def test_second_build_loads_the_fixpoint(dimension, monkeypatch):
    monkeypatch.setattr(rule_driven, "_CLEAN_ROUTE_C", {})
    topo = Hypercube(dimension)
    fresh = Network(topo, make_algorithm("route_c_rules"))
    assert sum(eng.steps for eng in fresh.algorithm.engines) > 0
    loaded = Network(topo, make_algorithm("route_c_rules"))
    # no state rule base ran: not one interpretation step
    assert all(eng.steps == 0 for eng in loaded.algorithm.engines)
    assert _registers(loaded) == _registers(fresh)

    link = (0, 1)
    for net in (fresh, loaded):
        net.faults.fail_link(*link)
        net.algorithm.on_fault_update(net)
    assert _registers(loaded) == _registers(fresh)
    assert _registers(loaded) != _registers(
        Network(topo, make_algorithm("route_c_rules")))
