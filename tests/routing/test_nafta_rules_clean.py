"""``nafta_rules`` settles its fault-free fixpoint once per mesh size
and ``qmax``: every later network build loads the register snapshots
instead of re-running the state rule bases, and must end in the same
register files as a fresh settle, before and after a fault update.

Loading skips the settle's ``set_inputs`` calls too, so the engines of
a loaded build hold no leftover state-base inputs.  That never
mattered: a decision reads only inputs ``_decision_inputs`` supplies,
and ``set_inputs`` replaces the whole mapping per decision.
"""

from dataclasses import fields, is_dataclass

import pytest

from repro.core.dsl import nodes as N
from repro.core.dsl.parser import parse
from repro.routing import rule_driven
from repro.routing.registry import make_algorithm
from repro.routing.rulesets.loader import ruleset_source
from repro.sim import Mesh2D, Network
from repro.sim.flit import Header
from repro.sim.router import LOCAL

DECISION_BASES = ("incoming_message", "in_message_ft", "test_exception")


def _registers(net):
    return [eng.registers.snapshot() for eng in net.algorithm.engines]


def _fail_one_link(net, link):
    net.faults.fail_link(*link)
    net.algorithm.on_fault_update(net)


@pytest.mark.parametrize("size", [4, 8])
def test_second_build_loads_the_fixpoint(size, monkeypatch):
    monkeypatch.setattr(rule_driven, "_CLEAN", {})
    topo = Mesh2D(size, size)
    fresh = Network(topo, make_algorithm("nafta_rules"))
    assert sum(eng.steps for eng in fresh.algorithm.engines) > 0
    loaded = Network(topo, make_algorithm("nafta_rules"))
    # no state rule base ran: not one interpretation step
    assert all(eng.steps == 0 for eng in loaded.algorithm.engines)
    assert _registers(loaded) == _registers(fresh)

    link = (size + 1, size + 2)        # an interior link of row 1
    for net in (fresh, loaded):
        _fail_one_link(net, link)
    assert _registers(loaded) == _registers(fresh)
    assert _registers(loaded) != _registers(
        Network(topo, make_algorithm("nafta_rules")))


def _children(node):
    for f in fields(node):
        v = getattr(node, f.name)
        for item in (v if isinstance(v, tuple) else (v,)):
            if is_dataclass(item):
                yield item


def _idents(node):
    if isinstance(node, (N.Name, N.Index)):
        yield node.ident
    for child in _children(node):
        yield from _idents(child)


def test_decisions_read_only_supplied_inputs():
    program = parse(ruleset_source("nafta"))
    assert not program.subbases
    declared = {d.name for d in program.decls if isinstance(d, N.InputDecl)}
    bases = {rb.name: rb for rb in program.rulebases}
    read = {ident for name in DECISION_BASES
            for ident in _idents(bases[name]) if ident in declared}
    net = Network(Mesh2D(4, 4), make_algorithm("nafta_rules"))
    header = Header(msg_id=-1, src=0, dst=15, length=2, created=0)
    supplied = net.algorithm._decision_inputs(net.routers[0], header,
                                              LOCAL, 0)
    assert read and read <= set(supplied)
