"""The backup-table builder converges each protected link's fault
knowledge once after failing it and once after the last repair, not
again after every repair.  Every fault-tolerant algorithm rebuilds its
knowledge from ``known_faults`` alone, so the tables must be the ones
the fail/recompute/repair/recompute sequence builds."""

import json
from contextlib import contextmanager

import pytest

from repro.core.compiler import backup
from repro.routing import make_algorithm
from repro.routing.registry import ALGORITHM_META, ALGORITHMS
from repro.sim import Hypercube, Mesh2D, Network

FAULT_TOLERANT = sorted(name for name, make in ALGORITHMS.items()
                        if make().fault_tolerant)


def _topology(name):
    return Mesh2D(4, 4) if "mesh2d" in ALGORITHM_META[name].topologies \
        else Hypercube(3)


def _recompute_after_each_repair(net, links):
    """The sequence the builder ran before: every repair reconverged."""
    for link in links:
        net.faults.fail_link(*link)
        net.algorithm.on_fault_update(net)
        try:
            yield link
        finally:
            net.faults.repair_link(*link)
            net.algorithm.on_fault_update(net)


@contextmanager
def _counting_fault_updates(algorithm):
    calls = []
    update = algorithm.on_fault_update

    def counted(net, *args, **kwargs):
        calls.append(None)
        return update(net, *args, **kwargs)

    algorithm.on_fault_update = counted
    try:
        yield calls
    finally:
        del algorithm.on_fault_update


@pytest.mark.parametrize("name", FAULT_TOLERANT)
def test_one_recompute_per_link(name, monkeypatch):
    topo = _topology(name)
    # a first build memoizes the rule programs' fault-free fixpoints,
    # so both counted builds load them alike
    Network(topo, make_algorithm(name))
    algo = make_algorithm(name)
    with _counting_fault_updates(algo) as calls:
        table = backup.build_backup_table_for(topo, algo)

    monkeypatch.setattr(backup, "each_faulted", _recompute_after_each_repair)
    algo = make_algorithm(name)
    with _counting_fault_updates(algo) as calls_before:
        before = backup.build_backup_table_for(topo, algo)
    assert json.dumps(table.to_dict()) == json.dumps(before.to_dict())
    assert table.verified_links == before.verified_links
    # all repairs but the last one no longer recompute
    assert len(calls_before) - len(calls) == len(list(topo.links())) - 1


def test_faulted_restores_the_fault_free_knowledge():
    """``faulted`` (one link) still reconverges on exit: the knowledge
    after it is the fresh network's."""
    topo = Mesh2D(4, 4)
    fresh = Network(topo, make_algorithm("nafta_rules"))
    net = Network(topo, make_algorithm("nafta_rules"))
    with backup.faulted(net, (5, 6)):
        assert net.known_faults.n_faults() == 1
    assert net.known_faults.n_faults() == 0
    for eng, ref in zip(net.algorithm.engines, fresh.algorithm.engines):
        assert eng.registers.snapshot() == ref.registers.snapshot()
