"""The native contract: what the batched engine's C decision cache may
assume about an algorithm's ``route()``, stated once per algorithm as
one :class:`~repro.routing.base.NativeContract` value."""

from dataclasses import replace

import pytest

from repro.routing.base import NativeContract
from repro.routing.registry import ALGORITHM_META, ALGORITHMS, make_algorithm
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.sim.topology import Hypercube, Mesh2D

TOPOLOGIES = {
    "mesh2d": lambda: Mesh2D(4, 4),
    "hypercube": lambda: Hypercube(3),
}


def _topology(name: str):
    return TOPOLOGIES[ALGORITHM_META[name].topologies[0]]()


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_algorithm_states_none_or_a_valid_contract(name):
    topo = _topology(name)
    algo = make_algorithm(name)
    contract = algo.native_contract(topo)
    if contract is None:
        return
    assert isinstance(contract, NativeContract)
    assert all(isinstance(f, str) for f in contract.fields)
    assert len(set(contract.fields)) == len(contract.fields)
    if contract.term_rule is not None:
        flag_f, vn_f, mapping = contract.term_rule
        assert {flag_f, vn_f} <= set(contract.fields)
        assert set(mapping.values()) <= {
            p for n in topo.nodes() for p in topo.ports(n)}
    if contract.clean_table:
        assert "vn" in contract.fields
    assert contract.livelock_limit is None \
        or isinstance(contract.livelock_limit, int)
    # the irregular set is read against the live network state
    net = Network(topo, algo, config=SimConfig())
    irregular = list(net.algorithm.native_contract(topo).irregular_dsts())
    assert all(0 <= n < topo.n_nodes for n in irregular)


@pytest.mark.parametrize(
    "name", sorted(n for n, f in ALGORITHMS.items() if f.fault_tolerant))
def test_fast_reroute_forces_only_the_in_port_into_the_key(name):
    topo = _topology(name)
    frr = make_algorithm(name + "+frr", topology=topo)
    inner = frr.inner.native_contract(topo)
    outer = frr.native_contract(topo)
    if inner is None:
        assert outer is None
    else:
        assert outer == replace(inner, key_uses_port=True)


def test_nafta_rules_differs_from_nafta_only_where_it_says():
    topo = Mesh2D(4, 4)
    hand = make_algorithm("nafta").native_contract(topo)
    rules = make_algorithm("nafta_rules").native_contract(topo)
    assert (rules.reads_links, hand.reads_links) == (True, False)
    assert (rules.livelock_limit, hand.livelock_limit) == (None, 48)
    assert rules.irregular_dsts != hand.irregular_dsts
    assert replace(rules, reads_links=hand.reads_links,
                   livelock_limit=hand.livelock_limit,
                   irregular_dsts=hand.irregular_dsts) == hand


def test_an_oversized_contract_is_refused():
    """The kernel mirrors at most five header fields per message; a
    sixth is refused when the contract is stated, not turned into an
    all-Python run."""
    NativeContract(fields=("a", "b", "c", "d", "e"))
    with pytest.raises(ValueError, match="at most 5 header fields"):
        NativeContract(fields=("a", "b", "c", "d", "e", "f"))
