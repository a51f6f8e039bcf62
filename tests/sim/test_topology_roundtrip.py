"""``topology_from_dict`` round-trip for every registered topology.

Topology *descriptions* — not live objects — are what crosses process
boundaries (sweep workers, the result cache, conformance corpus
entries), so describe() -> topology_from_dict() must reconstruct an
isomorphic instance for every kind in the registry.  The registry
completeness test fails loudly when a new kind is added without a
sample here.
"""

import pytest

from repro.routing.registry import ALGORITHM_META
from repro.sim.topology import (Hypercube, Mesh2D, _TOPOLOGY_KINDS,
                                topology_from_dict)

# at least one representative instance per registered kind, including
# non-square / non-power-of-two shapes where the kind allows them
SAMPLES = {
    "mesh2d": [Mesh2D(2, 2), Mesh2D(5, 3)],
    "hypercube": [Hypercube(1), Hypercube(4)],
}


def _all_samples():
    for kind, topos in sorted(SAMPLES.items()):
        for topo in topos:
            yield pytest.param(topo, id=f"{kind}-{topo.n_nodes}n")


def test_every_registered_kind_is_sampled():
    assert set(SAMPLES) == set(_TOPOLOGY_KINDS), (
        "add a SAMPLES entry for every kind registered in "
        "_TOPOLOGY_KINDS (and vice versa)")


def test_every_registered_kind_is_run_by_some_algorithm():
    # a kind no algorithm's metadata names is reached by no generated
    # conformance case, parity scenario or workload
    named = {kind for meta in ALGORITHM_META.values()
             for kind in meta.topologies}
    assert set(_TOPOLOGY_KINDS) <= named, (
        f"topology kinds no algorithm runs on: "
        f"{sorted(set(_TOPOLOGY_KINDS) - named)}")


@pytest.mark.parametrize("topo", _all_samples())
def test_roundtrip_is_isomorphic(topo):
    desc = topo.describe()
    rebuilt = topology_from_dict(desc)
    assert type(rebuilt) is type(topo)
    assert rebuilt.describe() == desc
    assert rebuilt.n_nodes == topo.n_nodes
    assert sorted(rebuilt.links()) == sorted(topo.links())
    for n in topo.nodes():
        assert rebuilt.ports(n) == topo.ports(n)
        assert list(rebuilt.neighbors(n)) == list(topo.neighbors(n))


@pytest.mark.parametrize("topo", _all_samples())
def test_roundtrip_preserves_distances(topo):
    rebuilt = topology_from_dict(topo.describe())
    nodes = list(topo.nodes())
    probes = nodes[:: max(1, len(nodes) // 6)]
    for a in probes:
        for b in probes:
            assert rebuilt.distance(a, b) == topo.distance(a, b)


def test_describe_is_json_clean():
    import json
    for topos in SAMPLES.values():
        for topo in topos:
            desc = json.loads(json.dumps(topo.describe()))
            assert topology_from_dict(desc).describe() == topo.describe()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown topology kind"):
        topology_from_dict({"kind": "klein_bottle"})


def test_non_description_rejected():
    with pytest.raises(ValueError, match="not a topology description"):
        topology_from_dict(None)
    with pytest.raises(ValueError, match="not a topology description"):
        topology_from_dict({"width": 3})
