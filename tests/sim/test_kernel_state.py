"""The batched kernel's state is declared once, in ``ARRAYS``: every
pointer field of ``BState`` must point at a buffer of the element type
and shape its row declares, also after the ledger and the decision
cache grew past their first capacity.  The struct is zero-filled, so a
row the engine forgot to bind would leave a NULL pointer that the C
code dereferences only on the path that uses it."""

import numpy as np
import pytest

from repro.routing.registry import make_algorithm
from repro.sim.batched import BatchedNetwork, batched_fallback_reason
from repro.sim.topology import Hypercube, Mesh2D
from repro.sim.traffic import TrafficGenerator
from repro.sim._batched_kernel import ARRAYS

pytestmark = pytest.mark.skipif(
    batched_fallback_reason() is not None,
    reason=f"batched engine unavailable: {batched_fallback_reason()}")


@pytest.mark.parametrize("algo, topo, rel_on", [
    ("nafta", Mesh2D(6, 6), 1),             # native, mesh relative keys
    ("route_c_rules", Hypercube(4), 2),     # cube keys and node classes
    ("xy", Mesh2D(4, 4), 0),                # no native contract
], ids=["nafta-mesh", "route_c_rules-cube", "xy-mesh"])
def test_every_pointer_spans_its_declared_buffer(algo, topo, rel_on):
    net = BatchedNetwork(topo, make_algorithm(algo))
    ffi, cs = net._ffi, net._cs
    assert cs.rel_on == rel_on
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.2,
                                        message_length=4, seed=3))
    net.run(60)
    msgs, entries = net._dims["msgs"], cs.ent_cap
    n_ent = cs.n_ent
    while cs.n_msgs <= msgs:                # past the first ledger size
        src = cs.n_msgs % topo.n_nodes
        net.offer(src, (src + 1) % topo.n_nodes, 1)
    net._grow_cache(entries + 1)
    assert cs.n_ent == n_ent and cs.ent_cap == 2 * entries
    net.run(60)
    assert net._dims["msgs"] > msgs
    assert net.stats.summary(topo.n_nodes)["messages_delivered"] > 0

    pointers = {name for name, field in ffi.typeof("BState").fields
                if field.type.kind == "pointer"}
    assert pointers == {row[0] for row in ARRAYS}
    dims = net._dims
    assert (dims["nodes"], dims["ivs"], dims["ring"], dims["cands"],
            dims["entries"], dims["buckets"]) \
        == (topo.n_nodes, cs.n_iv, cs.cap, cs.maxc, cs.ent_cap,
            cs.tab_mask + 1)
    assert dims["msgs"] >= cs.n_msgs
    for row in ARRAYS:
        name, ctype, shape, _, _ = row
        ptr = getattr(cs, name)
        assert ptr != ffi.NULL, f"{name} is not bound"
        assert ffi.typeof(ptr) is ffi.typeof(ctype + " *"), name
        arr = getattr(*net._home(row))
        assert arr.dtype == np.dtype(ctype[:-2]), name
        assert arr.shape == tuple(dims.get(d, d) for d in shape), name
        assert arr.flags.c_contiguous, name
        assert int(ffi.cast("uintptr_t", ptr)) == arr.ctypes.data, \
            f"{name} points elsewhere than its array"
