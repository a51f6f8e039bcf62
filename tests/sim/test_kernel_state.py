"""The batched kernel's state is declared once, in ``ARRAYS``: every
pointer field of ``BState`` must point at a buffer of the element type
and shape its row declares, also after the ledger and the decision
cache grew past their first capacity.  The struct is zero-filled, so a
row the engine forgot to bind would leave a NULL pointer that the C
code dereferences only on the path that uses it.  A record row's numpy
dtype must lay its fields out where the C compiler puts them."""

import numpy as np
import pytest

from repro.routing.registry import make_algorithm
from repro.sim.batched import BatchedNetwork, batched_fallback_reason
from repro.sim.topology import Hypercube, Mesh2D
from repro.sim.traffic import TrafficGenerator
from repro.sim._batched_kernel import ARRAYS, RECORDS, dtype, load_kernel

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
        assert arr.dtype == dtype(ctype), name
        assert arr.shape == tuple(dims.get(d, d) for d in shape), name
        assert arr.flags.c_contiguous, name
        assert int(ffi.cast("uintptr_t", ptr)) == arr.ctypes.data, \
            f"{name} points elsewhere than its array"


def _record_rows():
    return [row for row in ARRAYS if row[1] in RECORDS]


@pytest.mark.parametrize("ctype", sorted(RECORDS))
def test_record_dtype_matches_the_c_struct(ctype):
    """Every field of a record type sits at the offset and has the size
    cffi reports for the generated C ``typedef``, and the record fills
    at most one 64-byte cache line."""
    ffi = load_kernel()[0]
    dt = dtype(ctype)
    assert dt.itemsize == ffi.sizeof(ctype) <= 64
    _, fields = RECORDS[ctype]
    assert list(dt.names) == [f[0] for f in fields]
    for name, ctype_f, _, _ in fields:
        offset = dt.fields[name][1]
        assert offset == ffi.offsetof(ctype, name), name
        assert dt.fields[name][0].itemsize == ffi.sizeof(ctype_f), name
        assert dt.fields[name][0] == np.dtype(ctype_f[:-2]), name


def test_record_fields_are_views_of_one_array():
    """The engine's per-field names (``net._st``, ``net._buf_msg``, ...)
    are views of its record arrays: a write through one is what the
    kernel's struct pointer reads."""
    net = BatchedNetwork(Mesh2D(4, 4), make_algorithm("xy"))
    assert _record_rows()
    for row in _record_rows():
        prefix, fields = RECORDS[row[1]]
        arr = getattr(*net._home(row))
        for name, _, _, _ in fields:
            view = getattr(net, "_" + prefix + name)
            assert np.shares_memory(view, arr), name
            assert view.shape == arr.shape, name
    cs, g = net._cs, int(net._portbase[0, 1])
    net._st[g] = 2
    net._o_port[g] = -1
    net._ov_down[g] = 12345
    assert (cs.iv[g].st, cs.iv[g].o_port, cs.iv[g].ov_down) == (2, -1, 12345)
    net._buf_msg[g, 1] = 9
    net._buf_seq[g, 1] = 4
    assert (cs.buf[g * cs.cap + 1].msg, cs.buf[g * cs.cap + 1].seq) == (9, 4)
