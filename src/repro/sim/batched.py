"""Struct-of-arrays simulation engine (``SimConfig(engine="batched")``).

The object engine (:mod:`repro.sim.network`) is the bit-exact oracle:
per-flit Python objects, one method call per phase per router.  This
module re-represents the same machine as flat numpy arrays — channel
occupancy, credits, worm heads and tails, flit queues, round-robin
pointers — advanced each cycle by compiled C kernels
(:mod:`repro.sim._batched_kernel`), with Python entered only where the
routing *algorithm* must run: fresh head decisions, epoch-stale or
REROUTE-hinted refreshes, and stuck-message purges.

The contract is bit-exactness, not approximation: for any workload the
batched engine reproduces the object engine's ``SimStats.summary()``
and per-decision conformance digests exactly.  The layout and walk
mirror the oracle one-for-one:

* one global input-VC index (``gid``) per (node, port, vc), in the
  object engine's iteration order — LOCAL first, then ascending ports,
  virtual channels ascending.  Output VCs share the index space (same
  triples), so ascending gid is also ascending round-robin arbiter key;
* allocation is a *sequential* C walk over nodes, because a grant frees
  a downstream credit that a later-ordered router may consume in the
  same cycle — a masked argmax cannot express that chain;
* ``on_depart`` hooks, path traces and tail ejections are replayed in
  exact grant order from a C-side event log after the walk (nothing in
  the walk reads headers, so deferral is invisible);
* blocked-head refreshes use :data:`~repro.routing.base.RouteDecision.
  refresh_hint`: RESORT re-sorts the candidate set by (output load,
  port, vc) in C, STATIC skips, REROUTE re-enters the algorithm in
  Python — and a per-epoch decision cache with header-field delta
  replay keeps those Python entries cheap.

The per-cycle C scans iterate an *active set* — a compacted, sorted
array of nodes that hold flits, are mid-injection or have queued
sources — so idle fabric costs nothing per cycle and throughput scales
with occupancy, not mesh size.  While the known fault set is empty, a
build-time 54-entry clean table (:mod:`repro.routing.clean_table`)
replays the native algorithms' translation-invariant decisions
entirely in C, eliminating the decision-cache fill cliff.  Metrics
timeseries attach natively: the kernels maintain the active-router
gauge and per-link flit counters in arrays, drained into
:class:`repro.obs.metrics.MetricsTimeseries` at read time.

Use :func:`build_network` to construct a network honouring
``SimConfig.engine``; it transparently falls back to the object engine
(and documents why, in ``SimStats.summary()['engine_fallback']``) when
tracing is attached, a non-stock arbiter is requested, or no C
compiler is available.
"""

from __future__ import annotations

import numpy as np

from .arbiter import Arbiter
from .config import SimConfig
from .flit import Flit, FlitKind
from .network import DeadlockError, Network
from .router import ACTIVE, IDLE, LOCAL, ROUTED, ROUTING, InputVC, OutputVC
from ._batched_kernel import (CT_CANDS, CT_KEYS, DIG_CAP, FIELD_ABSENT,
                              FIELD_NONE, MAXF, kernel_available,
                              load_kernel)
from ..routing.base import REFRESH_REROUTE, REFRESH_RESORT, RouteDecision

_STATE_NAMES = (IDLE, ROUTING, ROUTED, ACTIVE)
_MISSING = object()
_NO_PORT = -100      # o_port value meaning "no output assigned"


def _encode(v) -> int:
    """Header field value -> int32 mirror encoding (see the native
    descriptor contract in :class:`~repro.routing.base.
    RoutingAlgorithm.native_fields`)."""
    if v is _MISSING:
        return FIELD_ABSENT
    if v is None:
        return FIELD_NONE
    if v is True:
        return 1
    if v is False:
        return 0
    return int(v)


class _TailShim:
    """Stand-in for a tail flit when replaying C-side ejection events
    through :meth:`Network.eject` (which reads msg_id and is_tail)."""

    __slots__ = ("msg_id",)
    is_tail = True
    is_head = False

    def __init__(self, msg_id: int):
        self.msg_id = msg_id


class BatchedRouter:
    """Read-mostly facade over the array state for one node.

    Routing algorithms and the engine-agnostic fault machinery see the
    :class:`~repro.sim.router.Router` query surface (``output_load``,
    ``port_alive``, ``ports``, ``worms_using_port``, ``purge_message``,
    …) backed by the shared arrays; the per-cycle data-path phases never
    touch it."""

    __slots__ = ("network", "node", "topology", "ports", "n_vcs",
                 "_load_token", "_loads")

    def __init__(self, network: "BatchedNetwork", node: int):
        self.network = network
        self.node = node
        self.topology = network.topology
        self.ports = dict(network.topology.ports(node))
        self.n_vcs = network.algorithm.n_vcs
        self._load_token = -1
        self._loads: dict[int, int] = {}

    # -- views used by routing algorithms -----------------------------

    @property
    def n_flits(self) -> int:
        return int(self.network._r_nflits[self.node])

    def occupancy(self) -> int:
        return int(self.network._r_nflits[self.node])

    def port_alive(self, pid: int) -> bool:
        if pid == LOCAL:
            return True
        if pid not in self.ports:
            return False
        return self.network.faults.port_ok(self.node, pid)

    def alive_ports(self) -> list[int]:
        faults = self.network.faults
        return [pid for pid in self.ports
                if faults.port_ok(self.node, pid)]

    def neighbor(self, pid: int) -> int | None:
        p = self.ports.get(pid)
        return p.neighbor if p else None

    def credits(self, pid: int, vc: int) -> int:
        if pid == LOCAL:
            return 1 << 30
        net = self.network
        d = int(net._ov_down[net._portbase[self.node, pid + 1] + vc])
        return net.config.buffer_depth - int(net._buf_cnt[d]) \
            - int(net._inc_val[d])

    def output_free(self, pid: int, vc: int) -> bool:
        if not self.port_alive(pid):
            return False
        net = self.network
        ovg = int(net._portbase[self.node, pid + 1]) + vc
        if net._ov_owner[ovg] >= 0:
            return False
        return self.credits(pid, vc) > 0

    def queue_length(self, pid: int, vc: int) -> int:
        if pid == LOCAL:
            return 0
        net = self.network
        d = int(net._ov_down[net._portbase[self.node, pid + 1] + vc])
        return int(net._buf_cnt[d]) + int(net._inc_val[d])

    def output_load(self, pid: int) -> int:
        """Same metric, memo and token discipline as the object router:
        occupied downstream buffer slots plus worms holding the VCs."""
        if pid == LOCAL:
            return 0
        net = self.network
        token = net._load_token
        if self._load_token != token:
            self._load_token = token
            self._loads.clear()
        out = self._loads.get(pid)
        if out is None:
            base = int(net._portbase[self.node, pid + 1])
            buf_cnt = net._buf_cnt
            inc_val = net._inc_val
            ov_down = net._ov_down
            ov_owner = net._ov_owner
            out = 0
            for ovg in range(base, base + self.n_vcs):
                d = ov_down[ovg]
                out += int(buf_cnt[d]) + int(inc_val[d])
                if ov_owner[ovg] >= 0:
                    out += 1
            self._loads[pid] = out
        return out

    # -- fault handling -----------------------------------------------

    def worms_using_port(self, pid: int) -> set[int]:
        net = self.network
        lo = int(net._iv_off[self.node])
        hi = int(net._iv_off[self.node + 1])
        ivst = net._ivst
        o_port = net._o_port
        head_msg = net._head_msg
        out: set[int] = set()
        for g in range(lo, hi):          # gid order = object _ivs order
            if ivst[g] == 3 and o_port[g] == pid and head_msg[g] >= 0:
                out.add(int(head_msg[g]))
        return out

    def purge_message(self, msg_id: int) -> int:
        net = self.network
        dropped = int(net._lib.k_purge(net._cs, self.node, msg_id))
        net._load_token = int(net._counters[0])
        return dropped

    def finalize(self) -> None:  # pragma: no cover - interface symmetry
        pass


class BatchedNetwork(Network):
    """Drop-in :class:`Network` whose data path runs on arrays + C.

    Only the per-cycle data-path phases are replaced (``_advance`` and
    the helpers it drives); the fault machinery, retry queue, diagnosis
    flood and watchdog run unchanged against router facades.  Requires
    the stock round-robin arbiter and no tracer (metrics timeseries
    attach natively) — use :func:`build_network` for transparent
    fallback."""

    engine_name = "batched"

    def __init__(self, topology, algorithm, config: SimConfig | None = None,
                 arbiter="round_robin", tracer=None, metrics=None):
        kern = load_kernel()
        if kern is None:
            raise RuntimeError(
                "batched engine unavailable: no C compiler/cffi to build "
                "the kernel (or REPRO_BATCHED_NO_CC is set); use "
                "build_network() for transparent fallback")
        if tracer is not None and getattr(tracer, "enabled", True):
            raise ValueError("the batched engine does not emit trace "
                             "events; use build_network() to fall back "
                             "to the object engine when tracing")
        self._ffi, self._lib = kern
        if config is not None and config.policy != "deterministic":
            raise ValueError(
                f"the batched engine supports only the 'deterministic' "
                f"selection policy, not {config.policy!r}; use "
                f"build_network() for transparent fallback")
        super().__init__(topology, algorithm, config, arbiter=arbiter,
                         metrics=metrics)
        if type(self.arbiter) is not Arbiter:
            raise ValueError(
                f"the batched engine implements only the stock "
                f"round-robin arbiter, not {self.arbiter.name!r}; use "
                f"build_network() for transparent fallback")
        # the clean table probes route() through the algorithm's live
        # state, so it installs only after reset() ran (end of the base
        # constructor)
        self._install_clean_table()
        if metrics is not None:
            metrics.attach_link_source(self._drain_link_counts)

    # -- construction -------------------------------------------------

    def _make_routers(self) -> None:
        topo = self.topology
        ffi = self._ffi
        n_nodes = len(topo.nodes())
        n_vcs = self.algorithm.n_vcs
        cap = self.config.buffer_depth
        node_ports = [dict(topo.ports(n)) for n in topo.nodes()]
        max_pid = max((max(p) for p in node_ports if p), default=-1)
        npid = max_pid + 2                     # LOCAL slot + ports 0..max
        maxc = npid * n_vcs
        if maxc > 64:
            raise ValueError(
                f"batched engine limit: {npid - 1} ports x {n_vcs} VCs "
                f"exceeds the kernel's 64-candidate/request bound")

        iv_off = np.zeros(n_nodes + 1, dtype=np.int32)
        for node in range(n_nodes):
            iv_off[node + 1] = iv_off[node] \
                + (len(node_ports[node]) + 1) * n_vcs
        n_iv = int(iv_off[n_nodes])

        def i32(*shape):
            return np.zeros(shape, dtype=np.int32)

        def u8(*shape):
            return np.zeros(shape, dtype=np.uint8)

        self._node_ports = node_ports
        self._iv_off = iv_off
        self._iv_node = i32(n_iv)
        self._iv_port = i32(n_iv)
        self._iv_vc = i32(n_iv)
        self._portbase = np.full((n_nodes, npid), -1, dtype=np.int32)
        self._ov_down = np.full(n_iv, -1, dtype=np.int32)
        self._buf_msg = i32(n_iv, cap)
        self._buf_seq = i32(n_iv, cap)
        self._buf_head = i32(n_iv)
        self._buf_cnt = i32(n_iv)
        self._inc_msg = i32(n_iv)
        self._inc_seq = i32(n_iv)
        self._inc_val = u8(n_iv)
        self._ivst = u8(n_iv)
        self._ready = i32(n_iv)
        self._epoch_a = i32(n_iv)
        self._o_port = np.full(n_iv, _NO_PORT, dtype=np.int32)
        self._o_vc = np.full(n_iv, _NO_PORT, dtype=np.int32)
        self._deliver = u8(n_iv)
        self._stuckf = u8(n_iv)
        self._hint = u8(n_iv)
        self._ncand = i32(n_iv)
        self._cand_p = i32(n_iv, maxc)
        self._cand_v = i32(n_iv, maxc)
        self._head_msg = np.full(n_iv, -1, dtype=np.int32)
        self._ov_owner = np.full(n_iv, -1, dtype=np.int32)
        self._r_nflits = i32(n_nodes)
        self._node_ok = np.ones(n_nodes, dtype=np.uint8)
        self._alive = u8(n_nodes, npid)
        self._src_cur = np.full(n_nodes, -1, dtype=np.int32)
        self._src_pos = i32(n_nodes)
        #: per-node source queue length mirror (maintained by offer /
        #: retry release / fault clear), so the inject scan is a single
        #: vectorized mask instead of a per-node Python loop
        self._src_qlen = i32(n_nodes)
        self._rr_ptr = np.zeros(npid, dtype=np.int64)
        self._counters = np.zeros(4, dtype=np.int64)
        evcap = 2 * n_iv + 8
        self._ev_kind = i32(evcap)
        self._ev_node = i32(evcap)
        self._ev_msg = i32(evcap)
        self._ev_a = i32(evcap)
        self._ev_b = i32(evcap)
        self._req_g = i32(maxc)
        self._req_ov = i32(maxc)
        self._req_head = u8(maxc)
        self._need = i32(maxc)
        self._heads = i32(n_nodes)
        # per-message mirrors (grown together in _grow_msgs)
        self._msg_len = i32(4096)
        self._msg_dst = i32(4096)
        self._msg_plen = i32(4096)
        # pre-filled ABSENT so injecting a fresh (empty-fields) header
        # needs no per-field writes; message ids are never reused
        self._msg_f = np.full((4096, MAXF), FIELD_ABSENT, dtype=np.int32)

        # native decision cache: enabled when the algorithm declares a
        # native descriptor (mirrorable header fields); otherwise the
        # arrays are token-sized and the kernel never touches them
        nf = self.algorithm.native_fields
        native = nf is not None and len(nf) <= MAXF
        if native and not set(self.algorithm.cache_mutable_fields) \
                <= set(nf):
            raise ValueError(
                f"{self.algorithm.name}: native_fields must cover "
                f"cache_mutable_fields")
        self._native = native
        self._nf = tuple(nf) if native else ()
        self._ent_cap = (1 << 15) if native else 8
        ent_cap = self._ent_cap
        self._tab = np.full(ent_cap * 4, -1, dtype=np.int32)
        self._ek = i32(ent_cap, 10)
        self._ea = i32(ent_cap, MAXF)
        self._e_deliver = u8(ent_cap)
        self._e_steps = i32(ent_cap)
        self._e_hint = u8(ent_cap)
        self._e_ncand = i32(ent_cap)
        self._e_cp = i32(ent_cap, maxc)
        self._e_cv = i32(ent_cap, maxc)
        self._term_port = i32(8)
        self._dig = u8(DIG_CAP if native else 16)
        self._dstat = np.zeros(4, dtype=np.int64)

        # active set: the compacted, sorted node list the per-cycle C
        # scans iterate, plus the metrics mirrors (the object engine's
        # _active set and its per-link flit counters)
        self._act_list = i32(n_nodes)
        self._act_flag = u8(n_nodes)
        self._m_flag = u8(n_nodes)
        self._link_cnt = np.zeros(n_iv, dtype=np.int64)
        # clean-table state: node coordinates (filled when a table
        # installs) + the dense 54-entry decision table
        self._node_x = i32(n_nodes)
        self._node_y = i32(n_nodes)
        self._ct_valid = u8(CT_KEYS)
        self._ct_deliver = u8(CT_KEYS)
        self._ct_hint = u8(CT_KEYS)
        self._ct_steps = i32(CT_KEYS)
        self._ct_ncand = i32(CT_KEYS)
        self._ct_vn_after = np.full(CT_KEYS, FIELD_ABSENT, dtype=np.int32)
        self._ct_cp = i32(CT_KEYS, CT_CANDS)
        self._ct_cv = i32(CT_KEYS, CT_CANDS)

        g = 0
        for node in range(n_nodes):
            ports = node_ports[node]
            self._alive[node, 0] = 1           # LOCAL is always alive
            for pid in [LOCAL] + sorted(ports):
                self._portbase[node, pid + 1] = g
                if pid != LOCAL:
                    self._alive[node, pid + 1] = 1
                for vc in range(n_vcs):
                    self._iv_node[g] = node
                    self._iv_port[g] = pid
                    self._iv_vc[g] = vc
                    g += 1
        assert g == n_iv
        for node in range(n_nodes):
            for pid, port in node_ports[node].items():
                base = int(self._portbase[node, pid + 1])
                down_base = int(self._portbase[port.neighbor,
                                               port.neighbor_port + 1])
                for vc in range(n_vcs):
                    self._ov_down[base + vc] = down_base + vc

        cs = ffi.new("BState *")
        cs.n_nodes = n_nodes
        cs.n_iv = n_iv
        cs.cap = cap
        cs.n_vcs = n_vcs
        cs.max_pid = max_pid
        cs.maxc = maxc
        cs.inj_vc = self.config.injection_vc
        cs.n_native = len(self._nf)
        cs.cps = self.config.cycles_per_step
        cs.hop_budget = int(self.config.hop_budget or 0)
        lim = self.algorithm.native_livelock_limit(topo) if native \
            else None
        cs.limit = int(lim) if lim is not None else (2 ** 31 - 1)
        cs.dig_on = 0                  # refreshed each _route_phase
        # head-departure events are only replayed in Python when the
        # algorithm's on_depart must run there or paths are traced
        cs.trace_on = 0 if (native and not self.config.trace_paths) else 1
        rule = self.algorithm.native_term_rule if native else None
        if rule is not None:
            flag_f, vn_f, mapping = rule
            cs.term_on = 1
            cs.term_f = self._nf.index(flag_f)
            cs.vn_f = self._nf.index(vn_f)
            items = mapping.items() if hasattr(mapping, "items") \
                else enumerate(mapping)
            for vn, port in items:
                if 0 <= vn < 8:
                    self._term_port[vn] = port
        else:
            cs.term_on = 0
            cs.term_f = 0
            cs.vn_f = 0
        cs.key_port = 1 if self.algorithm.native_key_uses_port else 0
        cs.key_vc = 1 if self.algorithm.native_key_uses_vc else 0
        cs.tab_mask = self._tab.shape[0] - 1
        cs.n_ent = 0
        cs.ent_cap = ent_cap
        cs.dig_used = 0
        cs.dig_cap = self._dig.shape[0]
        cs.n_act = 0
        cs.scan_ai = 0
        cs.m_on = 1 if self.metrics is not None else 0
        cs.m_count = 0
        cs.ct_on = 0
        cs.ct_vnf = -1
        cs.ct_termf = -1
        self._cs = cs
        self._bufs: list = []

        for name in ("iv_off", "iv_node", "iv_port", "iv_vc", "portbase",
                     "ov_down", "buf_msg", "buf_seq", "buf_head",
                     "buf_cnt", "inc_msg", "inc_seq", "ready", "epoch",
                     "o_port", "o_vc", "ncand", "cand_p", "cand_v",
                     "head_msg", "ov_owner", "r_nflits", "src_cur",
                     "src_pos", "src_qlen",
                     "ev_kind", "ev_node", "ev_msg", "ev_a",
                     "ev_b", "req_g", "req_ov", "msg_len", "msg_dst",
                     "msg_plen", "msg_f", "term_port", "tab", "ek",
                     "ea", "e_steps", "e_ncand", "e_cp", "e_cv",
                     "act_list", "node_x", "node_y", "ct_steps",
                     "ct_ncand", "ct_vn_after", "ct_cp", "ct_cv"):
            attr = {"epoch": "_epoch_a"}.get(name, "_" + name)
            self._bind(name, getattr(self, attr), "int32_t *")
        self._bind("st", self._ivst, "uint8_t *")
        for name in ("inc_val", "deliver", "stuckf", "hint", "node_ok",
                     "alive", "req_head", "e_deliver", "e_hint", "dig",
                     "act_flag", "m_flag", "ct_valid", "ct_deliver",
                     "ct_hint"):
            self._bind(name, getattr(self, "_" + name), "uint8_t *")
        self._bind("rr_ptr", self._rr_ptr, "int64_t *")
        self._bind("counters", self._counters, "int64_t *")
        self._bind("dstat", self._dstat, "int64_t *")
        self._bind("link_cnt", self._link_cnt, "int64_t *")
        self._need_ptr = ffi.cast("int32_t *", ffi.from_buffer(self._need))
        self._heads_ptr = ffi.cast("int32_t *",
                                   ffi.from_buffer(self._heads))
        self._bufs.append(self._need_ptr)
        self._bufs.append(self._heads_ptr)

        self._fault_version = self.faults.version
        self._dec_cache: dict = {}
        self._dec_epoch = -1
        self._c_epoch = None           # native cache's route_epoch
        self._ct_ready = False         # set by _install_clean_table
        self.routers = [BatchedRouter(self, n) for n in topo.nodes()]

    def _bind(self, field: str, arr, ctype: str) -> None:
        buf = self._ffi.from_buffer(arr)
        self._bufs.append(buf)
        setattr(self._cs, field, self._ffi.cast(ctype, buf))

    def _grow_msgs(self, mid: int) -> None:
        n = max(mid + 1, 2 * self._msg_len.shape[0])
        for name in ("msg_len", "msg_dst", "msg_plen", "msg_f"):
            old = getattr(self, "_" + name)
            fill = FIELD_ABSENT if name == "msg_f" else 0
            new = np.full((n,) + old.shape[1:], fill, dtype=np.int32)
            new[:old.shape[0]] = old
            setattr(self, "_" + name, new)
            self._bind(name, new, "int32_t *")

    def _grow_cache(self) -> None:
        """Double the native cache's entry arrays (and rebuild the hash
        table at the matching 4x slot count)."""
        cap = self._ent_cap * 2
        for name, ctype in (("ek", "int32_t *"), ("ea", "int32_t *"),
                            ("e_deliver", "uint8_t *"),
                            ("e_steps", "int32_t *"),
                            ("e_hint", "uint8_t *"),
                            ("e_ncand", "int32_t *"),
                            ("e_cp", "int32_t *"), ("e_cv", "int32_t *")):
            old = getattr(self, "_" + name)
            new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
            new[:old.shape[0]] = old
            setattr(self, "_" + name, new)
            self._bind(name, new, ctype)
        self._tab = np.full(cap * 4, -1, dtype=np.int32)
        self._bind("tab", self._tab, "int32_t *")
        self._ent_cap = cap
        cs = self._cs
        cs.ent_cap = cap
        cs.tab_mask = cap * 4 - 1
        self._lib.k_rehash(cs)

    def _install_clean_table(self) -> None:
        """Build (or load from the code-version-keyed cache) the clean
        decision table and hand it to the kernel fully populated.
        ``ct_on`` itself is (re)evaluated per route epoch in
        ``_route_phase`` — lookups live only while the known fault set
        is empty."""
        if not self._native:
            return
        from ..routing.clean_table import load_or_build
        table = load_or_build(self.algorithm, self.topology)
        if table is None or not table.n_valid():
            return
        topo = self.topology
        node_x, node_y = self._node_x, self._node_y
        for node in topo.nodes():
            x, y = topo.coords(node)
            node_x[node] = x
            node_y[node] = y
        self._ct_valid[:] = table.valid
        self._ct_deliver[:] = table.deliver
        self._ct_hint[:] = table.hint
        self._ct_steps[:] = table.steps
        self._ct_ncand[:] = table.ncand
        self._ct_vn_after[:] = table.vn_after
        shape = (CT_KEYS, CT_CANDS)
        self._ct_cp[:] = np.asarray(table.cp, dtype=np.int32) \
            .reshape(shape)
        self._ct_cv[:] = np.asarray(table.cv, dtype=np.int32) \
            .reshape(shape)
        cs = self._cs
        cs.ct_vnf = self._nf.index("vn")
        cs.ct_termf = self._nf.index("term") if "term" in self._nf else -1
        self._ct_ready = True

    # -- per-message mirrors ------------------------------------------

    def _init_mirrors(self, hdr) -> None:
        """Seed the per-message mirror arrays when a worm starts
        injecting (the only way a message enters the data path)."""
        mid = hdr.msg_id
        if mid >= self._msg_len.shape[0]:
            self._grow_msgs(mid)
        f = hdr.fields
        self._msg_len[mid] = hdr.length
        self._msg_dst[mid] = hdr.dst
        self._msg_plen[mid] = f.get("path_len", 0)
        if self._native and f:
            # mirrors are pre-filled ABSENT, so only headers that carry
            # fields (retries, tests) need per-field encoding
            mf = self._msg_f
            for i, name in enumerate(self._nf):
                mf[mid, i] = _encode(f.get(name, _MISSING))

    def _sync_fields(self, mid: int):
        """Header fields <- mirrors.  The mirrors are authoritative
        while a message is in flight under a native algorithm (C
        applies cached field writes and departure effects); call this
        before any Python code reads the header.  Returns the header."""
        hdr = self.messages[mid].header
        f = hdr.fields
        for name, v in zip(self._nf, self._msg_f[mid].tolist()):
            if v == FIELD_ABSENT:
                f.pop(name, None)
            elif v == FIELD_NONE:
                f[name] = None
            else:
                f[name] = v
        plen = int(self._msg_plen[mid])
        if plen or "path_len" in f:
            f["path_len"] = plen
        return hdr

    def _sync_mirrors(self, mid: int) -> None:
        """Mirrors <- header fields, after Python ran the algorithm
        (``route`` never touches path_len, so only the native fields
        move)."""
        f = self.messages[mid].header.fields
        mf = self._msg_f
        for i, name in enumerate(self._nf):
            mf[mid, i] = _encode(f.get(name, _MISSING))

    def _sync_faults(self) -> None:
        faults = self.faults
        self._fault_version = faults.version
        node_ok = faults.node_ok
        port_ok = faults.port_ok
        ok = self._node_ok
        alive = self._alive
        for node, ports in enumerate(self._node_ports):
            ok[node] = 1 if node_ok(node) else 0
            for pid in ports:
                alive[node, pid + 1] = 1 if port_ok(node, pid) else 0

    # -- the cycle data path ------------------------------------------

    def _advance(self, with_traffic: bool) -> int:
        if self._fault_version != self.faults.version:
            self._sync_faults()
        self._lib.k_flush(self._cs)
        self._inject_phase()
        if with_traffic and self.traffic is not None \
                and not self._injection_paused:
            for src, dst, length in self.traffic.tick(self.cycle):
                self.offer(src, dst, length)
        self._route_phase()
        return self._alloc_phase()

    def _inject_phase(self) -> None:
        # per-node injection is independent and ascending-order, so the
        # worm-start scan runs in C over the queue-length / worm-in-
        # progress / node-liveness mirrors and Python only pops the few
        # nodes that actually start; the in-flight flit pushes happen
        # entirely in k_inject.  A dead node can never match (its queue
        # mirror is zeroed when the fault applies), so this is
        # behaviour-identical to the object engine's loop.
        lib, cs, buf_ptr = self._lib, self._cs, self._heads_ptr
        if not self._injection_paused:
            n = int(lib.k_start_scan(cs, buf_ptr))
            if n:
                src_cur = self._src_cur
                sources = self.sources
                for node in self._heads[:n].tolist():
                    hdr = sources[node].queue.popleft().header
                    self._init_mirrors(hdr)
                    src_cur[node] = hdr.msg_id
        n = int(lib.k_inject(cs, buf_ptr))
        if n:
            cycle = self.cycle
            messages = self.messages
            for mid in self._heads[:n].tolist():
                messages[mid].injected = cycle

    def _route_phase(self) -> None:
        lib, cs = self._lib, self._cs
        need_ptr = self._need_ptr
        cycle = self.cycle
        epoch = self.route_epoch
        adaptive = 1 if self.algorithm.adaptive else 0
        if self._native:
            if self._c_epoch != epoch:
                # fault knowledge changed: every cached decision is void
                lib.k_cache_clear(cs)
                self._c_epoch = epoch
                # the clean table is proven for the *empty* known-fault
                # set only; any known fault turns it off until an epoch
                # without faults returns
                cs.ct_on = 1 if (self._ct_ready and
                                 self.known_faults.n_faults() == 0) else 0
            cs.dig_on = 1 if self.stats.digest is not None else 0
        start = 0                        # active-list index, not a gid
        while True:
            n = lib.k_route_scan(cs, start, cycle, epoch, adaptive,
                                 need_ptr)
            if n == 0:
                break
            if n < 0:                    # digest buffer nearly full
                self._flush_digest()
                start = -n - 1
                continue
            self._route_gids(n, cycle, epoch)
            start = int(cs.scan_ai) + 1
        self._flush_native_stats()

    def _flush_digest(self) -> None:
        cs = self._cs
        used = int(cs.dig_used)
        if used:
            self.stats.digest.update_raw(self._dig[:used].tobytes(),
                                         int(self._dstat[3]))
            self._dstat[3] = 0
            cs.dig_used = 0

    def _flush_native_stats(self) -> None:
        ds = self._dstat
        if ds[0]:
            stats = self.stats
            stats.decisions += int(ds[0])
            stats.decision_steps += int(ds[1])
            m = int(ds[2])
            if m > stats.max_decision_steps:
                stats.max_decision_steps = m
            ds[0] = 0
            ds[1] = 0
            ds[2] = 0
        if self._cs.dig_used:
            self._flush_digest()

    def _route_gids(self, n: int, cycle: int, epoch: int) -> int:
        """Mirror of ``Router.route_stage`` for the input VCs the kernel
        flagged (all on one node); returns that node."""
        gids = self._need[:n].tolist()
        ivst = self._ivst
        buf_msg = self._buf_msg
        buf_seq = self._buf_seq
        buf_head = self._buf_head
        head_msg = self._head_msg
        iv_port = self._iv_port
        iv_vc = self._iv_vc
        ready = self._ready
        epoch_a = self._epoch_a
        stuckf = self._stuckf
        hint_a = self._hint
        msg_f = self._msg_f
        messages = self.messages
        stats = self.stats
        digest = stats.digest
        algo = self.algorithm
        adaptive = algo.adaptive
        native = self._native
        lib, cs = self._lib, self._cs
        cps = self.config.cycles_per_step
        hop_budget = self.config.hop_budget
        node = int(self._iv_node[gids[0]])
        stuck: list[int] = []
        for g in gids:
            st = ivst[g]
            if st == 0:                                    # IDLE
                hd = buf_head[g]
                mid = int(buf_msg[g, hd])
                if buf_seq[g, hd] != 0:
                    raise RuntimeError(
                        f"node {node}: body flit of message {mid} at "
                        f"the front of an idle VC")
                if native:
                    if hop_budget \
                            and int(self._msg_plen[mid]) > hop_budget:
                        stuck.append(mid)
                        continue
                    if lib.k_try_hit(cs, g, cycle, epoch):
                        continue       # hit applied in C, never stuck
                    header = self._sync_fields(mid)
                    bf = msg_f[mid]
                    b0, b1, b2, b3, b4 = (int(bf[0]), int(bf[1]),
                                          int(bf[2]), int(bf[3]),
                                          int(bf[4]))
                    # a C-key miss can still hit the (coarser-keyed)
                    # Python replay cache — much cheaper than route()
                    dec = self._route_cached(node, header,
                                             int(iv_port[g]),
                                             int(iv_vc[g]))
                    stats.count_decision(dec.steps)
                    self._write_decision(g, dec, mid, cycle, cps, epoch)
                    self._sync_mirrors(mid)
                    if cs.n_ent >= self._ent_cap - 1:
                        self._grow_cache()
                    # digest line (in order, via the C byte stream) +
                    # cache entry keyed by the before-values b0..b4
                    lib.k_note(
                        cs, g, dec.steps, b0, b1, b2, b3, b4,
                        0 if dec.refresh_hint == REFRESH_REROUTE else 1,
                        1)
                else:
                    header = messages[mid].header
                    if hop_budget and header.path_len > hop_budget:
                        stuck.append(mid)
                        continue
                    dec = self._route_cached(node, header,
                                             int(iv_port[g]),
                                             int(iv_vc[g]))
                    stats.count_decision(dec.steps)
                    if digest is not None:
                        digest.update(node, mid, dec)
                    self._write_decision(g, dec, mid, cycle, cps, epoch)
                st = 1
            if st == 1:                                    # ROUTING
                if cycle >= ready[g]:
                    ivst[g] = 2
            elif st == 2:                                  # ROUTED
                # refresh; no count, no digest — exactly the object
                # engine's semantics (which re-routes blocked adaptive
                # heads every cycle; the hints declare the equivalent
                # cheap refresh)
                if native:
                    if epoch_a[g] != epoch \
                            or (adaptive and hint_a[g] == 0):
                        mid = int(head_msg[g])
                        header = self._sync_fields(mid)
                        bf = msg_f[mid]
                        b0, b1, b2, b3, b4 = (int(bf[0]), int(bf[1]),
                                              int(bf[2]), int(bf[3]),
                                              int(bf[4]))
                        dec = self._route_cached(node, header,
                                                 int(iv_port[g]),
                                                 int(iv_vc[g]))
                        self._write_refresh(g, dec, epoch)
                        self._sync_mirrors(mid)
                        if dec.refresh_hint != REFRESH_REROUTE:
                            if cs.n_ent >= self._ent_cap - 1:
                                self._grow_cache()
                            lib.k_note(cs, g, dec.steps, b0, b1, b2,
                                       b3, b4, 1, 0)
                    elif adaptive and hint_a[g] == 1:
                        lib.k_resort(cs, g)
                elif epoch_a[g] != epoch or adaptive:
                    header = messages[int(head_msg[g])].header
                    dec = self._route_cached(node, header,
                                             int(iv_port[g]),
                                             int(iv_vc[g]))
                    self._write_refresh(g, dec, epoch)
            if ivst[g] == 2 and stuckf[g]:
                stuck.append(int(head_msg[g]))
        for mid in stuck:
            self.message_stuck(mid)
        return node

    def _write_decision(self, g: int, dec: RouteDecision, mid: int,
                        cycle: int, cps: int, epoch: int) -> None:
        self._ivst[g] = 1
        self._head_msg[g] = mid
        self._deliver[g] = 1 if dec.deliver else 0
        self._stuckf[g] = 1 if dec.stuck else 0
        self._hint[g] = dec.refresh_hint
        cands = dec.candidates
        self._ncand[g] = len(cands)
        cp = self._cand_p
        cv = self._cand_v
        for i, (p, v) in enumerate(cands):
            cp[g, i] = p
            cv[g, i] = v
        self._ready[g] = cycle + max(1, dec.steps * cps) - 1
        self._epoch_a[g] = epoch

    def _write_refresh(self, g: int, dec: RouteDecision,
                       epoch: int) -> None:
        self._deliver[g] = 1 if dec.deliver else 0
        self._stuckf[g] = 1 if dec.stuck else 0
        self._hint[g] = dec.refresh_hint
        cands = dec.candidates
        self._ncand[g] = len(cands)
        cp = self._cand_p
        cv = self._cand_v
        for i, (p, v) in enumerate(cands):
            cp[g, i] = p
            cv[g, i] = v
        self._epoch_a[g] = epoch

    def _route_cached(self, node: int, header, in_port: int,
                      in_vc: int) -> RouteDecision:
        """``algo.route`` with a per-epoch memo over
        ``route_cache_key`` + the before-values of the algorithm's
        mutable header fields; replays recorded field writes and
        re-sorts RESORT candidate sets by the current loads, so the
        decision (and hence the digest) is bit-identical to a fresh
        call."""
        algo = self.algorithm
        key = algo.route_cache_key(node, header, in_port, in_vc)
        router = self.routers[node]
        if key is None:
            return algo.route(router, header, in_port, in_vc)
        if self._dec_epoch != self.route_epoch:
            self._dec_cache.clear()
            self._dec_epoch = self.route_epoch
        fields = header.fields
        mutable = algo.cache_mutable_fields
        before = tuple(fields.get(f, _MISSING) for f in mutable)
        full_key = (key, before)
        ent = self._dec_cache.get(full_key)
        if ent is not None:
            deliver, stuck, steps, cands, hint, delta = ent
            for f, v in delta:
                fields[f] = v
            lst = list(cands)
            if hint == REFRESH_RESORT and len(lst) > 1:
                load = router.output_load
                lst.sort(key=lambda pv: (load(pv[0]), pv[0], pv[1]))
            return RouteDecision(deliver=deliver, candidates=lst,
                                 steps=steps, stuck=stuck,
                                 refresh_hint=hint)
        dec = algo.route(router, header, in_port, in_vc)
        if dec.refresh_hint != REFRESH_REROUTE:
            after = tuple(fields.get(f, _MISSING) for f in mutable)
            # only field *writes* are replayable; a decision that
            # deleted a field (only REROUTE branches do today) is not
            # cached rather than replayed wrongly
            if not any(b is not _MISSING and a is _MISSING
                       for a, b in zip(after, before)):
                delta = tuple((f, a) for f, a, b
                              in zip(mutable, after, before)
                              if a is not b and a != b)
                self._dec_cache[full_key] = (
                    dec.deliver, dec.stuck, dec.steps,
                    tuple(dec.candidates), dec.refresh_hint, delta)
        return dec

    def _alloc_phase(self) -> int:
        moved = int(self._lib.k_alloc(self._cs))
        load_token, hops, nont, nev = self._counters.tolist()
        self._load_token = load_token
        if nev:
            ev_kind = self._ev_kind[:nev].tolist()
            ev_node = self._ev_node[:nev].tolist()
            ev_msg = self._ev_msg[:nev].tolist()
            ev_a = self._ev_a
            ev_b = self._ev_b
            messages = self.messages
            algo = self.algorithm
            routers = self.routers
            native = self._native
            trace = self.config.trace_paths
            cycle = self.cycle
            # replay in exact grant order: head departures run the
            # algorithm's header bookkeeping (already applied in C for
            # native algorithms — only the path trace remains), tail
            # arrivals at LOCAL go through the normal ejection path
            # (delivery accounting, retries, recovery timing)
            for i in range(nev):
                mid = ev_msg[i]
                node = ev_node[i]
                if ev_kind[i] == 0:
                    if native:
                        if trace:
                            messages[mid].header.fields.setdefault(
                                "trace", []).append(node)
                        continue
                    header = messages[mid].header
                    algo.on_depart(routers[node], header,
                                   int(ev_a[i]), int(ev_b[i]))
                    if trace:
                        header.fields.setdefault("trace",
                                                 []).append(node)
                else:
                    if native:
                        # delivery accounting reads hop count and the
                        # misrouted mark from the header
                        self._sync_fields(mid)
                    self.eject(node, _TailShim(mid), cycle)
        stats = self.stats
        if hops:
            stats.flit_hops += hops
        # nont: non-tail flits ejected locally
        if nont:
            stats.flits_delivered += nont
            if stats.now >= stats.warmup:
                stats.flits_delivered_measured += nont
        return moved

    # -- queries / fault machinery over the arrays --------------------

    def _flits_in_flight(self) -> int:
        return int(self._r_nflits.sum())

    def _metrics_active_routers(self) -> int:
        # C-side mirror of the object engine's _active set (see
        # act_compact / k_inject / do_grant in the kernel)
        return int(self._cs.m_count)

    def _drain_link_counts(self):
        """((src, dst), count) deltas for ``MetricsTimeseries.
        flush_links``; zeroes what it hands over, so repeated
        ``to_dict()`` reads stay exact.  Two output VCs on one port
        fold into the same directed pair downstream."""
        cnt = self._link_cnt
        out: list = []
        iv_node = self._iv_node
        ov_down = self._ov_down
        for ovg in np.flatnonzero(cnt).tolist():
            out.append(((int(iv_node[ovg]), int(iv_node[ov_down[ovg]])),
                        int(cnt[ovg])))
            cnt[ovg] = 0
        return out

    def _pending_sources(self) -> int:
        n = sum(len(s.queue) for s in self.sources)
        cur = self._src_cur
        for node in np.flatnonzero(cur >= 0):
            mid = int(cur[node])
            n += self.messages[mid].header.length \
                - int(self._src_pos[node])
        return n

    def _drain_for_fault(self) -> None:
        self._injection_paused = True
        guard = 0
        while self._flits_in_flight() or bool((self._src_cur >= 0).any()):
            self._step_drain()
            guard += 1
            if guard > self.config.deadlock_threshold * 10:
                raise DeadlockError("network failed to quiesce for a fault")
        self._injection_paused = False

    def offer(self, src, dst, length, **fields):
        msg = super().offer(src, dst, length, **fields)
        if msg is not None:
            self._src_qlen[src] += 1
            # a queued source makes the node active (the C scans only
            # visit the active list); compacted away once it drains
            self._lib.k_activate(self._cs, src)
        return msg

    def _release_retry(self, src, dst, length, carry) -> None:
        before = len(self.sources[src].queue)
        super()._release_retry(src, dst, length, carry)
        if len(self.sources[src].queue) != before:
            self._src_qlen[src] += 1
            self._lib.k_activate(self._cs, src)

    def _apply_fault_now(self, event) -> None:
        super()._apply_fault_now(event)
        if event.kind == "node":
            node = int(event.target)
            self._src_cur[node] = -1
            self._src_qlen[node] = 0

    def _rip_up_worms(self, event) -> None:
        # identical victim *insertion order* to the object engine, so
        # the set iterates (and messages drop) in the same sequence —
        # drop order feeds the retry heap's tie-breaking sequence
        victims: set[int] = set()
        if event.kind == "link":
            a, b = event.target
            for node, pid_ok in ((a, b), (b, a)):
                router = self.routers[node]
                for pid, port in router.ports.items():
                    if port.neighbor == pid_ok:
                        victims |= router.worms_using_port(pid)
        else:
            node = int(event.target)
            lo = int(self._iv_off[node])
            hi = int(self._iv_off[node + 1])
            cap = self.config.buffer_depth
            for g in range(lo, hi):
                hd = int(self._buf_head[g])
                for i in range(int(self._buf_cnt[g])):
                    victims.add(int(self._buf_msg[g, (hd + i) % cap]))
                if self._inc_val[g]:
                    victims.add(int(self._inc_msg[g]))
            for r in self.routers:
                for pid, port in r.ports.items():
                    if port.neighbor == node:
                        victims |= r.worms_using_port(pid)
        for msg_id in victims:
            self.drop_message(msg_id, event=event)

    def message_stuck(self, msg_id: int) -> None:
        if self._native and msg_id in self.messages:
            self._sync_fields(msg_id)      # fields faithful on exit
        self._lib.k_purge_all(self._cs, msg_id)
        self._load_token = int(self._counters[0])
        msg = self.messages.get(msg_id)
        if msg is not None:
            src = msg.header.src
            if int(self._src_cur[src]) == msg_id:
                self._src_cur[src] = -1
            msg.dropped = True
            msg.header.fields["stuck"] = True
        self.stats.messages_stuck += 1
        if msg is not None and self.config.retry_limit \
                and not msg.delivered:
            self._schedule_retry(msg)

    def drop_message(self, msg_id: int, event=None) -> None:
        if self._native and msg_id in self.messages:
            self._sync_fields(msg_id)      # fields faithful on exit
        self._lib.k_purge_all(self._cs, msg_id)
        self._load_token = int(self._counters[0])
        msg = self.messages.get(msg_id)
        if msg is None:  # pragma: no cover
            return
        src = msg.header.src
        if int(self._src_cur[src]) == msg_id:
            self._src_cur[src] = -1
        msg.dropped = True
        self.stats.count_dropped()
        if msg.delivered:
            return
        if self.config.retry_limit:
            self._schedule_retry(msg, event=event)
        elif self.config.retransmit_dropped:
            self.offer(msg.header.src, msg.header.dst, msg.header.length,
                       retry_of=msg.header.msg_id)

    # -- stall diagnosis ----------------------------------------------

    def _diagnose_stall(self):
        from .watchdog import diagnose_stall
        return diagnose_stall(self._materialize())

    def _make_flit(self, mid: int, seq: int) -> Flit:
        msg = self.messages.get(mid)
        length = msg.header.length if msg else int(self._msg_len[mid])
        if length == 1:
            kind = FlitKind.HEAD_TAIL
        elif seq == 0:
            kind = FlitKind.HEAD
        elif seq == length - 1:
            kind = FlitKind.TAIL
        else:
            kind = FlitKind.BODY
        header = msg.header if (msg is not None and seq == 0) else None
        return Flit(kind, mid, seq, header=header)

    def _materialize(self):
        """Reconstruct object-engine routers (real InputVC/OutputVC/
        Flit instances) from the arrays for the watchdog's structural
        walk.  Only runs on a diagnosed stall — never on the hot
        path."""
        from types import SimpleNamespace
        cap = self.config.buffer_depth
        if self._native:
            # make every in-flight header faithful before the
            # structural walk reads them
            mids: set[int] = set()
            for g in range(int(self._iv_off[-1])):
                hd = int(self._buf_head[g])
                for i in range(int(self._buf_cnt[g])):
                    mids.add(int(self._buf_msg[g, (hd + i) % cap]))
                if self._inc_val[g]:
                    mids.add(int(self._inc_msg[g]))
                if self._head_msg[g] >= 0:
                    mids.add(int(self._head_msg[g]))
            for mid in mids:
                if mid in self.messages:
                    self._sync_fields(mid)
        shims = []
        for node in self.topology.nodes():
            lo = int(self._iv_off[node])
            hi = int(self._iv_off[node + 1])
            input_vcs: dict[int, list[InputVC]] = {}
            output_vcs: dict[int, list[OutputVC]] = {}
            ivs = []
            for g in range(lo, hi):
                pid = int(self._iv_port[g])
                vc = int(self._iv_vc[g])
                iv = InputVC(pid, vc, cap)
                hd = int(self._buf_head[g])
                for i in range(int(self._buf_cnt[g])):
                    idx = (hd + i) % cap
                    iv.buffer.append(
                        self._make_flit(int(self._buf_msg[g, idx]),
                                        int(self._buf_seq[g, idx])))
                if self._inc_val[g]:
                    iv.incoming.append(
                        self._make_flit(int(self._inc_msg[g]),
                                        int(self._inc_seq[g])))
                st = int(self._ivst[g])
                iv.state = _STATE_NAMES[st]
                mid = int(self._head_msg[g])
                if st != 0 and mid >= 0:
                    msg = self.messages.get(mid)
                    iv.header = msg.header if msg else None
                    iv.decision = RouteDecision(
                        deliver=bool(self._deliver[g]),
                        candidates=[(int(self._cand_p[g, i]),
                                     int(self._cand_v[g, i]))
                                    for i in range(int(self._ncand[g]))],
                        stuck=bool(self._stuckf[g]),
                        refresh_hint=int(self._hint[g]))
                if st == 3:
                    iv.out_port = int(self._o_port[g])
                    iv.out_vc = int(self._o_vc[g])
                input_vcs.setdefault(pid, []).append(iv)
                ivs.append(iv)
                ov = OutputVC(pid, vc)
                og = int(self._ov_owner[g])
                if og >= 0:
                    ov.owner = (int(self._iv_port[og]),
                                int(self._iv_vc[og]))
                output_vcs.setdefault(pid, []).append(ov)
            shims.append(SimpleNamespace(
                node=node, n_flits=int(self._r_nflits[node]),
                input_vcs=input_vcs, output_vcs=output_vcs,
                _ivs=tuple(ivs), ports=self._node_ports[node],
                port_alive=self.routers[node].port_alive, _down={}))
        for node, shim in enumerate(shims):
            shim._down = {
                pid: (shims[port.neighbor],
                      shims[port.neighbor].input_vcs[port.neighbor_port])
                for pid, port in self._node_ports[node].items()}
        return SimpleNamespace(
            routers=shims, cycle=self.cycle,
            _last_progress=self._last_progress,
            _flits_in_flight=self._flits_in_flight,
            _pending_detections=self._pending_detections,
            diagnosis=self.diagnosis)


def batched_fallback_reason(arbiter="round_robin", tracer=None,
                            metrics=None, config=None) -> str | None:
    """Why ``engine="batched"`` would fall back to the object engine
    for this configuration — None when the batched engine applies.

    The fallback rules (documented in docs/PERFORMANCE.md): the batched
    engine emits no trace events, implements only the stock round-robin
    arbiter, and needs a C compiler (or a previously cached kernel
    build) on first use.  Metrics timeseries no longer force a
    fallback: the kernels keep the per-link counters and the
    active-router gauge in arrays and drain them into the timeseries
    (the ``metrics`` parameter is kept for call-site compatibility)."""
    if tracer is not None and getattr(tracer, "enabled", True):
        return "tracing is enabled (the batched data path emits no events)"
    if config is not None and config.backup_routes:
        return ("backup_routes is enabled (fast-reroute healing walks "
                "per-flit worm state the batched arrays do not model)")
    if config is not None and config.policy != "deterministic":
        return (f"selection policy {config.policy!r} is not "
                f"'deterministic' (the batched decision cache replays "
                f"candidate orderings, so policy re-ordering would "
                f"silently diverge)")
    if isinstance(arbiter, Arbiter):
        if type(arbiter) is not Arbiter:
            return (f"arbiter {arbiter.name!r} is not the stock "
                    f"round-robin")
    elif arbiter != "round_robin":
        return f"arbiter {arbiter!r} is not the stock round-robin"
    if not kernel_available():
        return "no C compiler is available to build the batched kernel"
    return None


def build_network(topology, algorithm, config: SimConfig | None = None,
                  arbiter="round_robin", tracer=None,
                  metrics=None) -> Network:
    """Construct the network engine ``config.engine`` selects.

    ``engine="batched"`` transparently falls back to the (bit-
    identical) object engine when :func:`batched_fallback_reason` says
    so; inspect the returned network's ``engine_name`` to see which
    engine actually runs.  A fallback also records its reason in
    ``stats.engine_fallback`` (surfaced as the ``engine_fallback`` key
    of ``SimStats.summary()``), so runners and campaigns report *why*
    without holding the network object."""
    cfg = config or SimConfig()
    if cfg.engine == "batched":
        reason = batched_fallback_reason(arbiter, tracer, metrics, cfg)
        if reason is None:
            return BatchedNetwork(topology, algorithm, cfg,
                                  arbiter=arbiter, metrics=metrics)
        net = Network(topology, algorithm, cfg, arbiter=arbiter,
                      tracer=tracer, metrics=metrics)
        net.stats.engine_fallback = reason
        return net
    return Network(topology, algorithm, cfg, arbiter=arbiter,
                   tracer=tracer, metrics=metrics)
