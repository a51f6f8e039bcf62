"""Struct-of-arrays simulation engine (``SimConfig(engine="batched")``).

The object engine (:mod:`repro.sim.network`) is the bit-exact oracle:
per-flit Python objects, one method call per phase per router.  This
module re-represents the same machine as flat numpy arrays — channel
occupancy, credits, worm heads and tails, flit queues, round-robin
pointers — advanced each cycle by compiled C kernels
(:mod:`repro.sim._batched_kernel`), with Python entered only where the
routing *algorithm* must run — one input VC per crossing: a fresh head
decision or an epoch-stale or REROUTE-hinted refresh, whose ``route``
result goes back to the kernel in one ``k_commit`` call — and once per
node with stuck heads to purge; plus the fault events themselves,
where fast reroute (``backup_routes``) heals and absorbs worms with the
object engine's walks over the arrays.

What happens to a message after a fault — rip-up, heal, absorb,
retry, dead letter — is decided by :class:`~repro.sim.network.Network`,
once for both engines.  This engine replaces only the data path: the
per-cycle phases, the worm walks and the few primitives that lifecycle
drives (purge a message, admit one to the ledger, report injection in
progress, list a node's buffered messages and the heal sites, find
where a stuck head waits).

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
  port, vc) in C, ARGMIN does the same to the decision's whole
  ``argmin_set`` and offers only its first member, STATIC skips,
  REROUTE re-enters the algorithm in Python;
* for algorithms that declare a native contract
  (:meth:`~repro.routing.base.RoutingAlgorithm.native_contract`, read
  once per build), one C-side decision cache keyed on the mirrored
  header fields (and the node and destination, or under
  ``relative_dst`` the node's class and the destination's class
  relative to it) replays repeated decisions; every miss is a fresh
  ``route()`` call, committed into that cache.

Messages live in the *ledger* both engines keep
(:class:`~repro.sim.flit.Ledger`): one row per message id in growable
int columns, which here the kernel shares (source, destination,
length, created, injected, delivered, root id, flags, the source-FIFO
link and the header-field mirrors).  A traffic phase hands its (src,
dst, length) triples to one ``k_admit`` call, which screens them
(assumption iii), numbers, records and queues them; the kernel pops
the source FIFOs, stamps injections and delivers, with the misrouted
mark, every message whose header Python never took.  A
:class:`~repro.sim.flit.Message` view is built only when Python asks
for one (a ``route()`` crossing, a rip-up or heal, a retry, the public
``offer``); its delivery replays through ``eject``.  The delivery
statistics are the reduction over the columns that the object engine's
summary takes too.

The per-cycle C scans iterate an *active set* — a compacted, sorted
array of nodes that hold flits, are mid-injection or have queued
sources — so idle fabric costs nothing per cycle and throughput scales
with occupancy, not mesh size.  The flush touches only the staging
slots filled since the last one (an arrival list) and the ``uniform``
pattern is drawn in the kernel from the generator's bit stream, so
those costs scale with the flits and messages that moved.  While the known fault
set is empty, a build-time 54-entry clean table
(:mod:`repro.routing.clean_table`) replays the native algorithms'
translation-invariant decisions entirely in C, eliminating the
decision-cache fill cliff.  Metrics
timeseries attach natively: the kernels maintain the active-router
gauge and per-link flit counters in arrays, drained into
:class:`repro.obs.metrics.MetricsTimeseries` at read time.

Use :func:`build_network` to construct a network honouring
``SimConfig.engine``; it transparently falls back to the object engine
(and documents why, in ``SimStats.summary()['engine_fallback']``) when
tracing is attached, a non-stock arbiter is requested, or the C kernel
cannot be built or loaded.
"""

from __future__ import annotations

import numpy as np

from .arbiter import Arbiter
from .config import SimConfig
from .flit import (LEDGER_ROWS, Flit, FlitKind, Ledger, Message, encoded,
                   load_fields)
from .network import Network
from .router import ACTIVE, IDLE, LOCAL, ROUTED, ROUTING, InputVC, OutputVC
from .topology import Hypercube
from .traffic import TrafficGenerator
from ._batched_kernel import (ARRAYS, DIG_CAP, DIMS, RECORDS, SCAN_DONE,
                              SCAN_FLUSH, SCAN_PURGE, SCAN_ROUTE, column,
                              grow, load_kernel, resize, unavailable_reason)
from ..routing.base import REFRESH_ARGMIN, RouteDecision

_STATE_NAMES = (IDLE, ROUTING, ROUTED, ACTIVE)
_NO_ARMS = frozenset()
_NO_KERNEL = "the batched kernel is unavailable: "


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
    ``port_alive``, ``ports``, ``worms_using_port``, …) backed by the
    shared arrays; the per-cycle data-path phases never touch it."""

    __slots__ = ("network", "node", "topology", "ports", "n_vcs", "_pids")

    def __init__(self, network: "BatchedNetwork", node: int):
        self.network = network
        self.node = node
        self.topology = network.topology
        self.ports = dict(network.topology.ports(node))
        self.n_vcs = network.algorithm.n_vcs
        self._pids = sorted(self.ports)

    # -- views used by routing algorithms -----------------------------

    def port_alive(self, pid: int) -> bool:
        if pid == LOCAL:
            return True
        if pid not in self.ports:
            return False
        return self.network.faults.port_ok(self.node, pid)

    def credits(self, pid: int, vc: int) -> int:
        if pid == LOCAL:
            return 1 << 30
        net = self.network
        d = int(net._ov_down[net._portbase[self.node, pid + 1] + vc])
        return net.config.buffer_depth - int(net._buf_cnt[d]) \
            - int(net._inc_val[d])

    def output_load(self, pid: int) -> int:
        """Same metric as the object router: occupied downstream buffer
        slots plus worms holding the VCs."""
        if pid == LOCAL:
            return 0
        net = self.network
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
        return out

    def port_loads(self) -> dict[int, int]:
        """``output_load`` of every port, from one kernel call."""
        net = self.network
        net._lib.k_port_loads(net._cs, self.node, net._loads_ptr)
        return dict(zip(self._pids, net._loads.tolist()))

    def unlink(self) -> None:
        """Drop the reference to the network (its teardown)."""
        self.network = None

    # -- fault handling -----------------------------------------------

    def worms_using_port(self, pid: int) -> set[int]:
        net = self.network
        lo = int(net._iv_off[self.node])
        hi = int(net._iv_off[self.node + 1])
        ivst = net._st
        o_port = net._o_port
        head_msg = net._head_msg
        out: set[int] = set()
        for g in range(lo, hi):          # gid order = object _ivs order
            if ivst[g] == 3 and o_port[g] == pid and head_msg[g] >= 0:
                out.add(int(head_msg[g]))
        return out


class BatchedNetwork(Network):
    """Drop-in :class:`Network` whose data path runs on arrays + C.

    Only the data path is replaced: the per-cycle phases (``_advance``
    and the helpers it drives), fast reroute's worm walks and the
    data-path primitives of the message lifecycle.  The lifecycle
    itself — fault machinery, rip-up, heal and absorb, retry
    queue, dead letters — plus the diagnosis flood and the watchdog
    run unchanged in :class:`Network`.  Requires what
    :func:`batched_fallback_reason` checks (the stock round-robin
    arbiter, no tracer, the C kernel; metrics timeseries attach
    natively) — use :func:`build_network` for transparent fallback."""

    engine_name = "batched"

    def __init__(self, topology, algorithm, config: SimConfig | None = None,
                 arbiter="round_robin", tracer=None, metrics=None):
        why = batched_fallback_reason(arbiter, tracer)
        if why is not None:
            error = (RuntimeError if why.startswith(_NO_KERNEL)
                     else ValueError)
            raise error(f"batched engine refused: {why}; use "
                        f"build_network() for transparent fallback")
        self._ffi, self._lib = load_kernel()
        super().__init__(topology, algorithm, config, arbiter=arbiter,
                         metrics=metrics)
        # the clean table probes route() through the algorithm's live
        # state, so it installs only after reset() ran (end of the base
        # constructor)
        self._install_clean_table()
        if metrics is not None:
            metrics.attach_link_source(self._drain_link_counts)

    # -- construction -------------------------------------------------

    def _make_routers(self) -> None:
        topo = self.topology
        n_nodes = len(topo.nodes())
        n_vcs = self.algorithm.n_vcs
        node_ports = [dict(topo.ports(n)) for n in topo.nodes()]
        max_pid = max((max(p) for p in node_ports if p), default=-1)
        npid = max_pid + 2                     # LOCAL slot + ports 0..max
        maxc = npid * n_vcs
        if maxc > 64:
            raise ValueError(
                f"batched engine limit: {npid - 1} ports x {n_vcs} VCs "
                f"exceeds the kernel's 64-candidate/request bound")
        spans = np.cumsum([0] + [(len(p) + 1) * n_vcs for p in node_ports])
        n_iv = int(spans[-1])
        self._node_ports = node_ports

        # native decision cache: enabled when the algorithm declares a
        # native contract; otherwise its arrays are token-sized and the
        # kernel never touches them.  It starts small and doubles as it
        # fills (_grow_cache), so a run that sees few keys holds little
        contract = self.algorithm.native_contract(topo)
        native = contract is not None
        self._contract = contract
        self._native = native
        self._nf = contract.fields if native else ()
        ent_cap = (1 << 12) if native else 8
        #: the sizes of the ARRAYS dimensions (the ledger adds and
        #: grows "msgs"; the cache's "entries" and "buckets" grow,
        #: "views" follows each screen sync)
        self._dims = dict(DIMS, nodes=n_nodes, spans=n_nodes + 1,
                          words=(n_nodes + 63) // 64, slots=npid,
                          ivs=n_iv, ring=self.config.buffer_depth,
                          cands=maxc, events=2 * n_iv + 8,
                          entries=ent_cap, buckets=4 * ent_cap, views=1)
        self._cs = cs = self._ffi.new("BState *")
        #: the message ledger, on columns the kernel shares
        self._lg = Ledger(cs, self._nf, self._dims)
        #: the buffers behind the struct's pointers, by field
        self._bufs: dict = {}
        for row in ARRAYS:
            if row not in LEDGER_ROWS:
                setattr(self, "_" + row[0], column(row, self._dims))
            self._bind(row)
        self._heads = np.zeros(n_nodes, dtype=np.int32)
        self._loads = np.zeros(max_pid + 1, dtype=np.int32)
        self._heads_ptr = self._ffi.from_buffer("int32_t[]", self._heads)
        self._loads_ptr = self._ffi.from_buffer("int32_t[]", self._loads)

        self._iv_off[:] = spans
        # the gids go node by node, port by port (LOCAL first), n_vcs
        # each: port slot i, a (node, pid) pair, starts at gid i * n_vcs
        slots = [(node, pid) for node in range(n_nodes)
                 for pid in [LOCAL] + sorted(node_ports[node])]
        s_node, s_pid = np.array(slots, dtype=np.int64).T
        assert len(slots) * n_vcs == n_iv
        self._portbase[s_node, s_pid + 1] = np.arange(len(slots)) * n_vcs
        self._alive[s_node, s_pid + 1] = 1     # LOCAL is always alive
        self._iv_node[:] = node_of = np.repeat(s_node, n_vcs)
        self._iv_port[:] = np.repeat(s_pid, n_vcs)
        self._iv_vc[:] = np.tile(np.arange(n_vcs), len(slots))
        self._iv_bit[:] = np.arange(n_iv) - spans[node_of]
        # an output VC feeds the same VC of its neighbour's input port
        ups, downs = [], []
        for i, (node, pid) in enumerate(slots):
            if pid != LOCAL:
                port = node_ports[node][pid]
                ups.append(i)
                downs.append((port.neighbor, port.neighbor_port + 1))
        vcs = np.arange(n_vcs)
        down_base = self._portbase[tuple(np.array(downs).T)]
        self._ov_down[(np.array(ups)[:, None] * n_vcs + vcs).ravel()] = \
            (down_base[:, None] + vcs).ravel()

        # the configuration scalars (ffi.new zero-filled the rest)
        cs.n_nodes = n_nodes
        cs.n_iv = n_iv
        cs.cap = self.config.buffer_depth
        cs.n_vcs = n_vcs
        cs.max_pid = max_pid
        cs.maxc = maxc
        cs.n_native = len(self._nf)
        cs.cps = self.config.cycles_per_step
        cs.hop_budget = int(self.config.hop_budget or 0)
        lim = contract.livelock_limit if native else None
        cs.limit = int(lim) if lim is not None else (2 ** 31 - 1)
        cs.adaptive = 1 if self.algorithm.adaptive else 0
        # head-departure events are only replayed in Python when the
        # algorithm's on_depart must run there or paths are traced
        cs.trace_on = 0 if (native and not self.config.trace_paths) else 1
        rule = contract.term_rule if native else None
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
        bump = contract.bump_rule if native else None
        if bump is not None:
            cs.bump_on = 1
            cs.bump_f = self._nf.index(bump[0])
            cs.cnt_f = self._nf.index(bump[1])
        cs.pin = contract.resort_pin if native else 0
        load_cap = contract.load_cap if native else None
        cs.load_cap = load_cap if load_cap is not None else (2 ** 31 - 1)
        cs.key_port = int(contract.key_uses_port) if native else 1
        cs.key_vc = int(contract.key_uses_vc) if native else 1
        cs.tab_mask = 4 * ent_cap - 1
        cs.ent_cap = ent_cap
        cs.dig_cap = DIG_CAP
        cs.mis_f = (self._nf.index("misrouted") if "misrouted" in self._nf
                    else -1)
        cs.m_on = 1 if self.metrics is not None else 0
        cs.ct_vnf = -1
        cs.ct_termf = -1
        #: key regular destinations by their relative class (see
        #: NativeContract.relative_dst); the irregular mask and the
        #: node classes are refreshed on every cache clear
        cube = isinstance(topo, Hypercube)
        self._rel = native and contract.relative_dst \
            and not (cube and topo.dimension > 15)
        cs.rel_on = (2 if cube else 1) if self._rel else 0
        if self._rel and not cube:
            self._fill_coords()

        self._fault_version = self.faults.version
        self._screen_key = None        # what _sync_screen last encoded
        self._c_epoch = None           # native cache's route_epoch ...
        self._c_links = None           # ... and link-status version
        #: the native decisions read the link status (see
        #: NativeContract.reads_links)
        self._reads_links = native and contract.reads_links
        self._ct_ready = False         # set by _install_clean_table
        # fast reroute (backup_routes): the wrapper whose armed links
        # make injections at their endpoints uncacheable, and the armed
        # set the native cache was last cleared for
        from ..routing.backup import FastReroute
        self._frr = (self.algorithm if isinstance(self.algorithm,
                                                  FastReroute) else None)
        self._c_armed = _NO_ARMS
        # the traffic generator (and its rng) the kernel's uniform tick
        # is bound to, and its arguments (None: the generator's own
        # tick); the rng's bit generator outlives the pointer to it
        self._tick_gen = self._tick_rng = self._tick_args = None
        self.routers = [BatchedRouter(self, n) for n in topo.nodes()]

    def _home(self, row) -> tuple:
        """(object, attribute) holding the array of ``row`` (an ARRAYS
        row): the ledger's columns live on the ledger, whose views
        outlive the network, the others on the network as ``_<name>``."""
        return (self._lg, row[0]) if row in LEDGER_ROWS \
            else (self, "_" + row[0])

    def _bind(self, row) -> None:
        """Point ``row``'s struct field at its array.  A record row's
        fields are seen as views of that array, ``_<prefix><field>``
        (see :data:`~repro.sim._batched_kernel.RECORDS`)."""
        name, ctype = row[:2]
        arr = getattr(*self._home(row))
        buf = self._bufs[name] = self._ffi.from_buffer(arr)
        setattr(self._cs, name, self._ffi.cast(ctype + " *", buf))
        if ctype in RECORDS:
            prefix, fields = RECORDS[ctype]
            for field in fields:
                setattr(self, "_" + prefix + field[0], arr[field[0]])

    def _resize(self, dim: str, n: int) -> None:
        """:func:`~repro.sim._batched_kernel.resize` ``dim`` to ``n``
        rows and rebind the arrays it replaced."""
        for row in resize(self._dims, dim, n, self._home):
            self._bind(row)

    def _grow_cache(self, need: int) -> None:
        """Room for ``need`` decision cache entries, as the ledger grows
        its rows.  The cache's hash table follows at 4x the entries and
        is rebuilt."""
        for row in grow(self._dims, "entries", need, self._home):
            self._bind(row)
        n = self._dims["entries"]
        self._resize("buckets", 4 * n)
        cs = self._cs
        cs.ent_cap = n
        cs.tab_mask = 4 * n - 1
        self._lib.k_rehash(cs)

    def _room(self, n: int) -> None:
        """Room in the ledger for ``n`` more messages."""
        for row in self._lg.room(n):
            self._bind(row)

    def _install_clean_table(self) -> None:
        """Build (or load from the code-version-keyed cache) the clean
        decision table and hand it to the kernel fully populated.
        ``ct_on`` itself is (re)evaluated per route epoch in
        ``_route_phase`` — lookups live only while the known fault set
        (and, for an algorithm that reads it, the dead-link set) is
        empty."""
        if not self._native:
            return
        from ..routing.clean_table import load_or_build
        # an unarmed fast-reroute wrapper decides exactly as its inner
        # algorithm, so both share one (cached) table
        algo = self._frr.inner if self._frr is not None else self.algorithm
        table = load_or_build(algo, self.topology)
        if table is None or not table.n_valid():
            return
        self._fill_coords()
        self._ct_valid[:] = table.valid
        self._ct_deliver[:] = table.deliver
        self._ct_hint[:] = table.hint
        self._ct_steps[:] = table.steps
        self._ct_ncand[:] = table.ncand
        self._ct_vn_after[:] = table.vn_after
        self._ct_cp[:] = np.reshape(table.cp, self._ct_cp.shape)
        self._ct_cv[:] = np.reshape(table.cv, self._ct_cv.shape)
        cs = self._cs
        cs.ct_vnf = self._nf.index("vn")
        cs.ct_termf = self._nf.index("term") if "term" in self._nf else -1
        self._ct_ready = True

    def _fill_coords(self) -> None:
        topo = self.topology
        for node in topo.nodes():
            self._node_x[node], self._node_y[node] = topo.coords(node)

    # -- the message ledger -------------------------------------------

    def offer(self, src: int, dst: int, length: int,
              **fields) -> Message | None:
        """:meth:`Network.offer` for one message, through the kernel
        screen a traffic phase uses."""
        self._sync_screen()
        if length < 1 and self._lib.k_screen(self._cs, src, dst):
            raise ValueError("message length must be >= 1 flit")
        msg = self._admit(src, dst, length, fields, screen=1)
        if msg is None:
            self.stats.count_unroutable()
        return msg

    def _admit(self, src: int, dst: int, length: int, fields: dict,
               screen: int = 0) -> Message | None:
        """Admit one message from Python (screened when ``screen``) and
        return its view, or None when the screen refuses it.  Its root
        id, retransmission flag and path-length and field mirrors come
        from the header ``fields``."""
        cs = self._cs
        self._room(1)
        cs.now = self.cycle
        if not self._lib.k_admit(cs, 1, [src], [dst], self._ffi.NULL,
                                 length, screen):
            return None
        mid = cs.n_msgs - 1
        if self._native and fields:
            # mirrors are pre-filled ABSENT, so only headers that carry
            # fields (retries, heals, tests) need per-field encoding
            self._lg.msg_f[mid, :len(self._nf)] = encoded(fields, self._nf)
        return self.messages.hold(mid, fields)

    def _sync_fields(self, mid: int):
        """Header fields <- mirrors.  The mirrors are authoritative
        while a message is in flight under a native algorithm (C
        applies cached field writes and departure effects); call this
        before any Python code reads the header.  Returns the header."""
        hdr = self._msg(mid).header
        lg = self._lg
        load_fields(hdr.fields, self._nf, lg.msg_f[mid].tolist(),
                    int(lg.msg_plen[mid]))
        return hdr

    def _sync_screen(self) -> None:
        """Refresh the admission screen's per-node arrays when what they
        encode may have changed: the fault set, a diagnosis view, or the
        algorithm's fault knowledge (``route_epoch``)."""
        diag = self.diagnosis
        key = (self.route_epoch, self.faults.version,
               diag.version if diag is not None else 0)
        if key == self._screen_key:
            return
        self._screen_key = key
        if self._fault_version != self.faults.version:
            self._sync_faults()
        # one label row per distinct fault view (the diagnosis views
        # share one label list per distinct fault set)
        rows: dict = {}
        for node, view in enumerate([self.faults] if diag is None
                                    else diag.views):
            labels = view._component_labels()
            self._adm_view[node] = rows.setdefault(
                id(labels), (len(rows), labels))[0]
        self._resize("views", len(rows))
        self._adm_lab[:] = [labels for _, labels in rows.values()]
        accepts = self.algorithm.accepts_node
        self._adm_ok[:] = [accepts(n) for n in range(self._adm_ok.shape[0])]

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
        cs = self._cs
        cs.now = self.cycle
        self._lib.k_flush(cs)
        self._inject_phase()
        if with_traffic and self.traffic is not None \
                and not self._injection_paused:
            self._offer_phase()
        self._route_phase()
        return self._alloc_phase()

    def _offer_phase(self) -> None:
        """The cycle's traffic, screened, numbered, recorded in the
        ledger and queued by one kernel call; the refused count as
        unroutable.  Uniform traffic is drawn in that call from the
        generator's bit stream, in ``tick``'s order, so the offers and
        the generator's state are the same; other patterns ``tick``."""
        gen = self.traffic
        if gen is not self._tick_gen \
                or getattr(gen, "rng", None) is not self._tick_rng:
            self._bind_tick(gen)
        self._sync_screen()
        lib, cs = self._lib, self._cs
        if self._tick_args is not None:
            self._room(self._tick_args[1])
            refused = lib.k_uniform_admit(cs, *self._tick_args,
                                          gen.message_length)
        else:
            trips = list(gen.tick(self.cycle))
            if not trips:
                return
            if min(t[2] for t in trips) < 1:
                for t in trips:          # offer refuses the bad length
                    self.offer(*t)
                return
            n = len(trips)
            self._room(n)
            src, dst, length = (list(c) for c in zip(*trips))
            refused = n - lib.k_admit(cs, n, src, dst, length, 0, 1)
        if refused:
            self.stats.messages_unroutable += refused

    def _bind_tick(self, gen) -> None:
        self._tick_gen = gen
        self._tick_rng = rng = getattr(gen, "rng", None)
        trials = (gen.uniform_trials() if isinstance(gen, TrafficGenerator)
                  else None)
        if trials is None:
            self._tick_args = None
            return
        n_nodes, p = trials
        ffi = self._ffi
        bitgen = rng.bit_generator.ctypes.bit_generator.value
        # the drawn sources and destinations, where k_admit reads them
        self._tick_args = (
            ffi.cast("bitgen_t *", bitgen), n_nodes, p,
            ffi.from_buffer("int32_t[]", np.zeros(n_nodes, dtype=np.int32)),
            ffi.from_buffer("int32_t[]", np.zeros(n_nodes, dtype=np.int32)))

    def _inject_phase(self) -> None:
        # per-node injection is independent and ascending-order, so the
        # worm starts (FIFO pops) and the flit pushes (which stamp the
        # injected cycle of a head that enters) run in C.  A dead node
        # can never start (its FIFO is emptied when the fault applies),
        # so this is behaviour-identical to the object engine's loop.
        lib, cs, buf_ptr = self._lib, self._cs, self._heads_ptr
        if not self._injection_paused:
            lib.k_start_scan(cs, buf_ptr)
        lib.k_inject(cs, buf_ptr)

    def _route_phase(self) -> None:
        lib, cs = self._lib, self._cs
        cycle = self.cycle
        epoch = self.route_epoch
        nf = self._nf
        if self._native:
            armed = self._frr.armed if self._frr is not None else _NO_ARMS
            links = self.faults.version if self._reads_links else 0
            if self._c_epoch != epoch or armed != self._c_armed \
                    or self._c_links != links:
                # fault knowledge or a link status route() reads
                # changed, or a backup subbase was armed or disarmed:
                # every cached decision is void
                lib.k_cache_clear(cs)
                self._c_epoch = epoch
                if self._rel:
                    irreg = self._irreg
                    irreg[:] = 0
                    irreg[list(self._contract.irregular_dsts())] = 1
                    self._fill_classes(armed)
                if self._c_links != links:
                    self._c_links = links
                    self._restale()
                if armed != self._c_armed:
                    self._rearm(armed)
                # the clean table is proven for the *empty* fault set,
                # with no backup armed, only; any known fault (or dead
                # link route() reads) turns it off until it is gone
                cs.ct_on = 1 if (self._ct_ready and not armed and
                                 self.known_faults.n_faults() == 0 and
                                 not (self._reads_links and
                                      self.faults.n_faults())) else 0
        cs.dig_on = 1 if self.stats.digest is not None else 0
        # The kernel runs Router.route_stage node by node and hands
        # Python one input VC per SCAN_ROUTE: sync its header, route()
        # it, count a fresh decision (refreshes are silent, as in the
        # object engine) and return the decision in one k_commit call
        scan, commit = lib.k_route_scan, lib.k_commit
        xing = self._xing
        msg, routers = self._msg, self.routers
        route = self.algorithm.route
        count = self.stats.count_decision
        r = scan(cs, cycle, epoch, 0)
        while r != SCAN_DONE:
            x = xing.tolist()
            if r == SCAN_ROUTE:
                header = msg(x[1]).header
                if nf:
                    load_fields(header.fields, nf, x[7:], x[6])
                dec = route(routers[x[3]], header, x[4], x[5])
                if x[2]:
                    count(dec.steps)
                cands = dec.stored
                rc = commit(cs, dec.deliver, dec.stuck, dec.refresh_hint,
                            dec.steps, len(cands),
                            [i for pv in cands for i in pv],
                            encoded(header.fields, nf))
                if rc:
                    if rc < 0:
                        raise ValueError(
                            f"route() returned {len(cands)} candidates; "
                            f"an input VC holds {self._cand_p.shape[1]}")
                    self._grow_cache(cs.ent_cap + 1)
            elif r == SCAN_PURGE:
                for mid in self._stuck[:cs.n_stuck].tolist():
                    self.message_stuck(mid)
            elif r == SCAN_FLUSH:
                self._flush_digest()
            else:
                raise RuntimeError(
                    f"node {x[3]}: body flit of message {x[1]} at the "
                    f"front of an idle VC")
            r = scan(cs, cycle, epoch, 1)
        self._flush_native_stats()

    def _fill_classes(self, armed) -> None:
        """Key slot 0 of a relative key: the least member of the node's
        class (NativeContract.node_class).  An armed fast-reroute
        endpoint is its class's only member, so no other node's
        decision answers for an injection there."""
        cls = self._node_cls
        cls[:] = np.arange(cls.shape[0])
        node_class = self._contract.node_class
        if node_class is None:
            return
        ends = {n for link in armed for n in link}
        first: dict = {}
        for node, key in enumerate(node_class()):
            if node not in ends:
                cls[node] = first.setdefault(key, node)

    def _restale(self) -> None:
        """A link status ``route`` reads changed.  The object engine
        re-routes blocked adaptive heads every cycle, so staling every
        routed head's epoch sends its next refresh to Python instead of
        the kernel's re-sort or skip."""
        if self.algorithm.adaptive:
            ivst = self._st
            self._epoch[(ivst == 1) | (ivst == 2)] = -1

    def _rearm(self, armed) -> None:
        """The armed link set changed.  A blocked adaptive head at a
        newly armed endpoint's local port is re-routed every cycle by
        the object engine, so it may switch to the backup subbase while
        it waits; staling its epoch sends its next refresh to Python
        instead of the kernel's candidate re-sort."""
        new = {n for link in armed - self._c_armed for n in link}
        self._c_armed = frozenset(armed)
        # decisions at an armed endpoint's local port stay uncached
        self._armed_end[:] = 0
        self._armed_end[[n for link in armed for n in link]] = 1
        if not self.algorithm.adaptive:
            return
        n_vcs = self.algorithm.n_vcs
        for node in sorted(new):
            base = int(self._portbase[node, 0])        # LOCAL input VCs
            for g in range(base, base + n_vcs):
                if self._st[g] in (1, 2):
                    self._epoch[g] = -1

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

    def _alloc_phase(self) -> int:
        moved = self._lib.k_alloc(self._cs)
        hops, nflits, nev, ndel = self._counters.tolist()
        if nev:
            ev_kind = self._ev_kind[:nev].tolist()
            ev_node = self._ev_node[:nev].tolist()
            ev_msg = self._ev_msg[:nev].tolist()
            ev_a = self._ev_a
            ev_b = self._ev_b
            msg = self._msg
            algo = self.algorithm
            routers = self.routers
            native = self._native
            trace = self.config.trace_paths
            cycle = self.cycle
            if native:
                # the delivery stamp reads the hop count and the
                # misrouted mark from the header: the mirrors of every
                # event's message in one read (nothing below writes them)
                sel = self._ev_msg[:nev]
                fvals = self._lg.msg_f[sel].tolist()
                plens = self._lg.msg_plen[sel].tolist()
                nf = self._nf
            # replay in exact grant order: head departures run the
            # algorithm's header bookkeeping (already applied in C for
            # native algorithms — only the path trace remains), tail
            # arrivals at LOCAL of messages whose header Python holds
            # (the kernel delivered the others) go through the normal
            # ejection path (delivery accounting, recovery timing)
            for i in range(nev):
                mid = ev_msg[i]
                node = ev_node[i]
                if ev_kind[i] == 0:
                    if native:
                        if trace:
                            msg(mid).header.fields.setdefault(
                                "trace", []).append(node)
                        continue
                    header = msg(mid).header
                    algo.on_depart(routers[node], header,
                                   int(ev_a[i]), int(ev_b[i]))
                    if trace:
                        header.fields.setdefault("trace",
                                                 []).append(node)
                else:
                    if native:
                        load_fields(msg(mid).header.fields, nf,
                                    fvals[i], plens[i])
                    self.eject(node, _TailShim(mid), cycle)
        stats = self.stats
        if hops:
            stats.flit_hops += hops
        # nflits: flits ejected locally outside the event replay (every
        # non-tail flit, and the tails of the ndel messages the kernel
        # delivered)
        if nflits:
            stats.flits_delivered += nflits
            if stats.now >= stats.warmup:
                stats.flits_delivered_measured += nflits
        if ndel:
            stats.messages_delivered += ndel
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
        cur = self._src_cur
        busy = cur >= 0
        return int(self._src_qlen.sum()) + int(
            (self._lg.msg_size[cur[busy]] - self._src_pos[busy]).sum())

    def _apply_fault_now(self, event) -> None:
        super()._apply_fault_now(event)
        if event.kind == "node":
            node = int(event.target)
            self._src_cur[node] = -1
            self._src_qhead[node] = self._src_qtail[node] = -1
            self._src_qlen[node] = 0

    # -- data-path primitives of the shared message lifecycle ---------

    def _injecting(self) -> bool:
        return bool((self._src_cur >= 0).any())

    def _purge_message(self, msg_id: int) -> None:
        if msg_id not in self.messages:
            return
        if self._native:
            self._sync_fields(msg_id)      # fields faithful on exit
        self._lib.k_purge_all(self._cs, msg_id)
        src = int(self._lg.msg_src[msg_id])
        if int(self._src_cur[src]) == msg_id:
            self._src_cur[src] = -1

    def _buffered_msgs(self, node: int) -> list[int]:
        out: list[int] = []
        for g in range(int(self._iv_off[node]), int(self._iv_off[node + 1])):
            out.extend(m for m, _ in self._ring(g))
        return out

    def _heal_sites(self, node: int, pid: int):
        # the site is the input VC's gid; tested lazily like the
        # object engine's
        ivst, o_port, head_msg = self._st, self._o_port, self._head_msg
        for g in range(int(self._iv_off[node]), int(self._iv_off[node + 1])):
            if ivst[g] == 3 and o_port[g] == pid and head_msg[g] >= 0:
                yield int(head_msg[g]), g

    def _stuck_head_node(self, msg_id: int) -> int | None:
        gids, hd = np.arange(self._buf_head.shape[0]), self._buf_head
        at = ((self._head_msg == msg_id) & (self._st != 3)) \
            | ((self._st == 0) & (self._buf_cnt > 0)
               & (self._buf_msg[gids, hd] == msg_id)
               & (self._buf_seq[gids, hd] == 0))
        hits = np.flatnonzero(at)
        return int(self._iv_node[hits[-1]]) if hits.size else None

    # -- fast reroute: the worm walks ----------------------------------
    # The object engine's walks (Network._finish_fragment and friends),
    # step for step, over the arrays; the site is the gid of the input
    # VC whose worm holds the dead link.  Making a flit the tail is
    # shrinking msg_len: the kernel's tail test is seq == msg_len[msg]
    # - 1.

    def _down_gid(self, g: int) -> int:
        """The input VC fed by the output VC that ``g``'s worm holds."""
        node = int(self._iv_node[g])
        return int(self._ov_down[int(self._portbase[
            node, int(self._o_port[g]) + 1]) + int(self._o_vc[g])])

    def _ring(self, g: int) -> list[tuple[int, int]]:
        """(msg, seq) of the flits buffered in input VC ``g``, front
        first, then of the flit in its staging slot (the ring position
        past the buffered ones), if any: the object engine's ``buffer +
        incoming`` order."""
        cap = self.config.buffer_depth
        hd = int(self._buf_head[g])
        n = int(self._buf_cnt[g]) + int(self._inc_val[g])
        idx = [(hd + i) % cap for i in range(n)]
        return list(zip(self._buf_msg[g, idx].tolist(),
                        self._buf_seq[g, idx].tolist()))

    def _seqs_of(self, g: int, msg_id: int) -> list[int]:
        """Sequence numbers of ``msg_id``'s flits in input VC ``g``,
        buffer first, then the staging slot."""
        return [q for m, q in self._ring(g) if m == msg_id]

    def _finish_fragment(self, g: int, msg) -> None:
        msg_id = msg.header.msg_id
        if self._native:
            self._sync_fields(msg_id)      # hop count for delivery
        chain: list[tuple[int, list[int]]] = []
        d = self._down_gid(g)
        while True:
            ours = self._head_msg[d] == msg_id
            seqs = self._seqs_of(d, msg_id)
            if not ours and not seqs:
                break
            chain.append((d, seqs))
            if not (ours and self._st[d] == 3) or self._o_port[d] == LOCAL:
                break
            d = self._down_gid(d)
        for i, (d, seqs) in enumerate(chain):
            if seqs:
                self._lg.msg_len[msg_id] = seqs[-1] + 1
                for dead, _ in chain[:i]:
                    self._force_release(dead)
                return
        for d, _ in chain:
            self._force_release(d)
        if msg.delivered is None:
            self._delivered(msg, self.cycle)

    def _absorb_remainder(self, g: int, msg) -> int:
        msg_id = msg.header.msg_id
        cap = self.config.buffer_depth
        n_rem = 0
        while True:
            node = int(self._iv_node[g])
            ring = self._ring(g)
            kept = [f for f in ring if f[0] != msg_id]
            hd = int(self._buf_head[g])
            for i, (m, q) in enumerate(kept):
                self._buf_msg[g, (hd + i) % cap] = m
                self._buf_seq[g, (hd + i) % cap] = q
            removed = len(ring) - len(kept)
            # a surviving staged flit stays staged, past the kept ones
            staged = int(self._inc_val[g])
            if staged and ring[-1][0] == msg_id:
                self._inc_val[g] = staged = 0
            self._buf_cnt[g] = len(kept) - staged
            n_rem += removed
            self._r_nflits[node] -= removed
            in_port, in_vc = int(self._iv_port[g]), int(self._iv_vc[g])
            self._force_release(g)
            if in_port == LOCAL:
                if self._src_cur[node] == msg_id:
                    n_rem += msg.header.length - int(self._src_pos[node])
                    self._src_cur[node] = -1
                return n_rem
            port = self._node_ports[node][in_port]
            up = port.neighbor
            g = next(
                (u for u in range(int(self._iv_off[up]),
                                  int(self._iv_off[up + 1]))
                 if self._st[u] == 3 and self._head_msg[u] == msg_id
                 and self._o_port[u] == port.neighbor_port
                 and self._o_vc[u] == in_vc), None)
            if g is None:
                # the tail already crossed into the VCs we cleaned
                return n_rem

    def _force_release(self, g: int) -> None:
        self._lib.k_release(self._cs, g)

    # -- stall diagnosis ----------------------------------------------

    def _diagnose_stall(self):
        from .watchdog import diagnose_stall
        return diagnose_stall(self._materialize())

    def _make_flit(self, mid: int, seq: int) -> Flit:
        msg = self.messages.get(mid)
        length = int(self._lg.msg_len[mid])  # a healed worm's is shorter
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
                mids.update(m for m, _ in self._ring(g))
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
                ring = [self._make_flit(m, q)
                        for m, q in self._ring(g)]
                if self._inc_val[g]:
                    iv.incoming.append(ring.pop())
                iv.buffer.extend(ring)
                st = int(self._st[g])
                iv.state = _STATE_NAMES[st]
                mid = int(self._head_msg[g])
                if st != 0 and mid >= 0:
                    msg = self.messages.get(mid)
                    iv.header = msg.header if msg else None
                    hint = int(self._hint[g])
                    n = int(self._ncand[g])
                    if hint == REFRESH_ARGMIN:
                        n = min(n, 1)        # the member offered
                    iv.decision = RouteDecision(
                        deliver=bool(self._deliver[g]),
                        candidates=[(int(self._cand_p[g, i]),
                                     int(self._cand_v[g, i]))
                                    for i in range(n)],
                        stuck=bool(self._stuckf[g]),
                        refresh_hint=hint)
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


def batched_fallback_reason(arbiter="round_robin",
                            tracer=None) -> str | None:
    """Why ``engine="batched"`` would fall back to the object engine
    for this configuration — None when the batched engine applies.

    The fallback rules (documented in docs/PERFORMANCE.md): the batched
    engine emits no trace events, implements only the stock
    round-robin arbiter, and needs its C kernel (built on first use,
    then cached; when that fails the reason names the cause).  No
    ``SimConfig`` option forces a fallback: fast reroute
    (``backup_routes``) runs batched, its worm surgery walking the
    arrays at each fault event, and so do metrics timeseries, whose
    per-link counters and active-router gauge the kernels keep in
    arrays and drain into the timeseries."""
    if tracer is not None and getattr(tracer, "enabled", True):
        return "tracing is enabled (the batched data path emits no events)"
    if isinstance(arbiter, Arbiter):
        if type(arbiter) is not Arbiter:
            return (f"arbiter {arbiter.name!r} is not the stock "
                    f"round-robin")
    elif arbiter != "round_robin":
        return f"arbiter {arbiter!r} is not the stock round-robin"
    why = unavailable_reason()
    if why is not None:
        return _NO_KERNEL + why
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
        reason = batched_fallback_reason(arbiter, tracer)
        if reason is None:
            return BatchedNetwork(topology, algorithm, cfg,
                                  arbiter=arbiter, metrics=metrics)
        net = Network(topology, algorithm, cfg, arbiter=arbiter,
                      tracer=tracer, metrics=metrics)
        net.stats.engine_fallback = reason
        return net
    return Network(topology, algorithm, cfg, arbiter=arbiter,
                   tracer=tracer, metrics=metrics)
