"""Rule-driven routing: the simulator's routers controlled by actual
compiled rule programs.

This closes the loop on the paper's Figure 3: each router's control
unit is a :class:`~repro.core.engine.RuleEngine` executing the compiled
``nafta.rules`` program.  The routing decision chains the same rule
bases the paper's Table 1 describes —

1. ``incoming_message``  (one interpretation step, fault-free fast path)
2. ``in_message_ft``     (second step: fault-restricted decision)
3. ``test_exception``    (third step: detour handling)

— so the 1..3 interpretation steps per decision arise from real rule
interpretation, not from a hand-written counter.  Distributed fault
state (deactivation, usable sets, clear-run counters) is maintained in
the engines' registers by firing the state rule bases
(``fault_occured``, ``calculate_new_node_state``,
``consider_neighbor_state`` and the internally-emitted
``update_dir_table``) in neighbour-exchange waves until the registers
settle — the paper's wave-like propagation executed by the rule
machine itself.  The fault-free fixpoint is settled once per mesh
size and ``qmax`` and loaded by every later build; every fault update
starts from it and re-runs only the nodes whose registers or neighbour
view changed.

Every fresh decision is a rule interpretation in Python, an order of
magnitude slower than the hand-coded
:class:`~repro.routing.nafta.NaftaRouting`.  But the output loads
enter a NAFTA decision only through the ``qbest`` FCFB ("minimum
selection"), over a set the fault knowledge fixes, so a decision is
a fixed port or the least-loaded member of a fixed set
(``REFRESH_ARGMIN``), and the batched engine replays it in C
(docs/PERFORMANCE.md; ``tests/routing/test_rules_contract.py``
checks the premises on ``nafta.rules``).  Its decisions read the
destination only relative to the router position, so one cached
decision serves every congruent destination
(``NativeContract.relative_dst``).  ROUTE_C's ``adaptivity`` rule base
returns ``pick_min``, the lowest index of the admissible set, without
reading loads; ``RuleDrivenRouteC.route`` puts that member first and
orders the others by load clamped at the ``qload`` domain's top, so
the batched engine replays it as a re-sort that keeps the first member
(``resort_pin``, ``load_cap``).  Its decisions read the node only
through its view of safe and usable neighbours and the destination
only through the dimensions left to correct, so one cached decision
serves every node of a class and every congruent destination
(``node_class``), and a detour's channel-class bump is the kernel's
departure rule (``bump_rule``).
"""

from __future__ import annotations

from dataclasses import replace

from ..core.engine import RuleEngine
from ..sim.faults import FaultState
from ..sim.flit import Header
from ..sim.router import LOCAL
from ..sim.topology import EAST, WEST, Mesh2D, Topology
from .base import (REFRESH_ARGMIN, REFRESH_RESORT, REFRESH_STATIC,
                   NativeContract, RouteDecision, RoutingAlgorithm,
                   RoutingError)
from .nafta import NAFTA_CONTRACT
from .nara import VN_TERMINAL, assign_virtual_network
from .rulesets.loader import RULESETS, compile_ruleset, qbest

DELIVER = 4
#: header ``sdir`` -> the ``sdirin`` input code
_SDIR_CODE = {None: 0, EAST: 1, WEST: 2}
#: (port, index key of ``oq``) for the four mesh directions
_OQ_KEYS = tuple((d, (d,)) for d in range(4))
#: NAFTA's fault-free fixpoint by (width, height, qmax, engine_mode):
#: the register snapshots and the neighbour views the nodes settled
#: on.  Nothing else enters it, so every network build after the first
#: loads it instead of re-running the waves.
_CLEAN: dict[tuple, tuple[list[dict], list]] = {}
#: ROUTE_C's fault-free fixpoint by (dimension, engine_mode): the
#: register snapshots the ``update_state`` lattice settled on
_CLEAN_ROUTE_C: dict[tuple, list[dict]] = {}


def _recording_qbest(picked: list):
    """``qbest`` that appends each set it chooses from to ``picked``.
    It closes over the list, not the algorithm, so the engines holding
    it make no reference cycle with the algorithm that owns them."""
    def recording(cands, q0, q1, q2, q3):
        picked.append(cands)
        return qbest(cands, q0, q1, q2, q3)
    return recording


def _attach_tracers(network, engines: list[RuleEngine]) -> None:
    """Tag each node's rule engine with the network's tracer so
    rule-base invocations show up in the trace (no-op when tracing is
    off — the engines keep the shared null tracer)."""
    tracer = getattr(network, "tracer", None)
    if tracer is not None and tracer.enabled:
        for node, eng in enumerate(engines):
            eng.attach_tracer(tracer, node)


class RuleDrivenNafta(RoutingAlgorithm):
    name = "nafta_rules"
    n_vcs = 2
    fault_tolerant = True
    def __init__(self, qmax: int = 63, engine_mode: str = "table"):
        self.qmax = qmax
        self.engine_mode = engine_mode
        self.engines: list[RuleEngine] = []
        self.compiled = None
        self._rmax = 15
        #: the sets qbest chose from during the current decision
        self._picked: list[frozenset] = []
        self._views: dict = {}
        self._stamp = None
        #: the fault-free fixpoint (register snapshots and the views the
        #: nodes settled on) every fault update starts from
        self._clean: list[dict] = []
        self._clean_seen: list = []

    # -- lifecycle ------------------------------------------------------

    def check_topology(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh2D):
            raise RoutingError("the NAFTA ruleset runs on 2-D meshes")

    def reset(self, network) -> None:
        topo: Mesh2D = network.topology
        self._rmax = max(topo.width, topo.height) - 1
        params = {"xsize": topo.width, "ysize": topo.height,
                  "qmax": self.qmax, "rmax": self._rmax}
        self.compiled = compile_ruleset("nafta", params)
        spec = RULESETS["nafta"]
        # qbest records the set it chose from: a decision RETURNed
        # from it is the least-loaded member of that set
        functions = {**spec.functions,
                     "qbest": _recording_qbest(self._picked)}
        self.engines = [RuleEngine(self.compiled, functions=functions,
                                   mode=self.engine_mode)
                        for _ in topo.nodes()]
        self.network = network
        self._coords = [topo.coords(n) for n in topo.nodes()]
        # qbest compares loads clamped at qmax; the engine re-chooses by
        # raw loads, which agree only while no load can reach qmax
        self._argmin = \
            self.n_vcs * (network.config.buffer_depth + 1) <= self.qmax
        _attach_tracers(network, self.engines)
        key = (topo.width, topo.height, self.qmax, self.engine_mode)
        clean = _CLEAN.get(key)
        if clean is None:
            seen = [None] * topo.n_nodes
            self._settle(topo, FaultState(topo), seen)
            clean = _CLEAN[key] = (
                [eng.registers.snapshot() for eng in self.engines], seen)
        else:
            for eng, snap in zip(self.engines, clean[0]):
                eng.registers.load(snap)
        self._clean, self._clean_seen = clean
        self._views = {}
        if network.known_faults.n_faults():
            self.on_fault_update(network)

    # -- distributed state via the rule machine ----------------------------

    def _engine_blocked(self, node: int) -> bool:
        return self.engines[node].registers.read("mystate") != "safe"

    def _neighbor_view(self, topo, faults, node: int):
        """``(nnew, nrun, linkok)``: the state symbol, run counter and
        link status each neighbour reports, as the information channel
        would deliver them.  A mesh border is NOT a blocked neighbour
        (that would falsely deactivate corners); it is a missing link —
        linkok=false zeroes the run counter."""
        nnew, nrun, linkok = {}, {}, {}
        for dir_ in range(4):
            key = (dir_,)
            port = topo.port(node, dir_)
            if port is None:
                nnew[key], nrun[key], linkok[key] = "ok", 0, "false"
            elif not faults.link_ok(node, port.neighbor):
                nnew[key], nrun[key], linkok[key] = "blocked", 0, "false"
            elif self._engine_blocked(port.neighbor):
                nnew[key], nrun[key], linkok[key] = "blocked", 0, "true"
            else:
                run = self.engines[port.neighbor].registers.read("runc", key)
                nnew[key], nrun[key], linkok[key] = "ok", int(run), "true"
        return nnew, nrun, linkok

    def _settle(self, topo, faults, seen: list) -> None:
        """Drive the state rule bases to fixpoint under ``faults``:
        local failures enter through ``fault_occured``, then
        neighbour-exchange waves in ascending node order until no
        register changes.  ``seen[node]`` is the neighbour view the node
        last ran on without changing its registers (None: it must run).
        A node runs only when its registers changed in its last run or
        its view moved since: the waves skip only runs of a full sweep
        that would repeat a run on the same registers and view, so the
        fixpoint and the order of every changing run are the sweep's."""
        # 1. local failures enter through fault_occured
        for node in topo.nodes():
            eng = self.engines[node]
            regs = eng.registers
            regs.changed = False
            if not faults.node_ok(node):
                eng.set_inputs({"fault_kind": 0})
                eng.post("fault_occured", 0)
                eng.run()
                eng.drain_external()
            else:
                for dir_ in range(4):
                    port = topo.port(node, dir_)
                    if port is not None and \
                            not faults.link_ok(node, port.neighbor):
                        eng.set_inputs({"fault_kind": 1})
                        eng.post("fault_occured", dir_)
                        eng.run()
                        eng.drain_external()
            if regs.changed:
                seen[node] = None
        # 2. neighbour-exchange waves until every register settles
        for _ in range(topo.width * topo.height + 2):
            changed = False
            for node in topo.nodes():
                if not faults.node_ok(node):
                    continue
                view = self._neighbor_view(topo, faults, node)
                if view == seen[node]:
                    continue
                eng = self.engines[node]
                regs = eng.registers
                regs.changed = False
                nnew, nrun, linkok = view
                eng.set_inputs({"nnew": nnew, "nrun": nrun,
                                "linkok": linkok, "fault_kind": 1})
                for dir_ in range(4):
                    eng.post("calculate_new_node_state", dir_)
                    eng.post("consider_neighbor_state", dir_)
                eng.run()
                eng.drain_external()
                if regs.changed:
                    changed = True
                    seen[node] = None
                else:
                    seen[node] = view
            if not changed:
                break

    def on_fault_update(self, network, nodes=None) -> None:
        """Diagnosis phase: drive the state rule bases to fixpoint,
        starting from the fault-free one ``reset`` recorded, so the
        registers depend on the known fault set, not on its history (a
        repaired fault leaves nothing behind)."""
        for eng, snap in zip(self.engines, self._clean):
            eng.registers.load(snap)
        self._settle(network.topology, network.known_faults,
                     list(self._clean_seen))
        self._views = {}

    def native_contract(self, topology) -> NativeContract:
        # NAFTA's contract: the decision bases read the four header
        # fields through termin/sdirin/vnin and write misrouted; they
        # meet xdes/ydes only in comparisons with xpos/ypos or sign-only
        # FCFBs and runok only with samecol = true; fault-free,
        # incoming_message decides from the destination quadrant and vn
        # alone.  Unlike NaftaRouting, freemask reads port_alive, no
        # rule base reads the path length, and the registers say which
        # destinations are blocked
        return replace(NAFTA_CONTRACT, reads_links=True, livelock_limit=None,
                       irregular_dsts=self._blocked_dsts)

    def _blocked_dsts(self):
        return [n for n in range(len(self.engines))
                if self._engine_blocked(n)]

    def accepts_node(self, node: int) -> bool:
        return not self._engine_blocked(node)

    # -- the decision -----------------------------------------------------------

    def _view(self, router):
        """``(x, y, fault_present, freemask by in_port, runc)`` of the
        router's node: the decision inputs that change only with the
        fault knowledge (the registers ``on_fault_update`` rewrites) or
        the link status, built once per node and fault epoch.

        The mask carries *fault usability*, not momentary congestion:
        a busy-but-healthy output makes the worm wait at the router
        (the decision is re-evaluated each cycle with fresh loads),
        whereas a fault-unusable output triggers the ft/exception rule
        bases.  Misrouting on congestion would be wrong."""
        net = self.network
        stamp = (net.faults.version, net.known_faults.version)
        if stamp != self._stamp:
            self._views = {}
            self._stamp = stamp
        node = router.node
        view = self._views.get(node)
        if view is not None:
            return view
        topo: Mesh2D = router.topology
        usable = set()
        for d in range(4):
            port = topo.port(node, d)
            if port is not None and router.port_alive(d) \
                    and not self._engine_blocked(port.neighbor):
                usable.add(d)
        # never u-turn: the arrival port is wired out at the interface
        masks = {ip: dict.fromkeys([(vc,) for vc in range(self.n_vcs)],
                                   frozenset(usable - {ip}))
                 for ip in (LOCAL, 0, 1, 2, 3)}
        regs = self.engines[node].registers
        x, y = self._coords[node]
        view = (x, y, "true" if net.known_faults.n_faults() else "false",
                masks, tuple(int(regs.read("runc", (d,))) for d in range(4)))
        self._views[node] = view
        return view

    def _decision_inputs(self, router, header: Header, in_port: int,
                         vn: int) -> dict:
        x, y, fault_present, masks, runc = self._view(router)
        dx, dy = self._coords[header.dst]
        loads = router.port_loads()
        q = self.qmax
        fields = header.fields
        return {
            "xpos": x, "ypos": y, "xdes": dx, "ydes": dy, "vnin": vn,
            "termin": "true" if fields.get("term") else "false",
            "sdirin": _SDIR_CODE.get(fields.get("sdir"), 0),
            "fault_present": fault_present,
            "freemask": masks.get(in_port, masks[LOCAL]),
            "oq": {k: min(q, loads.get(d, q)) for d, k in _OQ_KEYS},
            "samecol": "true" if x == dx else "false",
            "runok": ("true" if runc[VN_TERMINAL[vn]] >= abs(dy - y)
                      else "false"),
        }

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        if router.node == header.dst:
            return RouteDecision(deliver=True, refresh_hint=REFRESH_STATIC)
        eng = self.engines[router.node]
        vn = header.fields.get("vn")
        if vn is None:
            vn = assign_virtual_network(router.topology, router.node,
                                        header.dst)
            header.fields["vn"] = vn
        indir = in_port if in_port >= 0 else 4
        # _decision_inputs builds canonical (tuple-keyed) dicts, so the
        # per-decision normalization scan can be skipped
        eng.set_inputs(self._decision_inputs(router, header, in_port, vn),
                       trusted=True)
        picked = self._picked
        picked.clear()

        # step 1: the NARA fast path
        res = eng.call("incoming_message", indir, vn)
        steps = 1
        if not res.has_return:
            # step 2: fault-tolerant decision
            res = eng.call("in_message_ft", indir)
            steps = 2
        if not res.has_return:
            # step 3: the exception path
            res = eng.call("test_exception", indir)
            steps = 3
            if any(e.event == "declare_stuck" for e in res.emissions):
                eng.drain_external()
                return RouteDecision.unroutable(steps=steps)
            if res.has_return:
                out = int(res.returned)
                if out in (EAST, WEST):
                    header.fields["sdir"] = out
                header.mark_misrouted()
        eng.drain_external()
        if not res.has_return:
            # blocked, not stuck: wait and retry next cycle
            return RouteDecision(candidates=[], steps=steps)
        out = int(res.returned)
        if out == DELIVER:
            return RouteDecision(deliver=True, steps=steps,
                                 refresh_hint=REFRESH_STATIC)
        if not picked:
            # a port the tables chose from fault knowledge alone; the
            # detour's sticky sdir re-picks itself
            return RouteDecision(candidates=[(out, vn)], steps=steps,
                                 refresh_hint=REFRESH_STATIC)
        if not self._argmin:
            return RouteDecision(candidates=[(out, vn)], steps=steps)
        return RouteDecision(
            candidates=[(out, vn)], steps=steps,
            refresh_hint=REFRESH_ARGMIN,
            argmin_set=[(out, vn)] + [(p, vn) for p in sorted(picked[0])
                                      if p != out])

    def on_depart(self, router, header: Header, out_port: int,
                  out_vc: int) -> None:
        super().on_depart(router, header, out_port, out_vc)
        vn = header.fields.get("vn")
        if vn is not None and out_port == VN_TERMINAL[vn]:
            header.fields["term"] = True

    def decision_steps_range(self) -> tuple[int, int]:
        return (1, 3)


class RuleDrivenRouteC(RoutingAlgorithm):
    """ROUTE_C executed by the rule machine: the two interpretation
    steps per decision are real invocations of the compiled
    ``decide_dir`` and ``decide_vc`` rule bases, and the safety states
    live in each node engine's registers, fed by ``update_state``
    events exchanged between neighbours until the lattice settles.

    The adaptivity rule base runs concurrently with decide_vc in the
    paper's model (its criterion generation "is done separately"), so a
    decision still counts two steps.
    """

    name = "route_c_rules"
    n_vcs = 5
    fault_tolerant = True

    def __init__(self, engine_mode: str = "table"):
        self.engine_mode = engine_mode
        self.engines: list[RuleEngine] = []
        self.compiled = None
        self._d = 0
        self._views: dict = {}
        self._stamp = None
        self._bitsets: dict[int, frozenset] = {}

    def check_topology(self, topology: Topology) -> None:
        from ..sim.topology import Hypercube
        if not isinstance(topology, Hypercube):
            raise RoutingError("the ROUTE_C ruleset runs on hypercubes")

    def _program(self, d: int):
        """The compiled ``route_c.rules`` for dimension ``d`` (compiled
        once per instance and dimension)."""
        if self.compiled is None or self._d != d:
            self.compiled = compile_ruleset("route_c", {"d": d, "a": 2})
            self._d = d
        return self.compiled

    def reset(self, network) -> None:
        topo = network.topology
        self._program(topo.dimension)
        #: the top of the ``qload`` input's domain: loads enter the
        #: rule machine clamped there
        self._cap = self.compiled.analyzed.inputs["qload"].domain.hi
        spec = RULESETS["route_c"]
        self.engines = [RuleEngine(self.compiled, functions=spec.functions,
                                   mode=self.engine_mode)
                        for _ in topo.nodes()]
        self.network = network
        self._qkeys = tuple((d, (d,)) for d in range(self._d))
        _attach_tracers(network, self.engines)
        key = (self._d, self.engine_mode)
        faulted = network.known_faults.n_faults()
        clean = None if faulted else _CLEAN_ROUTE_C.get(key)
        if clean is not None:
            for eng, snap in zip(self.engines, clean):
                eng.registers.load(snap)
            self._views = {}
            return
        self.on_fault_update(network)
        if not faulted:
            _CLEAN_ROUTE_C[key] = [eng.registers.snapshot()
                                   for eng in self.engines]

    # -- distributed safety state through update_state events ---------------

    def _reported_state(self, network, node: int) -> str:
        """The state a node broadcasts to its neighbours."""
        if not network.known_faults.node_ok(node):
            return "faulty"
        topo = network.topology
        if any(not network.known_faults.link_ok(node, p.neighbor)
               for p in topo.ports(node).values()
               if network.known_faults.node_ok(p.neighbor)):
            return "lfault"
        return self.engines[node].registers.read("state")

    def on_fault_update(self, network, nodes=None) -> None:
        topo = network.topology
        for eng in self.engines:
            eng.reset_state()
        for _ in range(topo.n_nodes + 2):
            changed = False
            for node in topo.nodes():
                if not network.known_faults.node_ok(node):
                    continue
                eng = self.engines[node]
                eng.registers.changed = False
                new_state = {}
                for dim, port in topo.ports(node).items():
                    nb = port.neighbor
                    if not network.known_faults.link_ok(node, nb):
                        new_state[(dim,)] = "lfault"
                    else:
                        new_state[(dim,)] = self._reported_state(network, nb)
                eng.set_inputs({"new_state": new_state, "qload": {},
                                "up_set": frozenset(),
                                "down_set": frozenset(),
                                "usable": frozenset(),
                                "safe_mask": frozenset(),
                                "at_dest": "false"})
                for dim in range(self._d):
                    eng.post("update_state", dim)
                eng.run()
                eng.drain_external()
                if eng.registers.changed:
                    changed = True
            if not changed:
                break
        self._views = {}

    def node_state(self, node: int) -> str:
        return self._reported_state(self.network, node)

    def native_contract(self, topology) -> NativeContract:
        # no premise of decide_dir, decide_vc or adaptivity reads a
        # register, a load or new_state, and adaptivity RETURNs only
        # pick_min(cands) (tests/routing/test_route_c_rules_contract.py).
        # So, while the fault knowledge stands, a decision reads the
        # node only through its view (usable, safe), dst only through
        # (up, down) unless dst is a sunsafe neighbour, the in-port (no
        # u-turn) and vc_class; adaptivity's pick leads and the rest go
        # by load clamped at the qload domain's top; a detour's class
        # bump commits on departure.  The skipped adapt_reg write is
        # read by no premise
        qload = self._program(topology.dimension).analyzed.inputs["qload"]
        return NativeContract(
            fields=("vc_class", "_detour_next", "misrouted"),
            bump_rule=("_detour_next", "vc_class"), key_uses_vc=False,
            relative_dst=True, reads_links=False,
            irregular_dsts=self._sunsafe_nodes,
            node_class=self._node_views, resort_pin=1,
            load_cap=qload.domain.hi)

    def _sunsafe_nodes(self):
        return [n for n in range(len(self.engines))
                if self.node_state(n) == "sunsafe"]

    def _node_views(self):
        return [(usable, safe) for usable, _, safe
                in map(self._view, range(len(self.engines)))]

    def accepts_node(self, node: int) -> bool:
        return self.network.known_faults.node_ok(node)

    # -- the decision -----------------------------------------------------------

    def _view(self, node: int):
        """``(usable, {sunsafe neighbour: dim}, safe)`` of ``node``:
        its links to neighbours that are not faulty, split by the
        state each neighbour reports, built once per node and fault
        epoch (the states live in registers ``on_fault_update``
        rewrites).  A sunsafe neighbour is usable only as the
        destination itself."""
        kf = self.network.known_faults
        stamp = (kf.version,)      # a tuple: no part of the table keys
        if stamp != self._stamp:
            self._views = {}
            self._stamp = stamp
        view = self._views.get(node)
        if view is not None:
            return view
        usable = set()
        safe = set()
        sunsafe = {}
        for dim, port in self.network.topology.ports(node).items():
            nb = port.neighbor
            if not kf.link_ok(node, nb):
                continue
            st = self.node_state(nb)
            if st == "sunsafe":
                sunsafe[nb] = dim
            elif st != "faulty":
                usable.add(dim)
                if st == "safe":
                    safe.add(dim)
        view = (frozenset(usable), sunsafe, frozenset(safe))
        self._views[node] = view
        return view

    def _bits(self, mask: int) -> frozenset:
        """The dimensions set in ``mask``."""
        out = self._bitsets.get(mask)
        if out is None:
            out = self._bitsets[mask] = frozenset(
                i for i in range(self._d) if mask >> i & 1)
        return out

    def route(self, router, header: Header, in_port: int,
              in_vc: int) -> RouteDecision:
        node = router.node
        dst = header.dst
        if node == dst:
            return RouteDecision(deliver=True, steps=2,
                                 refresh_hint=REFRESH_STATIC)
        eng = self.engines[node]
        diff = node ^ dst
        up = self._bits(diff & ~node)
        down = self._bits(diff & node)
        usable, sunsafe, safe = self._view(node)
        dim = sunsafe.get(dst)
        if dim is not None:
            usable = usable | {dim}
        # never u-turn: wired out at the interface, like the native
        # algorithm's in_port exclusion
        if in_port >= 0:
            usable = usable - {in_port}
        loads = router.port_loads()
        cap = self._cap
        qload = {k: min(cap, loads.get(d, cap)) for d, k in self._qkeys}
        eng.set_inputs({"up_set": up, "down_set": down, "usable": usable,
                        "safe_mask": safe, "at_dest": "false",
                        "qload": qload, "new_state": {}}, trusted=True)

        # step 1: decide_dir — the admissible output set
        res = eng.call("decide_dir")
        eng.drain_external()
        if not res.has_return or not res.returned:
            return RouteDecision.unroutable(steps=2)
        cands = res.returned
        assert isinstance(cands, frozenset)
        detour = cands.isdisjoint(up if up else down)

        # (concurrent) adaptivity: order the admissible set
        best = eng.decide("adaptivity", cands, 0)
        eng.drain_external()
        ordered = sorted(cands, key=lambda d: (d != best, qload[(d,)], d))

        # step 2: decide_vc — channel class for the hops-so-far scheme
        cls = int(header.fields.get("vc_class", 0))
        res_vc = eng.call("decide_vc", cls, "true" if detour else "false", best)
        eng.drain_external()
        if not res_vc.has_return:
            return RouteDecision.unroutable(steps=2)
        out_vc = int(res_vc.returned)
        if detour:
            header.mark_misrouted()
            # the "_" prefix marks this as per-decision scratch: it is
            # recomputed by every route() call and consumed by the same
            # decision's on_depart, so backup-aware dispatch
            # (routing/backup.py) may discard it when substituting a
            # precompiled entry — only ``vc_class`` is committed state
            header.fields["_detour_next"] = True
        return RouteDecision(candidates=[(d, out_vc) for d in ordered],
                             steps=2, refresh_hint=REFRESH_RESORT)

    def on_depart(self, router, header: Header, out_port: int,
                  out_vc: int) -> None:
        super().on_depart(router, header, out_port, out_vc)
        if header.fields.pop("_detour_next", False):
            header.fields["vc_class"] = int(
                header.fields.get("vc_class", 0)) + 1

    def decision_steps_range(self) -> tuple[int, int]:
        return (2, 2)
