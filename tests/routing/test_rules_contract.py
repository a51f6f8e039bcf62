"""The contract that lets the batched engine replay ``nafta_rules``
decisions natively, checked on ``nafta.rules`` itself.

``RuleDrivenNafta`` declares a native contract and hints each
decision ``REFRESH_ARGMIN`` when its RETURN came from ``qbest``: the
engine then stores the set and re-chooses its least-loaded member by
current loads.  That is sound only if the output loads reach a
decision through ``qbest`` alone, nothing the cache key leaves out
(message length, load or neighbour information) is read, and every
``qbest`` value is the decision itself.  The static checks below walk
the parsed decision rule bases; the run checks pin the other
precondition, that no load can reach the ``qmax`` clamp.

Its contract also sets ``relative_dst``: the engine keys a decision by
the destination's class relative to the node (sign dx, sign dy, plus
the exact dy in the destination column).  That is sound only if the
destination coordinates reach a decision through comparisons with the
router position or FCFBs that see only their signs, and the exact
``runok`` (the clear run reaches the destination row) is read only in
the destination column.
"""

import itertools
from dataclasses import fields, is_dataclass

import pytest

from repro.core.dsl import nodes as N
from repro.core.dsl.parser import parse
from repro.routing.base import (REFRESH_ARGMIN, REFRESH_REROUTE,
                                REFRESH_STATIC)
from repro.routing.registry import make_algorithm
from repro.routing.rulesets.loader import (detour_pick, minimal_cands,
                                          ruleset_source)
from repro.sim.batched import BatchedNetwork, batched_fallback_reason
from repro.sim.config import SimConfig
from repro.sim.flit import Header
from repro.sim.network import Network
from repro.sim.stats import DecisionDigest
from repro.sim.topology import Mesh2D
from repro.sim.traffic import TrafficGenerator

#: the rule bases one routing decision chains (steps 1..3)
DECISION_BASES = ("incoming_message", "in_message_ft", "test_exception")
#: inputs outside the native cache key
UNKEYED = {"mlen", "info_kind", "info_val", "nnew", "nrun"}
LOADS = tuple(N.Index(ident="oq", args=(N.Num(value=d),)) for d in range(4))


def _children(node):
    for f in fields(node):
        v = getattr(node, f.name)
        for item in (v if isinstance(v, tuple) else (v,)):
            if is_dataclass(item):
                yield item


def _walk(node, parent=None):
    """(node, parent) pairs, depth first."""
    yield node, parent
    for child in _children(node):
        yield from _walk(child, node)


def _decision_bases():
    program = parse(ruleset_source("nafta"))
    bases = {rb.name: rb for rb in program.rulebases}
    return [bases[name] for name in DECISION_BASES]


def _is_qbest(e) -> bool:
    return isinstance(e, N.Index) and e.ident == "qbest"


@pytest.mark.parametrize("base", _decision_bases(), ids=DECISION_BASES)
def test_loads_reach_the_decision_only_through_qbest(base):
    for node, parent in _walk(base):
        if isinstance(node, N.Index) and node.ident == "oq":
            assert _is_qbest(parent) and node in parent.args[1:], \
                f"{base.name}: oq read outside qbest's load arguments"


@pytest.mark.parametrize("base", _decision_bases(), ids=DECISION_BASES)
def test_no_unkeyed_input_is_read(base):
    read = {n.ident for n, _ in _walk(base)
            if isinstance(n, (N.Name, N.Index))}
    assert not read & UNKEYED, f"{base.name} reads {read & UNKEYED}"


@pytest.mark.parametrize("base", _decision_bases(), ids=DECISION_BASES)
def test_every_qbest_is_the_returned_decision(base):
    direct = set()
    for rule in base.rules:
        for cmd in rule.conclusion:
            assert not isinstance(cmd, N.Assign), \
                f"{base.name} writes a register during a decision"
            if isinstance(cmd, N.Return) and _is_qbest(cmd.value):
                assert cmd.value.args[1:] == LOADS, \
                    f"{base.name}: qbest over other loads than oq(0..3)"
                direct.add(id(cmd.value))
    for node, _ in _walk(base):
        if _is_qbest(node):
            assert id(node) in direct, \
                f"{base.name}: qbest outside a direct RETURN(qbest(...))"


def test_the_chain_uses_qbest():
    """The checks above are not vacuous: both load-aware steps pick
    through qbest."""
    users = {b.name for b in _decision_bases()
             if any(_is_qbest(n) for n, _ in _walk(b))}
    assert users == {"incoming_message", "in_message_ft"}


# -- the relative destination ------------------------------------------

#: destination input -> the position input it may be compared with
POSITION = {"xdes": "xpos", "ydes": "ypos"}
#: FCFBs that receive the destination: {name: {arg index: input}};
#: they must see the coordinates only through sign(des - pos)
SIGN_FCFBS = {
    "minimal_cands": {0: "xpos", 1: "ypos", 2: "xdes", 3: "ydes"},
    "detour_pick": {3: "xpos", 4: "xdes"},
}


def _is_name(e, ident) -> bool:
    return isinstance(e, N.Name) and e.ident == ident


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


@pytest.mark.parametrize("base", _decision_bases(), ids=DECISION_BASES)
def test_destination_is_read_only_relative_to_the_position(base):
    for node, parent in _walk(base):
        if not isinstance(node, N.Name) or node.ident not in POSITION:
            continue
        if isinstance(parent, N.Compare):
            assert parent.op in ("<", ">", "="), \
                f"{base.name}: {node.ident} under {parent.op!r}"
            other = parent.right if parent.left is node else parent.left
            assert _is_name(other, POSITION[node.ident]), \
                f"{base.name}: {node.ident} compared with {other}"
            continue
        assert isinstance(parent, N.Index) \
            and parent.ident in SIGN_FCFBS, \
            f"{base.name}: {node.ident} read outside a comparison or a " \
            f"sign-only FCFB (parent {type(parent).__name__})"
        wiring = SIGN_FCFBS[parent.ident]
        for i, ident in wiring.items():
            assert _is_name(parent.args[i], ident), \
                f"{base.name}: {parent.ident} argument {i} is not {ident}"
        assert not any(_is_name(a, d) for i, a in enumerate(parent.args)
                       if i not in wiring for d in POSITION)


def test_destination_fcfbs_see_only_signs():
    """Over the whole coordinate grid, the FCFBs the decision bases
    hand the destination to answer the same for every congruent one."""
    size = range(8)
    seen = {}
    for x, y, xd, yd, vn in itertools.product(size, size, size, size,
                                              (0, 1)):
        key = (_sign(xd - x), _sign(yd - y), vn)
        got = minimal_cands(x, y, xd, yd, vn)
        assert seen.setdefault(key, got) == got, (x, y, xd, yd, vn)
    sets = [frozenset(c) for n in range(1, 5)
            for c in itertools.combinations(range(4), n)]
    seen = {}
    for cands, sdir, indir, x, xd in itertools.product(
            sets, range(3), range(5), size, size):
        key = (cands, sdir, indir, _sign(xd - x))
        got = detour_pick(cands, sdir, indir, x, xd)
        assert seen.setdefault(key, got) == got, (cands, sdir, indir, x, xd)


@pytest.mark.parametrize("base", _decision_bases(), ids=DECISION_BASES)
def test_runok_is_read_only_in_the_destination_column(base):
    samecol = N.Compare(op="=", left=N.Name(ident="samecol"),
                        right=N.Name(ident="true"))
    for rule in base.rules:
        for cmd in rule.conclusion:
            assert not any(_is_name(n, "runok") for n, _ in _walk(cmd))
        if not any(_is_name(n, "runok") for n, _ in _walk(rule.premise)):
            continue
        assert isinstance(rule.premise, N.And) \
            and samecol in rule.premise.terms, \
            f"{base.name} line {rule.line}: runok without samecol = true"


def test_the_relative_checks_bind():
    """Not vacuous: the chain compares, calls sign-only FCFBs with the
    destination and reads runok."""
    read = {(n.ident, getattr(p, "ident", None))
            for b in _decision_bases() for n, p in _walk(b)
            if isinstance(n, N.Name)}
    assert ("xdes", "minimal_cands") in read
    assert ("xdes", "detour_pick") in read
    assert ("ydes", None) in read            # a bare comparison
    assert ("runok", None) in read


# -- the qmax clamp --------------------------------------------------------

class _Loaded:
    """A router whose ports carry the given loads."""

    def __init__(self, router, loads):
        self._router = router
        self._loads = loads

    def port_loads(self):
        return self._loads

    def __getattr__(self, item):
        return getattr(self._router, item)


def _decide(buffer_depth, dst_xy, loads=None):
    topo = Mesh2D(5, 5)
    net = Network(topo, make_algorithm("nafta_rules"),
                  config=SimConfig(buffer_depth=buffer_depth))
    router = net.routers[topo.node_at(1, 1)]
    router = _Loaded(router, loads or dict.fromkeys(router.ports, 0))
    header = Header(msg_id=0, src=router.node, dst=topo.node_at(*dst_xy),
                    length=4, created=0)
    return net.algorithm.route(router, header, -1, 0), header


def test_argmin_only_while_loads_stay_below_qmax():
    # 2 VCs x (buffer_depth + 1) flits is the largest load of a port
    hints = {xy: _decide(4, xy)[0].refresh_hint
             for xy in ((3, 3), (1, 3), (3, 1))}
    assert hints == {(3, 3): REFRESH_ARGMIN, (1, 3): REFRESH_STATIC,
                     (3, 1): REFRESH_STATIC}
    assert _decide(30, (3, 3))[0].refresh_hint == REFRESH_ARGMIN  # 62
    assert _decide(31, (3, 3))[0].refresh_hint == REFRESH_REROUTE  # 64


def test_clamped_loads_would_change_the_choice():
    """Why the clamp matters: qbest breaks ties of clamped loads by
    port, the engine's re-sort compares raw loads."""
    dec, header = _decide(4, (3, 3), {0: 70, 1: 0, 2: 64, 3: 0})
    # raw loads pick north (64 < 70); clamped at 63 they tie and east wins
    assert dec.candidates == [(0, header.fields["vn"])]


@pytest.mark.skipif(batched_fallback_reason() is not None,
                    reason="batched engine unavailable")
def test_reachable_qmax_keeps_decisions_in_python():
    """With loads able to pass qmax nothing load-chosen is cached, and
    both engines still agree decision for decision."""
    topo = Mesh2D(5, 4)

    def run(cls):
        net = cls(topo, make_algorithm("nafta_rules"),
                  config=SimConfig(buffer_depth=32))
        net.stats.digest = DecisionDigest()
        net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.3,
                                            message_length=12, seed=5))
        net.run(200)
        return net, net.stats.summary(topo.n_nodes)

    obj_net, obj = run(Network)
    bat_net, bat = run(BatchedNetwork)
    assert obj == bat
    assert not obj_net.algorithm._argmin
    assert REFRESH_ARGMIN not in set(bat_net._e_hint[:bat_net._cs.n_ent])
    assert REFRESH_ARGMIN not in set(bat_net._ct_hint)


@pytest.mark.skipif(batched_fallback_reason() is not None,
                    reason="batched engine unavailable")
def test_fault_free_rule_decisions_never_enter_python():
    """Fault-free, every nafta_rules decision is a clean-table entry:
    the quadrant keys hold two-member argmin sets, the axis keys a
    fixed port, and a loaded run calls route() not once."""
    topo = Mesh2D(8, 8)
    algo = make_algorithm("nafta_rules")
    net = BatchedNetwork(topo, algo)
    hints = set(net._ct_hint[net._ct_valid == 1].tolist())
    assert hints == {REFRESH_ARGMIN, REFRESH_STATIC}
    assert set(net._ct_ncand[net._ct_hint == REFRESH_ARGMIN]) == {2}
    calls = []
    route = algo.route
    algo.route = lambda *a: calls.append(a) or route(*a)
    net.attach_traffic(TrafficGenerator(topo, "uniform", load=0.3,
                                        message_length=4, seed=1))
    net.run(300)
    assert net.stats.decisions > 1000
    assert not calls
