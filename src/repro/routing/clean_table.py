"""Build-time clean-route decision tables for the batched engine.

While the *known* fault set is empty (and, for an algorithm that
reads the link status, no link is dead), the native mesh algorithms'
decisions (``nafta``, ``nara`` and the rule program ``nafta_rules``,
whose :class:`~repro.routing.base.NativeContract` sets
``clean_table``) are translation-invariant: NAFTA collapses onto NARA
(the u-turn filter never binds, clear runs span whole columns, detours
and virtual-network switches are unreachable) and all reduce to a pure
function of (sign dx, sign dy, the ``vn`` field, the optional ``term``
commitment).  That is a 3 x 3 x 3 x 2 = 54-entry dense table.  The
batched engine hands it to its C kernels fully populated, so
clean-network routing never enters Python, even on the very first
sighting of a (dest, state) key — eliminating the cache-fill warmup
cliff that dominated short runs and large meshes.

The table is the empty-fault-set case of the one probe-and-certify
builder, :mod:`repro.core.compiler.backup`: each key is probed against
the live algorithm at a handful of nodes, destination magnitudes,
arrival ports and VCs, and kept only when every probe agrees and a
repeat probe reproduces it.  This module holds only what is specific
to the clean table: the sign geometry and the C layout, the
:class:`_ProbeRouter` stub (a fault-free router needs no shadow
network) with its probe points, and the admission filter.  Clean
tables are not CDG-certified.

Why probing instead of reading compiled rule tables: the hand-written
native algorithms don't go through the rule compiler at all, and the
rule-driven ``nafta_rules`` lets the output loads into a decision
only through its ``qbest`` FCFB, after the rule tables have fixed the
set it chooses from.  Its decision is therefore tabulable as that set
(a ``REFRESH_ARGMIN`` entry, whose member the kernel re-chooses by
current loads on every lookup), and probing the live algorithm yields
exactly that set with no rule-table reader of its own.  The clean
table is proven against the algorithm itself at build time either
way.

Tables persist through the builder's cache (an in-process memo in
front of JSON keyed by the code-version token, the algorithm and the
topology), so repeat builds — sweep workers, CI runs with a seeded
cache — skip the probe pass entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.compiler.backup import agreed, cached
from ..sim.router import LOCAL
from ..sim.topology import EAST, NORTH, SOUTH, WEST, Mesh2D
from .base import REFRESH_REROUTE, NativeContract

#: table geometry — must match the C kernel's CT_KEYS / CT_CANDS
CT_KEYS = 54
CT_CANDS = 8
#: mirror encoding of "field absent" (see _batched_kernel.FIELD_ABSENT)
ABSENT = -1000000

#: bump to invalidate persisted tables on format changes
_FORMAT = 1


def key_index(sdx: int, sdy: int, vncode: int, term: int) -> int:
    """Dense index of a (sign dx, sign dy, vn-state, term) key.

    ``vncode``: 0 = vn absent, 1 = vn 0, 2 = vn 1 — identical to the C
    kernel's ``ct_lookup``.
    """
    return (((sdx + 1) * 3 + sdy + 1) * 3 + vncode) * 2 + term


@dataclass
class CleanTable:
    """Dense 54-entry decision table, C-layout-ready plain lists."""

    valid: list[int] = field(default_factory=lambda: [0] * CT_KEYS)
    deliver: list[int] = field(default_factory=lambda: [0] * CT_KEYS)
    hint: list[int] = field(default_factory=lambda: [0] * CT_KEYS)
    steps: list[int] = field(default_factory=lambda: [0] * CT_KEYS)
    ncand: list[int] = field(default_factory=lambda: [0] * CT_KEYS)
    #: after-value of the vn field (ABSENT = route() left it alone)
    vn_after: list[int] = field(default_factory=lambda: [ABSENT] * CT_KEYS)
    #: candidate ports / vcs, CT_KEYS x CT_CANDS row-major
    cp: list[int] = field(default_factory=lambda: [0] * CT_KEYS * CT_CANDS)
    cv: list[int] = field(default_factory=lambda: [0] * CT_KEYS * CT_CANDS)

    def n_valid(self) -> int:
        return sum(self.valid)

    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "keys": CT_KEYS,
            "cands": CT_CANDS,
            "valid": self.valid,
            "deliver": self.deliver,
            "hint": self.hint,
            "steps": self.steps,
            "ncand": self.ncand,
            "vn_after": self.vn_after,
            "cp": self.cp,
            "cv": self.cv,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CleanTable":
        if d.get("format") != _FORMAT or d.get("keys") != CT_KEYS \
                or d.get("cands") != CT_CANDS:
            raise ValueError("clean-table format mismatch")
        t = cls()
        for name in ("valid", "deliver", "hint", "steps", "ncand",
                     "vn_after", "cp", "cv"):
            vals = [int(v) for v in d[name]]
            if len(vals) != len(getattr(t, name)):
                raise ValueError(f"clean-table field {name}: bad length")
            setattr(t, name, vals)
        return t


class _ProbeRouter:
    """The slice of the router query surface ``route()`` touches on a
    clean, empty network: geometry plus all-zero output loads."""

    __slots__ = ("node", "topology", "ports", "n_vcs")

    def __init__(self, topology, node: int, n_vcs: int):
        self.node = node
        self.topology = topology
        self.ports = dict(topology.ports(node))
        self.n_vcs = n_vcs

    def output_load(self, pid: int) -> int:
        return 0

    def port_loads(self) -> dict[int, int]:
        return dict.fromkeys(self.ports, 0)

    def port_alive(self, pid: int) -> bool:
        return pid == LOCAL or pid in self.ports


def eligible(algorithm, topology) -> NativeContract | None:
    """The algorithm's native contract when (algorithm, topology) can
    carry a clean table at all, else None."""
    if not isinstance(topology, Mesh2D):
        return None
    contract = algorithm.native_contract(topology)
    if contract is None or not contract.clean_table \
            or "vn" not in contract.fields:
        return None
    return contract


def _probe_nodes(topo: Mesh2D) -> list[int]:
    """A few well-spread probe nodes (interior when the mesh has one)."""
    w, h = topo.width, topo.height
    pts = {(min(1, w - 1), min(1, h - 1)),
           (w // 2, h // 2),
           (max(w - 2, 0), max(h - 2, 0))}
    return sorted(topo.node_at(x, y) for x, y in pts)


def _arrival_ports(router: _ProbeRouter, sdx: int, sdy: int) -> list[int]:
    """In-ports a head can reach this (sign dx, sign dy) state through
    under minimal clean-network routing: injection, plus each port
    whose opposite direction still points toward (or along) the
    destination — the side the worm last moved away from."""
    out = [LOCAL]
    deliver = sdx == 0 and sdy == 0
    for pid, cond in ((WEST, sdx >= 0), (EAST, sdx <= 0),
                      (SOUTH, sdy >= 0), (NORTH, sdy <= 0)):
        if (deliver or cond) and pid in router.ports:
            out.append(pid)
    return out


def _probe_points(topo: Mesh2D, routers, sdx: int, sdy: int,
                  fields: dict, n_vcs: int) -> list[tuple]:
    """Every probe of one key: each probe node, destination magnitudes
    1 and 2 along each nonzero sign, each arrival port, and both end
    VCs at injection."""
    points = []
    for router in routers:
        x, y = topo.coords(router.node)
        xs = [x + sdx * m for m in ((1, 2) if sdx else (0,))]
        ys = [y + sdy * m for m in ((1, 2) if sdy else (0,))]
        for dx in xs:
            if not 0 <= dx < topo.width:
                continue
            for dy in ys:
                if not 0 <= dy < topo.height:
                    continue
                dst = topo.node_at(dx, dy)
                for in_port in _arrival_ports(router, sdx, sdy):
                    vcs = (0, n_vcs - 1) if in_port == LOCAL else (0,)
                    for in_vc in vcs:
                        points.append((router, dst, fields, in_port,
                                       in_vc))
    return points


def _admit(outcome, fields):
    """Clean admission: at most ``CT_CANDS`` stored candidates (an
    ARGMIN entry keeps its whole set; the kernel honours the hint), no
    ``REFRESH_REROUTE``, and the only replayable field write is ``vn``
    going from absent to 0-7.  Stored form: the outcome with the
    writes replaced by the after-value of ``vn`` (ABSENT =
    untouched)."""
    if outcome is None:
        return None
    deliver, steps, hint, _offered, cands, writes = outcome
    if hint == REFRESH_REROUTE or len(cands) > CT_CANDS:
        return None
    if writes.keys() - {"vn"}:
        return None
    vn_after = writes.get("vn", ABSENT)
    if "vn" in writes and ("vn" in fields or not isinstance(vn_after, int)
                           or not 0 <= vn_after < 8):
        return None
    return (deliver, steps, hint, cands, vn_after)


def build_clean_table(algorithm, topology) -> CleanTable | None:
    """Probe-build the dense clean table for this (algorithm,
    topology); entries any probe disqualifies stay invalid (the engine
    falls through to its normal decision path for those keys)."""
    contract = eligible(algorithm, topology)
    if contract is None:
        return None
    topo: Mesh2D = topology
    has_term = "term" in contract.fields
    n_vcs = algorithm.n_vcs
    routers = [_ProbeRouter(topo, n, n_vcs) for n in _probe_nodes(topo)]
    table = CleanTable()
    for sdx in (-1, 0, 1):
        for sdy in (-1, 0, 1):
            for vncode in (0, 1, 2):
                for term in (0, 1):
                    if term and (vncode == 0 or not has_term):
                        continue        # term commits an assigned vn
                    fields: dict = {}
                    if vncode:
                        fields["vn"] = vncode - 1
                    if term:
                        fields["term"] = True
                    points = _probe_points(topo, routers, sdx, sdy,
                                           fields, n_vcs)
                    entry = agreed(algorithm, points, _admit)
                    if entry is None:
                        continue
                    idx = key_index(sdx, sdy, vncode, term)
                    deliver, steps, hint, cands, vn_after = entry
                    table.valid[idx] = 1
                    table.deliver[idx] = deliver
                    table.steps[idx] = steps
                    table.hint[idx] = hint
                    table.ncand[idx] = len(cands)
                    table.vn_after[idx] = vn_after
                    base = idx * CT_CANDS
                    for i, (p, v) in enumerate(cands):
                        table.cp[base + i] = p
                        table.cv[base + i] = v
    return table


def load_or_build(algorithm, topology) -> CleanTable | None:
    """The clean table for this (algorithm, topology), via the
    builder's cache; None when the pair cannot carry one."""
    if eligible(algorithm, topology) is None:
        return None
    return cached("ct", algorithm, topology,
                  lambda: build_clean_table(algorithm, topology),
                  CleanTable.from_dict)
