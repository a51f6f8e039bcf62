"""Build-time clean-route decision tables for the batched engine.

While the *known* fault set is empty, the native mesh algorithms'
decisions are translation-invariant: NAFTA collapses onto NARA (the
u-turn filter never binds, clear runs span whole columns, detours and
virtual-network switches are unreachable) and both reduce to a pure
function of (sign dx, sign dy, the ``vn`` field, the optional ``term``
commitment).  That is a 3 x 3 x 3 x 2 = 54-entry dense table, which
this module builds once per network construction by *probing* the live
algorithm — running ``route()`` at a handful of nodes, destination
magnitudes, arrival ports and VCs per key and keeping an entry only
when every probe returns the identical decision.  The batched engine
hands the table to its C kernels fully populated, so clean-network
routing never enters Python, even on the very first sighting of a
(dest, state) key — eliminating the cache-fill warmup cliff that
dominated short runs and large meshes.

Why probing instead of reading compiled rule tables: the rule-driven
algorithms' premises include per-cycle output-queue congestion, so
their (single-candidate, load-chosen) decisions are not statically
tabulable — and the hand-written native algorithms don't go through
the rule compiler at all.  The clean table is proven against the
algorithm itself at build time instead.

Tables persist as JSON under the batched kernel's cache directory
keyed by the compiler's code-version token (any source change
invalidates them), so repeat builds — sweep workers, CI runs with a
seeded cache — skip the probe pass entirely.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from ..sim.flit import Header
from ..sim.topology import Mesh2D, Torus2D
from .base import REFRESH_REROUTE, RouteDecision

#: table geometry — must match the C kernel's CT_KEYS / CT_CANDS
CT_KEYS = 54
CT_CANDS = 8
#: mirror encoding of "field absent" (see _batched_kernel.FIELD_ABSENT)
ABSENT = -1000000

_LOCAL = -1          # pseudo in_port: injection at the local port

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

    def occupancy(self) -> int:
        return 0

    def port_alive(self, pid: int) -> bool:
        return pid == _LOCAL or pid in self.ports

    def alive_ports(self) -> list[int]:
        return list(self.ports)

    def neighbor(self, pid: int):
        p = self.ports.get(pid)
        return p.neighbor if p else None


def eligible(algorithm, topology) -> bool:
    """Whether (algorithm, topology) can carry a clean table at all."""
    nf = algorithm.native_fields
    return (bool(getattr(algorithm, "native_clean_table", False))
            and nf is not None and "vn" in nf
            and isinstance(topology, Mesh2D)
            and not isinstance(topology, Torus2D))


def _probe_points(topo: Mesh2D) -> list[int]:
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
    from ..sim.topology import EAST, NORTH, SOUTH, WEST
    out = [_LOCAL]
    deliver = sdx == 0 and sdy == 0
    for pid, cond in ((WEST, sdx >= 0), (EAST, sdx <= 0),
                      (SOUTH, sdy >= 0), (NORTH, sdy <= 0)):
        if (deliver or cond) and pid in router.ports:
            out.append(pid)
    return out


def _probe_once(algorithm, router: _ProbeRouter, dst: int,
                base_fields: dict, in_port: int, in_vc: int):
    """One route() probe; returns the comparable outcome tuple or None
    when the decision leaves the table's domain."""
    header = Header(msg_id=0, src=router.node, dst=dst, length=1,
                    created=0, fields=dict(base_fields))
    dec: RouteDecision = algorithm.route(router, header, in_port, in_vc)
    cands = list(dec.candidates)
    if dec.stuck or dec.refresh_hint == REFRESH_REROUTE \
            or len(cands) > CT_CANDS:
        return None
    # the only replayable side effect is writing vn where it was absent
    after = dict(header.fields)
    before = dict(base_fields)
    vn_after = ABSENT
    if after.get("vn") != before.get("vn"):
        if "vn" in before:
            return None
        vn_after = after.pop("vn")
        if not isinstance(vn_after, int) or not 0 <= vn_after < 8:
            return None
    else:
        after.pop("vn", None)
        before.pop("vn", None)
    if after != before:
        return None
    return (1 if dec.deliver else 0, int(dec.steps),
            int(dec.refresh_hint), tuple(cands), vn_after)


def build_clean_table(algorithm, topology) -> CleanTable | None:
    """Probe-build the dense clean table for this (algorithm,
    topology); entries any probe disqualifies stay invalid (the engine
    falls through to its normal decision path for those keys)."""
    if not eligible(algorithm, topology):
        return None
    topo: Mesh2D = topology
    nf = algorithm.native_fields
    has_term = "term" in nf
    n_vcs = algorithm.n_vcs
    routers = [_ProbeRouter(topo, n, n_vcs) for n in _probe_points(topo)]
    table = CleanTable()
    for sdx in (-1, 0, 1):
        for sdy in (-1, 0, 1):
            for vncode in (0, 1, 2):
                for term in (0, 1):
                    if term and (vncode == 0 or not has_term):
                        continue        # term commits an assigned vn
                    idx = key_index(sdx, sdy, vncode, term)
                    entry = _probe_key(algorithm, topo, routers,
                                       sdx, sdy, vncode, term, n_vcs)
                    if entry is None:
                        continue
                    deliver, steps, hint, cands, vn_after = entry
                    table.valid[idx] = 1
                    table.deliver[idx] = deliver
                    table.steps[idx] = steps
                    table.hint[idx] = hint
                    table.ncand[idx] = len(cands)
                    table.vn_after[idx] = vn_after
                    base = idx * CT_CANDS
                    for i, (p, v) in enumerate(cands):
                        table.cp[base + i] = int(p)
                        table.cv[base + i] = int(v)
    return table


def _probe_key(algorithm, topo: Mesh2D, routers, sdx: int, sdy: int,
               vncode: int, term: int, n_vcs: int):
    """All probes for one key; the consistent outcome, else None."""
    base_fields: dict = {}
    if vncode:
        base_fields["vn"] = vncode - 1
    if term:
        base_fields["term"] = True
    outcome = None
    probes = 0
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
                    vcs = (0, n_vcs - 1) if in_port == _LOCAL else (0,)
                    for in_vc in vcs:
                        got = _probe_once(algorithm, router, dst,
                                          base_fields, in_port, in_vc)
                        if got is None:
                            return None
                        if outcome is None:
                            outcome = got
                        elif got != outcome:
                            return None     # not sign-invariant
                        probes += 1
                # determinism: the same probe twice must agree
                rerun = _probe_once(algorithm, router, dst, base_fields,
                                    _LOCAL, 0)
                if rerun != outcome:
                    return None
    return outcome if probes else None


# -- persistence -------------------------------------------------------


def _table_path(algorithm, topology: Mesh2D) -> str:
    # lazy imports: pool pulls in the experiments package and the
    # kernel module is only needed for its cache-directory convention
    from ..experiments.pool import code_version_token
    from ..sim._batched_kernel import _cache_dir
    name = (f"ct-{code_version_token()}-{algorithm.name}"
            f"-{topology.width}x{topology.height}.json")
    return os.path.join(_cache_dir(), "tables", name)


def load_or_build(algorithm, topology) -> CleanTable | None:
    """The clean table for this (algorithm, topology), from the
    persisted cache when the code-version token matches, probe-built
    (and persisted) otherwise."""
    if not eligible(algorithm, topology):
        return None
    path = _table_path(algorithm, topology)
    try:
        with open(path, encoding="utf-8") as f:
            return CleanTable.from_dict(json.load(f))
    except (OSError, ValueError, KeyError, TypeError):
        pass
    table = build_clean_table(algorithm, topology)
    if table is None:
        return None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(table.to_dict(), f, sort_keys=True)
        os.replace(tmp, path)           # atomic for concurrent builders
    except OSError:  # pragma: no cover - cache dir not writable
        pass
    return table
