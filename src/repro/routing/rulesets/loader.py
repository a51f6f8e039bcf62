"""Ruleset loading: DSL sources + FCFB function implementations +
nft manifests (the paper's Table 1/2 "nft" column).

``load_ruleset`` compiles one of the shipped rule programs with
concrete parameters and returns a ready :class:`RuleEngine` plus its
manifest.  The FCFB-backed FUNCTIONs declared in the sources get their
reference implementations here — these are the software models of the
configurable function blocks.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from typing import Mapping

from ...core.compiler import CompiledProgram, compile_program
from ...core.engine import RuleEngine
from ...sim.topology import EAST, NORTH, SOUTH, WEST

# virtual-network structure shared with repro.routing.nara
_VN_FREE = {0: (EAST, WEST, SOUTH), 1: (EAST, WEST, NORTH)}
_VN_TERM = {0: NORTH, 1: SOUTH}


# ---------------------------------------------------------------------------
# FCFB function implementations (mesh / NAFTA)
# ---------------------------------------------------------------------------

def minimal_cands(xpos: int, ypos: int, xdes: int, ydes: int,
                  vn: int) -> frozenset:
    """Minimal directions admissible in the message's virtual network,
    including the terminal direction when entered from the destination
    column/row (the 'mesh distance computation' FCFB)."""
    out = set()
    if xdes > xpos:
        out.add(EAST)
    if xdes < xpos:
        out.add(WEST)
    if ydes > ypos and NORTH in _VN_FREE[vn]:
        out.add(NORTH)
    if ydes < ypos and SOUTH in _VN_FREE[vn]:
        out.add(SOUTH)
    term = _VN_TERM[vn]
    if xpos == xdes:
        if term == NORTH and ydes > ypos:
            out.add(NORTH)
        if term == SOUTH and ydes < ypos:
            out.add(SOUTH)
    return frozenset(out)


def qbest(cands: frozenset, q0: int, q1: int, q2: int, q3: int) -> int:
    """Least-loaded direction of a candidate set ('minimum selection')."""
    loads = (q0, q1, q2, q3)
    if not cands:
        raise ValueError("qbest on an empty candidate set")
    return min(cands, key=lambda d: (loads[d], d))


def termdir(vn: int) -> int:
    return _VN_TERM[vn]


def detour_set(avail: frozenset, vn: int, indir: int) -> frozenset:
    """Non-minimal escape directions: the free moves of the virtual
    network, minus the arrival port ('set subtraction')."""
    free = frozenset(_VN_FREE[vn])
    return (avail & free) - {indir}


def detour_pick(cands: frozenset, sdir: int, indir: int,
                xpos: int, xdes: int) -> int:
    """Detour preference: sticky search direction first, then toward
    the destination column, then lowest port id."""
    if not cands:
        raise ValueError("detour_pick on an empty candidate set")
    sticky = {1: EAST, 2: WEST}.get(sdir)

    def rank(port: int):
        toward = (port == EAST and xdes > xpos) or \
                 (port == WEST and xdes < xpos)
        return (0 if port == sticky else 1, 0 if toward else 1, port)

    return min(cands, key=rank)


def pick_min(cands: frozenset) -> int:
    """Lowest index of a set ('minimum selection' for the cube)."""
    if not cands:
        raise ValueError("pick_min on an empty set")
    return min(cands)


NAFTA_FUNCTIONS = {
    "minimal_cands": minimal_cands,
    "qbest": qbest,
    "termdir": termdir,
    "detour_set": detour_set,
    "detour_pick": detour_pick,
}

ROUTE_C_FUNCTIONS = {
    "pick_min": pick_min,
}


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RulesetSpec:
    name: str
    filename: str
    default_params: dict
    #: rule bases also needed by the non-fault-tolerant variant — the
    #: paper's Table 1/2 "nft" column
    nft_bases: frozenset
    functions: dict = field(default_factory=dict)


RULESETS = {
    "nafta": RulesetSpec(
        name="nafta",
        filename="nafta.rules",
        default_params={"xsize": 16, "ysize": 16, "qmax": 63, "rmax": 15},
        nft_bases=frozenset({
            "incoming_message", "message_finished", "tell_my_neighbors",
            "flit_finished", "message_from_info_channel"}),
        functions=NAFTA_FUNCTIONS),
    "route_c": RulesetSpec(
        name="route_c",
        filename="route_c.rules",
        default_params={"d": 6, "a": 2},
        nft_bases=frozenset({"decide_dir", "adaptivity"}),
        functions=ROUTE_C_FUNCTIONS),
    "route_c_merged": RulesetSpec(
        name="route_c_merged",
        filename="route_c_merged.rules",
        default_params={"d": 6, "a": 2},
        nft_bases=frozenset(),
        functions=ROUTE_C_FUNCTIONS),
}


def ruleset_source(name: str) -> str:
    spec = RULESETS[name]
    pkg = importlib.resources.files(__package__)
    return (pkg / spec.filename).read_text()


def compile_ruleset(name: str, params: Mapping | None = None,
                    materialize: bool = True) -> CompiledProgram:
    spec = RULESETS[name]
    merged = dict(spec.default_params)
    merged.update(params or {})
    return compile_program(ruleset_source(name), params=merged,
                           materialize=materialize)


def load_ruleset(name: str, params: Mapping | None = None,
                 mode: str = "table") -> RuleEngine:
    """Compile a shipped ruleset and wire up its FCFB functions."""
    spec = RULESETS[name]
    compiled = compile_ruleset(name, params)
    return RuleEngine(compiled, functions=spec.functions, mode=mode)
