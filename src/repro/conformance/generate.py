"""Case generation: seeded, metadata-driven scenario sampling.

Each case is drawn from a numpy Generator seeded with the sequence
``[seed, CASE_SALT, index]`` (the chaos campaign's seeding idiom), so
case *i* of a run is reproducible in isolation and adding cases never
reshuffles earlier ones.  The algorithm's
:class:`~repro.routing.registry.AlgoMeta` decides what may be thrown
at it: topology kinds, fault budgets (non-fault-tolerant algorithms
get fault-free cases only), and — for the order-of-magnitude-slower
rule-driven variants — tiny dimensions and short workloads.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..routing.registry import ALGORITHM_META
from ..sim.faults import random_link_faults, random_node_faults
from ..sim.topology import topology_from_dict
from .case import ConformanceCase

CASE_SALT = 0xC0F

#: dimension menus per topology kind: (full-size, tiny) choices
_MESH_DIMS = ((3, 3), (4, 3), (4, 4), (5, 4), (6, 6))
_MESH_DIMS_TINY = ((3, 3), (4, 3))
_CUBE_DIMS = (3, 4)
_CUBE_DIMS_TINY = (3,)


def _topology_desc(rng: np.random.Generator, kind: str,
                   tiny: bool) -> dict:
    if kind == "mesh2d":
        w, h = _pick(rng, _MESH_DIMS_TINY if tiny else _MESH_DIMS)
        return {"kind": "mesh2d", "width": int(w), "height": int(h)}
    if kind == "hypercube":
        d = _pick(rng, _CUBE_DIMS_TINY if tiny else _CUBE_DIMS)
        return {"kind": "hypercube", "dimension": int(d)}
    raise ValueError(f"no generator for topology kind {kind!r}")


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def generate_case(algorithm: str, seed: int, index: int,
                  mutation: str | None = None) -> ConformanceCase:
    """Case ``index`` of the stream ``(algorithm, seed)``."""
    meta = ALGORITHM_META[algorithm]
    rng = np.random.default_rng([seed, CASE_SALT, index])
    tiny = meta.rule_driven
    desc = _topology_desc(rng, _pick(rng, meta.topologies), tiny)
    topo = topology_from_dict(desc)

    fault_links: list[tuple[int, int]] = []
    fault_nodes: list[int] = []
    # half the stream is fault-free even for ft algorithms: the
    # fault-free oracles (minimality, shadow equivalence) only run there
    if (meta.max_link_faults or meta.max_node_faults) \
            and rng.integers(2) == 1:
        n_links = int(rng.integers(meta.max_link_faults + 1))
        n_nodes = int(rng.integers(meta.max_node_faults + 1))
        if n_links:
            fault_links = [(int(a), int(b)) for a, b in random_link_faults(
                topo, n_links, rng, keep_connected=True)]
        if n_nodes:
            # node faults drawn against the link-faulted network would
            # need a combined connectivity check; drawing independently
            # and re-checking keeps the generator simple
            fault_nodes = [int(n) for n in random_node_faults(
                topo, n_nodes, rng, keep_connected=True)]

    n_messages = int(rng.integers(2, 5 if tiny else 9))
    healthy = [n for n in topo.nodes() if n not in fault_nodes]
    messages: list[tuple[int, int, int, int]] = []
    cycle = 0
    for _ in range(n_messages):
        src, dst = rng.choice(len(healthy), size=2, replace=False)
        cycle += int(rng.integers(0, 4))
        length = int(rng.integers(1, 4 if tiny else 7))
        messages.append((cycle, int(healthy[src]), int(healthy[dst]),
                         length))

    return ConformanceCase(
        algorithm=algorithm,
        topology=desc,
        messages=messages,
        fault_links=fault_links,
        fault_nodes=fault_nodes,
        buffer_depth=int(_pick(rng, (2, 4))),
        mutation=mutation,
        seed=seed,
    )


def generate_cases(algorithms, seed: int, *, start: int = 0,
                   mutation: str | None = None
                   ) -> Iterator[ConformanceCase]:
    """Round-robin infinite case stream over ``algorithms``; the caller
    cuts it by case count or time budget."""
    algorithms = list(algorithms)
    index = start
    while True:
        for name in algorithms:
            yield generate_case(name, seed, index, mutation=mutation)
        index += 1
