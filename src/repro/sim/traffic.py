"""Synthetic traffic generation.

Standard interconnection-network workloads: uniform random, transpose,
bit-complement and hotspot.  Injection is a Bernoulli process per node
with a given offered load in flits/node/cycle; message lengths are
fixed or drawn from a small range (wormhole-switched worms).

All randomness flows through one :class:`numpy.random.Generator` so
every experiment is reproducible from a seed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .topology import Mesh2D, Topology

PatternFn = Callable[[int], int]


def uniform_pattern(topology: Topology, rng: np.random.Generator) -> PatternFn:
    n = topology.n_nodes

    def dest(src: int) -> int:
        d = int(rng.integers(0, n - 1))
        return d if d < src else d + 1  # uniform over others

    def dest_batch(srcs: list[int]) -> list[int]:
        # numpy's bounded-integer generation is element-sequential, so
        # one sized draw consumes the bit stream exactly like len(srcs)
        # scalar calls — the RNG stream (and every pinned digest) is
        # unchanged; the per-call Generator overhead is paid once
        ds = rng.integers(0, n - 1, size=len(srcs)).tolist()
        return [d if d < s else d + 1 for d, s in zip(ds, srcs)]

    dest.batch = dest_batch
    return dest


def transpose_pattern(topology: Topology) -> PatternFn:
    if not isinstance(topology, Mesh2D):
        raise ValueError("transpose needs a 2-D mesh")
    if topology.width != topology.height:
        raise ValueError("transpose needs a square mesh")

    def dest(src: int) -> int:
        x, y = topology.coords(src)
        return topology.node_at(y, x)

    return dest


def bit_complement_pattern(topology: Topology) -> PatternFn:
    n = topology.n_nodes
    if n & (n - 1):
        raise ValueError("bit-complement needs a power-of-two node count")
    mask = n - 1

    def dest(src: int) -> int:
        return src ^ mask

    return dest


def hotspot_pattern(topology: Topology, rng: np.random.Generator,
                    hotspot: int | None = None,
                    fraction: float = 0.2) -> PatternFn:
    """Uniform traffic with an extra ``fraction`` directed at one node."""
    n = topology.n_nodes
    if hotspot is None:
        hotspot = n // 2
    uni = uniform_pattern(topology, rng)
    spot = int(hotspot)

    def dest(src: int) -> int:
        if src != spot and rng.random() < fraction:
            return spot
        d = uni(src)
        return d

    return dest


#: pattern name -> factory ``(topology, rng, **pattern_kwargs)``; the
#: factory's parameters after those two are the keyword arguments the
#: pattern accepts (:func:`check_pattern_kwargs`)
PATTERNS = {
    "uniform": uniform_pattern,
    "transpose": lambda topo, rng: transpose_pattern(topo),
    "bit_complement": lambda topo, rng: bit_complement_pattern(topo),
    "hotspot": hotspot_pattern,
}


def check_pattern_kwargs(pattern: str, kwargs) -> None:
    """Raise ValueError when ``kwargs`` names a key ``pattern`` does not
    accept (the message lists the keys it does)."""
    accepted = list(inspect.signature(PATTERNS[pattern]).parameters)[2:]
    unknown = sorted(set(kwargs or ()) - set(accepted))
    if unknown:
        raise ValueError(
            f"pattern {pattern!r} takes no argument {', '.join(unknown)}; "
            f"it accepts {', '.join(accepted) or 'none'}")


@dataclass
class TrafficGenerator:
    """Bernoulli message injection against a destination pattern.

    ``load`` is offered load in flits/node/cycle; with fixed message
    length L the per-cycle message probability per node is load / L.
    """

    topology: Topology
    pattern: str = "uniform"
    load: float = 0.1
    message_length: int = 8
    seed: int = 1
    pattern_kwargs: dict | None = None

    def __post_init__(self):
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("load must be in [0, 1] flits/node/cycle")
        if self.message_length < 1:
            raise ValueError("message_length must be >= 1")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}; choose "
                             f"from {sorted(PATTERNS)}")
        check_pattern_kwargs(self.pattern, self.pattern_kwargs)
        self.rng = np.random.default_rng(self.seed)
        self._p = self.load / self.message_length
        self._dest = PATTERNS[self.pattern](self.topology, self.rng,
                                           **(self.pattern_kwargs or {}))

    def destinations(self) -> PatternFn:
        return self._dest

    def uniform_trials(self) -> tuple[int, float] | None:
        """``(n_nodes, p)`` when :meth:`tick` is one Bernoulli(p) trial
        per node with a uniform destination for each hit (the
        ``uniform`` pattern), the draw an engine may make itself from
        ``rng`` in the same order; None otherwise."""
        if self.pattern != "uniform" or self.topology.n_nodes < 2 \
                or type(self).tick is not TrafficGenerator.tick:
            return None
        return self.topology.n_nodes, self._p

    def tick(self, cycle: int) -> list[tuple[int, int, int]]:
        """(src, dst, length) triples to inject this cycle."""
        # one bulk draw per cycle regardless of hits keeps the RNG
        # stream (and thus every experiment) identical to the naive
        # per-node loop while skipping the non-injecting nodes
        draws = self.rng.random(self.topology.n_nodes)
        srcs = (draws < self._p).nonzero()[0].tolist()
        if not srcs:
            return []
        length = self.message_length
        batch = getattr(self._dest, "batch", None)
        if batch is not None:
            return [(src, dst, length)
                    for src, dst in zip(srcs, batch(srcs)) if dst != src]
        out = []
        for src in srcs:
            dst = self._dest(src)
            if dst != src:
                out.append((src, dst, length))
        return out
