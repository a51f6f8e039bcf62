"""Network topologies: 2-D mesh and hypercube.

A topology enumerates nodes (dense integer ids), per-node ports (dense
integer ids, one per neighbour link; the router adds a separate local
injection/ejection port on top), and coordinate helpers the routing
algorithms use.  Links are bidirectional; "a link is either faulty and
known as such or it transmits messages without destruction.  Links are
bi-directional and both directions fail together" (paper assumption i)
— hence links are identified by unordered node pairs.

Port numbering conventions match the routing literature:

* 2-D mesh: EAST=0, WEST=1, NORTH=2, SOUTH=3 (missing mesh-edge
  ports simply do not exist on border nodes);
* hypercube: dimension-major (port i crosses dimension i).
"""

from __future__ import annotations

from dataclasses import dataclass


EAST, WEST, NORTH, SOUTH = 0, 1, 2, 3
MESH_DIR_NAMES = {EAST: "east", WEST: "west", NORTH: "north", SOUTH: "south"}
MESH_OPPOSITE = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}


def link_key(a: int, b: int) -> tuple[int, int]:
    """Canonical id of the bidirectional link between two nodes."""
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Port:
    """One router port: connects ``node`` to ``neighbor`` over ``link``."""

    node: int
    port_id: int
    neighbor: int
    neighbor_port: int
    link: tuple[int, int]


class Topology:
    """Abstract base: a named graph with dense ports."""

    name: str = "topology"

    def __init__(self):
        self._ports: dict[int, dict[int, Port]] = {}
        self._built = False
        self._neighbor_cache: dict[int, list[int]] = {}

    def describe(self) -> dict:
        """JSON-able construction recipe: ``{"kind": ..., <params>}``.

        Descriptions — not live topologies — are what crosses process
        boundaries (and what result-cache keys hash); rebuild with
        :func:`topology_from_dict`.
        """
        raise NotImplementedError

    # -- subclass interface ---------------------------------------------

    @property
    def n_nodes(self) -> int:
        raise NotImplementedError

    def _neighbor(self, node: int, port_id: int) -> tuple[int, int] | None:
        """(neighbor node, neighbor's port id) or None if the port does
        not exist (mesh borders)."""
        raise NotImplementedError

    @property
    def max_ports(self) -> int:
        """Upper bound on port ids (node degree of the regular graph)."""
        raise NotImplementedError

    def distance(self, a: int, b: int) -> int:
        """Minimal hop distance in the fault-free topology."""
        raise NotImplementedError

    # -- built structure ----------------------------------------------------

    def _build(self) -> None:
        if self._built:
            return
        for node in range(self.n_nodes):
            ports: dict[int, Port] = {}
            for pid in range(self.max_ports):
                nb = self._neighbor(node, pid)
                if nb is None:
                    continue
                nb_node, nb_port = nb
                ports[pid] = Port(node, pid, nb_node, nb_port,
                                  link_key(node, nb_node))
            self._ports[node] = ports
        self._links = frozenset(p.link for ports in self._ports.values()
                                for p in ports.values())
        self._built = True

    def ports(self, node: int) -> dict[int, Port]:
        self._build()
        return self._ports[node]

    def port(self, node: int, port_id: int) -> Port | None:
        self._build()
        return self._ports[node].get(port_id)

    def neighbors(self, node: int) -> list[int]:
        out = self._neighbor_cache.get(node)
        if out is None:
            out = [p.neighbor for p in self.ports(node).values()]
            self._neighbor_cache[node] = out
        return out

    def links(self) -> frozenset[tuple[int, int]]:
        """Every link, built once; shared, hence immutable."""
        self._build()
        return self._links

    def nodes(self) -> range:
        return range(self.n_nodes)


class Mesh2D(Topology):
    """width x height 2-D mesh; node id = x + y * width."""

    name = "mesh2d"

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be positive")
        super().__init__()
        self.width = width
        self.height = height
        # minimal_ports is pure geometry (faults never shrink it), so
        # it is memoized per (node, dest) pair across the whole run
        self._minimal_cache: dict[int, list[int]] = {}

    def describe(self) -> dict:
        return {"kind": self.name, "width": self.width,
                "height": self.height}

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    @property
    def max_ports(self) -> int:
        return 4

    def coords(self, node: int) -> tuple[int, int]:
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x},{y}) outside {self.width}x{self.height}")
        return x + y * self.width

    def _neighbor(self, node: int, port_id: int) -> tuple[int, int] | None:
        x, y = self.coords(node)
        if port_id == EAST and x + 1 < self.width:
            return self.node_at(x + 1, y), WEST
        if port_id == WEST and x - 1 >= 0:
            return self.node_at(x - 1, y), EAST
        if port_id == NORTH and y + 1 < self.height:
            return self.node_at(x, y + 1), SOUTH
        if port_id == SOUTH and y - 1 >= 0:
            return self.node_at(x, y - 1), NORTH
        return None

    def distance(self, a: int, b: int) -> int:
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        return abs(ax - bx) + abs(ay - by)

    def minimal_ports(self, node: int, dest: int) -> list[int]:
        """Ports on minimal paths from node to dest (paper's set 2
        ingredient before deadlock restrictions).  The returned list is
        memoized and shared — callers must not mutate it."""
        key = node * self.width * self.height + dest
        out = self._minimal_cache.get(key)
        if out is None:
            out = self._compute_minimal(node, dest)
            self._minimal_cache[key] = out
        return out

    def _compute_minimal(self, node: int, dest: int) -> list[int]:
        x, y = self.coords(node)
        dx, dy = self.coords(dest)
        out = []
        if dx > x:
            out.append(EAST)
        if dx < x:
            out.append(WEST)
        if dy > y:
            out.append(NORTH)
        if dy < y:
            out.append(SOUTH)
        return out


class Hypercube(Topology):
    """d-dimensional binary hypercube; port i flips address bit i."""

    name = "hypercube"

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("hypercube dimension must be >= 1")
        super().__init__()
        self.dimension = dimension

    def describe(self) -> dict:
        return {"kind": self.name, "dimension": self.dimension}

    @property
    def n_nodes(self) -> int:
        return 1 << self.dimension

    @property
    def max_ports(self) -> int:
        return self.dimension

    def _neighbor(self, node: int, port_id: int) -> tuple[int, int] | None:
        if 0 <= port_id < self.dimension:
            return node ^ (1 << port_id), port_id
        return None

    def distance(self, a: int, b: int) -> int:
        return (a ^ b).bit_count()

    def differing_dimensions(self, a: int, b: int) -> list[int]:
        """Dimensions still to correct — the minimal-port set."""
        x = a ^ b
        return [i for i in range(self.dimension) if x >> i & 1]


_TOPOLOGY_KINDS = {
    "mesh2d": lambda d: Mesh2D(int(d["width"]), int(d["height"])),
    "hypercube": lambda d: Hypercube(int(d["dimension"])),
}


def topology_from_dict(desc: dict) -> Topology:
    """Rebuild a topology from a :meth:`Topology.describe` recipe."""
    try:
        kind = desc["kind"]
    except (TypeError, KeyError):
        raise ValueError(f"not a topology description: {desc!r}") from None
    try:
        build = _TOPOLOGY_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown topology kind {kind!r}; choose from "
                         f"{sorted(_TOPOLOGY_KINDS)}") from None
    return build(desc)
