"""Unit and property tests for topologies."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import EAST, NORTH, SOUTH, WEST, Hypercube, Mesh2D, link_key


class TestMesh2D:
    def test_node_count(self):
        assert Mesh2D(4, 3).n_nodes == 12

    def test_coords_roundtrip(self):
        m = Mesh2D(5, 4)
        for n in m.nodes():
            x, y = m.coords(n)
            assert m.node_at(x, y) == n

    def test_corner_has_two_ports(self):
        m = Mesh2D(4, 4)
        assert set(m.ports(0)) == {EAST, NORTH}
        assert set(m.ports(15)) == {WEST, SOUTH}

    def test_interior_has_four_ports(self):
        m = Mesh2D(4, 4)
        assert set(m.ports(m.node_at(1, 1))) == {EAST, WEST, NORTH, SOUTH}

    def test_ports_are_symmetric(self):
        m = Mesh2D(4, 4)
        for n in m.nodes():
            for pid, p in m.ports(n).items():
                back = m.port(p.neighbor, p.neighbor_port)
                assert back is not None
                assert back.neighbor == n
                assert back.neighbor_port == pid

    def test_distance_is_manhattan(self):
        m = Mesh2D(6, 6)
        assert m.distance(m.node_at(0, 0), m.node_at(3, 4)) == 7

    def test_minimal_ports(self):
        m = Mesh2D(4, 4)
        assert set(m.minimal_ports(m.node_at(1, 1), m.node_at(3, 0))) == \
            {EAST, SOUTH}
        assert m.minimal_ports(5, 5) == []

    def test_link_count(self):
        m = Mesh2D(4, 4)
        assert len(m.links()) == 2 * 4 * 3  # 24 links in a 4x4 mesh

    def test_links_built_once_and_immutable(self):
        m = Mesh2D(4, 4)
        links = m.links()
        assert m.links() is links
        assert isinstance(links, frozenset)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Mesh2D(0, 3)


class TestHypercube:
    def test_node_count(self):
        assert Hypercube(6).n_nodes == 64

    def test_ports_flip_one_bit(self):
        h = Hypercube(4)
        for n in h.nodes():
            for pid, p in h.ports(n).items():
                assert p.neighbor == n ^ (1 << pid)
                assert p.neighbor_port == pid

    def test_distance_is_hamming(self):
        h = Hypercube(5)
        assert h.distance(0b00000, 0b10101) == 3

    def test_differing_dimensions(self):
        h = Hypercube(4)
        assert h.differing_dimensions(0b0000, 0b1010) == [1, 3]

    def test_link_count(self):
        h = Hypercube(4)
        assert len(h.links()) == 16 * 4 // 2


class TestLinkKey:
    def test_canonical_order(self):
        assert link_key(5, 2) == (2, 5)
        assert link_key(2, 5) == (2, 5)


# -- property-based --------------------------------------------------------

mesh_sizes = st.tuples(st.integers(2, 8), st.integers(2, 8))


@given(mesh_sizes, st.data())
def test_mesh_distance_triangle_inequality(size, data):
    m = Mesh2D(*size)
    a = data.draw(st.integers(0, m.n_nodes - 1))
    b = data.draw(st.integers(0, m.n_nodes - 1))
    c = data.draw(st.integers(0, m.n_nodes - 1))
    assert m.distance(a, c) <= m.distance(a, b) + m.distance(b, c)


@given(mesh_sizes, st.data())
def test_mesh_neighbors_at_distance_one(size, data):
    m = Mesh2D(*size)
    n = data.draw(st.integers(0, m.n_nodes - 1))
    for nb in m.neighbors(n):
        assert m.distance(n, nb) == 1


@given(st.integers(1, 7), st.data())
def test_hypercube_distance_symmetric(d, data):
    h = Hypercube(d)
    a = data.draw(st.integers(0, h.n_nodes - 1))
    b = data.draw(st.integers(0, h.n_nodes - 1))
    assert h.distance(a, b) == h.distance(b, a)
    assert (h.distance(a, b) == 0) == (a == b)
