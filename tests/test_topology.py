"""Topology construction and routing, checked against a BFS oracle."""

import pytest
from collections import deque

from camsim.topology import ConfigError, build_topology


def bfs_distances(topo, src):
    """Independent shortest-path oracle over the link graph."""
    dist = {src: 0}
    q = deque([src])
    adj = {}
    for (a, b) in topo.links:
        adj.setdefault(a, []).append(b)
    while q:
        node = q.popleft()
        for nbr in adj.get(node, ()):
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                q.append(nbr)
    return dist


def all_nodes(topo):
    """Every node of the link graph, the crossbar's router included."""
    return sorted({a for (a, _) in topo.links})


def hops(topo, src, dst):
    """Length of the route the network precomputes and messages follow."""
    return len(topo.route(src, dst))


def test_crossbar_4_shape():
    t = build_topology("crossbar", 4)
    assert t.n_endpoints == 4
    assert all_nodes(t) == [0, 1, 2, 3, 4]   # 4 endpoints + 1 router
    assert t.n_links == 8             # one in-link and one out-link each


def test_hypercube_16_shape():
    t = build_topology("hypercube", 16)
    assert all_nodes(t) == list(range(16))
    assert t.n_links == 64            # 16 nodes x 4 dimensions
    for (a, b) in t.links:
        assert bin(a ^ b).count("1") == 1


def test_hypercube_non_power_of_two_rejected():
    with pytest.raises(ConfigError):
        build_topology("hypercube", 12)


def test_torus_shapes():
    t = build_topology("torus2d", 16)
    assert (t.width, t.height) == (4, 4)
    assert t.n_links == 64
    t4 = build_topology("torus2d", 4)
    assert (t4.width, t4.height) == (2, 2)
    # wrap and direct links collapse on a 2-wide dimension
    assert t4.n_links == 8


def test_unknown_kind_and_tiny_sizes():
    with pytest.raises(ConfigError):
        build_topology("ring", 4)
    with pytest.raises(ConfigError):
        build_topology("crossbar", 1)


def test_crossbar_routing():
    t = build_topology("crossbar", 8)
    link = t.next_hop(3, 7)
    assert (link.src, link.dst) == (3, t.router)
    assert hops(t, 3, 7) == 2
    assert hops(t, 3, 3) == 0
    assert hops(t, 3, t.router) == hops(t, t.router, 7) == 1


def test_torus_dimension_order_example():
    # 4x4, (0,0) -> (2,3): x distance ties (2 both ways) -> increasing x
    t = build_topology("torus2d", 16)
    dest = 3 * 4 + 2
    assert t.next_hop(0, dest).dst == 1
    assert hops(t, 0, dest) == 3   # min(2,2) + min(3,1)


def test_hypercube_ecube_example():
    t = build_topology("hypercube", 16)
    assert t.next_hop(0, 11).dst == 1  # lowest differing bit first
    assert hops(t, 0, 11) == 3


@pytest.mark.parametrize("kind,n", [
    ("crossbar", 16), ("torus2d", 16), ("hypercube", 16),
    ("torus2d", 4), ("hypercube", 4), ("crossbar", 4),
    ("torus2d", 12), ("hypercube", 8),
])
def test_min_hops_matches_bfs_and_routes_realize_it(kind, n):
    # minimal hop counts are the lengths of the routes messages follow
    t = build_topology(kind, n)
    nodes = all_nodes(t)
    for src in nodes:
        dist = bfs_distances(t, src)
        assert len(dist) == len(nodes), "graph must be strongly connected"
        for dst in nodes:
            path = t.route(src, dst)
            assert len(path) == dist[dst]
            if src != dst:
                assert path[0].src == src and path[-1].dst == dst
                assert all(a.dst == b.src for a, b in zip(path, path[1:]))


def test_hypercube_distance_is_hamming():
    t = build_topology("hypercube", 16)
    for a in range(16):
        for b in range(16):
            assert hops(t, a, b) == bin(a ^ b).count("1")


def test_2x2_torus_matches_2cube():
    torus = build_topology("torus2d", 4)
    cube = build_topology("hypercube", 4)
    for a in range(4):
        for b in range(4):
            assert hops(torus, a, b) == hops(cube, a, b)


def test_routing_deterministic():
    t = build_topology("torus2d", 16)
    assert t.next_hop(5, 14) == t.next_hop(5, 14)
    assert build_topology("torus2d", 16).links == t.links
