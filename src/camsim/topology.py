"""Interconnect graphs and deterministic minimal routing.

Three topology kinds are supported:

* ``crossbar``  -- every endpoint hangs off one central router. The router
  itself is perfect (no internal contention); only the per-endpoint links
  serialize traffic.
* ``torus2d``   -- endpoints on a W x H grid with wraparound links in both
  dimensions, routed dimension-order (X before Y, shorter wrap wins, ties
  resolved toward increasing coordinate).
* ``hypercube`` -- node i is linked to node i XOR 2^k for every dimension k,
  routed e-cube (lowest differing address bit corrected first).

Topologies are immutable after construction and can be shared freely
between concurrently running simulations.
"""

from __future__ import annotations

from typing import NamedTuple

TOPOLOGY_KINDS = ("crossbar", "torus2d", "hypercube")


class ConfigError(ValueError):
    """Raised when a requested configuration violates a constraint."""


class LinkId(NamedTuple):
    src: int
    dst: int


def _squarest_factors(n):
    """Factor n into W x H with W <= H and W as large as possible."""
    w = int(n**0.5)
    while n % w:
        w -= 1
    return w, n // w


class Topology:
    """Node/link graph plus the per-kind routing parameters.

    Nodes are integers. Endpoints are 0 .. n_endpoints-1; the crossbar's
    central router, when present, is node n_endpoints. `links` maps a
    LinkId to a dense link index usable for array-backed link state.
    """

    def __init__(self, kind, n_endpoints):
        if n_endpoints < 2:
            raise ConfigError("topology needs at least 2 endpoints, got %d" % n_endpoints)
        self.kind = kind
        self.n_endpoints = n_endpoints
        self.links = {}  # LinkId -> dense index

        if kind == "crossbar":
            self.router = n_endpoints
            for e in range(n_endpoints):
                self._add_link(e, self.router)
                self._add_link(self.router, e)
        elif kind == "torus2d":
            self.width, self.height = _squarest_factors(n_endpoints)
            if self.width < 2:
                raise ConfigError(
                    "torus2d needs n_endpoints to factor into a W x H grid "
                    "with W >= 2, got %d" % n_endpoints
                )
            for node in range(n_endpoints):
                x, y = node % self.width, node // self.width
                for nx, ny in (
                    ((x + 1) % self.width, y),
                    ((x - 1) % self.width, y),
                    (x, (y + 1) % self.height),
                    (x, (y - 1) % self.height),
                ):
                    # A 2-wide dimension folds +1/-1 onto the same neighbor;
                    # keep a single link per direction, not parallel pairs.
                    nbr = ny * self.width + nx
                    if nbr != node:
                        self._add_link(node, nbr)
        elif kind == "hypercube":
            if n_endpoints & (n_endpoints - 1):
                raise ConfigError(
                    "hypercube needs a power-of-two endpoint count, got %d" % n_endpoints
                )
            self.dimension = n_endpoints.bit_length() - 1
            for node in range(n_endpoints):
                for k in range(self.dimension):
                    self._add_link(node, node ^ (1 << k))
        else:
            raise ConfigError(
                "unknown topology kind %r (expected one of %s)" % (kind, ", ".join(TOPOLOGY_KINDS))
            )

        self.n_links = len(self.links)

    def _add_link(self, src, dst):
        lid = LinkId(src, dst)
        if lid not in self.links:
            self.links[lid] = len(self.links)

    def next_hop(self, at, dest):
        """Return the outgoing LinkId on the deterministic minimal route."""
        if at == dest:
            raise ValueError("next_hop called with at == dest (%d)" % at)
        if self.kind == "crossbar":
            nxt = self.router if at != self.router else dest
        elif self.kind == "torus2d":
            w, h = self.width, self.height
            x, y = at % w, at // w
            dx, dy = dest % w, dest // w
            if x != dx:
                fwd = (dx - x) % w
                nx = (x + 1) % w if fwd <= w - fwd else (x - 1) % w
                nxt = y * w + nx
            else:
                fwd = (dy - y) % h
                ny = (y + 1) % h if fwd <= h - fwd else (y - 1) % h
                nxt = ny * w + x
        else:
            bit = (at ^ dest) & -(at ^ dest)  # lowest differing bit
            nxt = at ^ bit
        link = LinkId(at, nxt)
        if link not in self.links:
            raise RuntimeError("routing produced nonexistent link %s" % (link,))
        return link

    def route(self, src, dest):
        """Full link path from src to dest, by repeated next_hop."""
        path = []
        at = src
        while at != dest:
            link = self.next_hop(at, dest)
            path.append(link)
            at = link.dst
        return path

    def __repr__(self):
        return "Topology(%s, %d endpoints, %d links)" % (self.kind, self.n_endpoints, self.n_links)


def build_topology(kind, n_endpoints):
    """Build the interconnect graph for `kind`; deterministic for equal inputs."""
    return Topology(kind, n_endpoints)
