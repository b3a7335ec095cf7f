"""Cache array geometry, lookup and LRU replacement.

Arrays track residency and recency only; coherence state and data tokens
live with the cache controller. Sets are materialized lazily since the
baseline L2 (16 MB, 4-way, 64 B blocks) has 65536 sets of which a
workload touches a handful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import ConfigError


def _is_pow2(n):
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    capacity_bytes: int
    associativity: int
    block_bytes: int

    def __post_init__(self):
        for name in ("capacity_bytes", "associativity", "block_bytes"):
            v = getattr(self, name)
            if not _is_pow2(v):
                raise ConfigError("%s must be a power of two, got %d" % (name, v))
        if self.n_sets < 1:
            raise ConfigError(
                "capacity %d < associativity %d x block %d"
                % (self.capacity_bytes, self.associativity, self.block_bytes))

    @property
    def n_sets(self):
        return self.capacity_bytes // (self.associativity * self.block_bytes)


class CacheArray:
    """Per-set MRU-ordered tag lists (front = most recent)."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.sets = {}  # set index -> [tag, ...]
        self._block_bytes = geometry.block_bytes
        self._n_sets = geometry.n_sets

    def _split(self, addr):
        block = addr // self._block_bytes
        return block // self._n_sets, block % self._n_sets

    def block_addr(self, tag, set_idx):
        return (tag * self._n_sets + set_idx) * self._block_bytes

    def lookup(self, addr):
        """True on hit; a hit promotes the entry to MRU."""
        block = addr // self._block_bytes
        ways = self.sets.get(block % self._n_sets)
        if ways:
            tag = block // self._n_sets
            if tag in ways:
                if ways[0] != tag:
                    ways.remove(tag)
                    ways.insert(0, tag)
                return True
        return False

    def contains(self, addr):
        block = addr // self._block_bytes
        ways = self.sets.get(block % self._n_sets)
        return bool(ways) and block // self._n_sets in ways

    def install(self, addr, exclude=()):
        """Insert addr at MRU; returns the evicted block address or None.

        `exclude` lists block addresses that must not be victimized
        (blocks with an in-flight transaction); the least recent
        non-excluded way is chosen instead.
        """
        tag, idx = self._split(addr)
        ways = self.sets.setdefault(idx, [])
        if tag in ways:
            raise ValueError("install of already-resident block %#x" % addr)
        victim = None
        if len(ways) >= self.geometry.associativity:
            for cand in reversed(ways):
                if self.block_addr(cand, idx) not in exclude:
                    victim = cand
                    break
            if victim is None:
                raise RuntimeError("no evictable way in set %d" % idx)
            ways.remove(victim)
            victim = self.block_addr(victim, idx)
        ways.insert(0, tag)
        return victim

    def remove(self, addr):
        tag, idx = self._split(addr)
        ways = self.sets.get(idx)
        if ways and tag in ways:
            ways.remove(tag)
            return True
        return False
