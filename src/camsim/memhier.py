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
    """Per-set MRU-ordered lists of resident block addresses (front = most
    recent).

    A set's list is created on its first install and deleted when its last
    block leaves. An address is aligned only when it is unaligned, so an
    aligned one is stored as the very object the caller passed.
    """

    def __init__(self, geometry):
        self.geometry = geometry
        self.sets = {}  # set index -> [block address, ...]
        self._block_bytes = geometry.block_bytes
        self._n_sets = geometry.n_sets

    def _find(self, addr):
        """(block address, set index, the set's list or None) of addr."""
        bb = self._block_bytes
        if addr % bb:
            addr -= addr % bb
        idx = addr // bb % self._n_sets
        return addr, idx, self.sets.get(idx)

    def lookup(self, addr):
        """True on hit; a hit promotes the entry to MRU."""
        addr, _, ways = self._find(addr)
        if ways and addr in ways:
            if ways[0] != addr:
                ways.remove(addr)
                ways.insert(0, addr)
            return True
        return False

    def contains(self, addr):
        addr, _, ways = self._find(addr)
        return ways is not None and addr in ways

    def install(self, addr, exclude=()):
        """Insert addr at MRU; returns the evicted block address or None.

        `exclude` lists block addresses that must not be victimized
        (blocks with an in-flight transaction); the least recent
        non-excluded way is chosen instead.
        """
        addr, idx, ways = self._find(addr)
        if ways is None:
            self.sets[idx] = [addr]
            return None
        if addr in ways:
            raise ValueError("install of already-resident block %#x" % addr)
        victim = None
        if len(ways) >= self.geometry.associativity:
            for cand in reversed(ways):
                if cand not in exclude:
                    victim = cand
                    break
            if victim is None:
                raise RuntimeError("no evictable way in set %d" % idx)
            ways.remove(victim)
        ways.insert(0, addr)
        return victim

    def remove(self, addr):
        addr, idx, ways = self._find(addr)
        if ways is None or addr not in ways:
            return False
        if len(ways) == 1:
            del self.sets[idx]
        else:
            ways.remove(addr)
        return True
