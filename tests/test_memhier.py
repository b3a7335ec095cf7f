"""Cache geometry arithmetic, lookup and LRU replacement."""

import pytest

from camsim.memhier import CacheArray, CacheGeometry
from camsim.topology import ConfigError


L1 = CacheGeometry(256 * 1024, 4, 64)
L2 = CacheGeometry(16 * 1024 * 1024, 4, 64)


def test_baseline_geometry_set_counts():
    assert L1.n_sets == 1024
    assert L2.n_sets == 65536


def test_geometry_rejects_non_power_of_two():
    with pytest.raises(ConfigError):
        CacheGeometry(300 * 1024, 4, 64)
    with pytest.raises(ConfigError):
        CacheGeometry(256 * 1024, 3, 64)
    with pytest.raises(ConfigError):
        CacheGeometry(64, 4, 64)  # capacity < assoc * block


def test_address_mapping_example():
    # addr 0x12345 with 1024 sets: offset 0x05, set 0x08D, tag 0x1
    c = CacheArray(L1)
    c.install(0x12345)
    assert c.sets == {0x08D: [0x1]}
    assert c.contains(0x12340)                 # same block, offset dropped
    assert c.block_addr(0x1, 0x08D) == 0x12340


def test_address_zero_and_same_block():
    c = CacheArray(L1)
    c.install(0)
    assert c.sets == {0: [0]}
    c.install(0x1000)
    assert c.contains(0x1001)
    with pytest.raises(ValueError):
        c.install(0x1001)                      # 0x1000's block is resident


def small():
    return CacheArray(CacheGeometry(4 * 64, 4, 64))  # one set, 4 ways


def test_lookup_miss_then_hit():
    c = small()
    assert not c.lookup(0x80)
    c.install(0x80)
    assert c.lookup(0x80)


def test_lru_eviction_order():
    c = small()
    geom = c.geometry
    addrs = [i * geom.block_bytes * geom.n_sets for i in range(5)]
    for a in addrs[:4]:
        c.install(a)
    # the set is full; oldest untouched is addrs[0]
    assert all(c.contains(a) for a in addrs[:4])
    victim = c.install(addrs[4])
    assert victim == addrs[0]
    assert not c.contains(addrs[0])


def test_lru_touch_changes_victim():
    c = small()
    a = [i * 64 for i in range(5)]  # one set (n_sets == 1)
    for x in a[:4]:
        c.install(x)
    c.lookup(a[0])                  # re-touch: a[1] becomes LRU
    victim = c.install(a[4])
    assert victim == a[1]


def test_install_into_free_way_evicts_nothing():
    c = small()
    assert c.install(0) is None
    assert [c.install(i * 64) for i in range(1, 4)] == [None, None, None]
    assert c.contains(0)


def test_install_respects_exclusions():
    c = small()
    a = [i * 64 for i in range(5)]
    for x in a[:4]:
        c.install(x)
    victim = c.install(a[4], exclude={a[0], a[1]})
    assert victim == a[2]


def test_occupancy_never_exceeds_associativity():
    c = CacheArray(CacheGeometry(8 * 64, 2, 64))  # 4 sets, 2 ways
    for i in range(64):
        addr = i * 64
        if not c.contains(addr):
            c.install(addr)
    assert c.audit() == []
    for ways in c.sets.values():
        assert len(ways) <= 2
