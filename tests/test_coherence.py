"""Cache and directory transition tables, driven directly."""

import pytest

from camsim.coherence import (
    CacheController,
    DATA_DIR,
    DATA_OWNER,
    DIR_BUSY,
    DIR_E,
    DIR_I,
    DIR_O,
    DIR_S,
    DirectoryController,
    FWD_GETS,
    FWD_GETX,
    GETS,
    GETX,
    INV,
    INV_ACK,
    CLASS_OF,
    ProtocolError,
    PUTX,
    ST_E,
    ST_I,
    ST_IM,
    ST_IS,
    ST_M,
    ST_MI,
    ST_O,
    ST_OM,
    ST_S,
    ST_SM,
    UNBLOCK,
    WB_ACK,
    _Block,
    check_swmr,
    home_node,
)
from camsim.memhier import CacheGeometry
from camsim.network import Message


GEOM = CacheGeometry(64 * 16, 4, 64)
A = 0x40


def cache(node=1, n=4):
    return CacheController(node, GEOM, GEOM, n)


def directory(node=0, n=4):
    return DirectoryController(node, n)


def msg(mtype, src, dst, addr=A, **kw):
    return Message(mtype, CLASS_OF[mtype], kw.pop("crit", False), 8, src, dst,
                   addr, **kw)


def test_home_node_interleaving():
    assert home_node(0x40, 16) == 1
    assert home_node(0x0, 16) == 0
    assert home_node(0x1003F, 16) == home_node(0x10000, 16)


def test_load_miss_sends_gets_and_goes_is():
    c = cache()
    (tier, val), out = c.load(A, crit=True)
    assert tier == "miss" and val is None
    assert c.state_of(A) == ST_IS
    assert len(out) == 1 and out[0].mtype == GETS and out[0].crit
    assert out[0].dst == home_node(A, 4)


def test_store_on_exclusive_is_silent():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    assert c.state_of(A) == ST_E
    (tier, _), out = c.store(A, False, 9)
    assert tier in ("l1", "l2") and out == []
    assert c.state_of(A) == ST_M
    assert c.blocks[A].data == 9


def test_store_from_shared_upgrades_via_getx():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=False))
    assert c.state_of(A) == ST_S
    (tier, _), out = c.store(A, False, 8)
    assert tier == "miss"
    assert c.state_of(A) == ST_SM
    assert out[0].mtype == GETX


def test_owner_serves_fwd_gets_and_keeps_ownership():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    c.store(A, False, 11)                    # E -> M silently
    events, out = c.handle(msg(FWD_GETS, 0, 1, requester=3))
    assert c.state_of(A) == ST_O
    assert out[0].mtype == DATA_OWNER and out[0].dst == 3
    assert out[0].value == 11


def test_owner_yields_on_fwd_getx():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    events, out = c.handle(msg(FWD_GETX, 0, 1, requester=3, acks=2))
    assert c.state_of(A) == ST_I
    assert out[0].mtype == DATA_OWNER and out[0].dst == 3
    assert out[0].acks == 2                  # ack count relayed
    assert ("invalidated", A) in events


def test_sharer_invalidation_acks_requester():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=False))
    events, out = c.handle(msg(INV, 0, 1, requester=2))
    assert c.state_of(A) == ST_I
    assert out[0].mtype == INV_ACK and out[0].dst == 2
    assert ("invalidated", A) in events


def test_inv_during_own_upgrade_degrades_sm_to_im():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=False))
    c.store(A, False, 8)                    # SM
    c.handle(msg(INV, 0, 1, requester=2))
    assert c.state_of(A) == ST_IM


def test_completion_collects_data_then_acks():
    c = cache()
    c.store(A, False, 5)                     # I -> IM
    ev, out = c.handle(msg(DATA_DIR, 0, 1, value=0, acks=2, excl=True))
    assert c.state_of(A) == ST_IM            # still waiting for acks
    c.handle(msg(INV_ACK, 2, 1))
    ev, out = c.handle(msg(INV_ACK, 3, 1))
    assert c.state_of(A) == ST_M
    assert c.blocks[A].data == 5
    assert any(m.mtype == UNBLOCK for m in out)
    assert any(e[0] == "core_done" for e in ev)


def test_acks_may_arrive_before_data():
    c = cache()
    c.store(A, False, 5)
    c.handle(msg(INV_ACK, 2, 1))
    ev, out = c.handle(msg(DATA_DIR, 0, 1, value=0, acks=1, excl=True))
    assert c.state_of(A) == ST_M


def test_om_owner_serves_forward_then_completes_with_own_data():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    c.store(A, False, 20)                    # M
    c.handle(msg(FWD_GETS, 0, 1, requester=2))   # M -> O
    (tier, _), out = c.store(A, False, 21)
    assert tier == "miss" and c.state_of(A) == ST_OM
    # another core's GETX wins first: owner must hand over and fall to IM
    ev, out = c.handle(msg(FWD_GETX, 0, 1, requester=3, acks=0))
    assert c.state_of(A) == ST_IM
    assert out[0].value == 20                # pre-upgrade data handed over


def test_om_completes_keeping_own_dirty_data():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    c.store(A, False, 20)
    c.handle(msg(FWD_GETS, 0, 1, requester=2))
    c.store(A, False, 21)                    # OM
    ev, out = c.handle(msg(DATA_DIR, 0, 1, value=None, acks=1, excl=True))
    c.handle(msg(INV_ACK, 2, 1))
    assert c.state_of(A) == ST_M
    assert c.blocks[A].data == 21            # not clobbered by dir's stale copy


def test_eviction_writes_back_dirty_and_clean_exclusive():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    events, out = c.evict(A)
    assert c.state_of(A) == ST_MI
    assert out[0].mtype == PUTX and out[0].value == 7
    assert not out[0].crit                  # writebacks are never critical
    c.handle(msg(WB_ACK, 0, 1))
    assert c.state_of(A) == ST_I


def test_eviction_of_shared_is_silent():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=False))
    events, out = c.evict(A)
    assert out == []
    assert c.state_of(A) == ST_I


def test_request_during_writeback_stalls():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    c.evict(A)
    (tier, _), out = c.load(A, False)
    assert tier == "wb_pending" and out == []


def test_protocol_error_on_unexpected_event():
    c = cache()
    with pytest.raises(ProtocolError):
        c.handle(msg(DATA_DIR, 0, 1, value=1, acks=0))


# -- directory side ----------------------------------------------------------

def test_dir_invalid_gets_grants_exclusive_clean():
    d = directory()
    ev, out, mem = d.handle(msg(GETS, 1, 0, requester=1))
    assert mem                                # memory token read
    assert out[0].mtype == DATA_DIR and out[0].excl and out[0].acks == 0
    e = d.entry(A)
    assert e.state == DIR_BUSY
    d.handle(msg(UNBLOCK, 1, 0, requester=1))
    assert e.state == DIR_E and e.owner == 1


def test_dir_shared_getx_invalidate_sharers():
    d = directory()
    e = d.entry(A)
    e.state = DIR_S
    e.sharers = {2, 3}
    ev, out, mem = d.handle(msg(GETX, 1, 0, requester=1))
    kinds = sorted(m.mtype for m in out)
    assert kinds == sorted([DATA_DIR, INV, INV])
    data = [m for m in out if m.mtype == DATA_DIR][0]
    assert data.acks == 2
    invs = [m for m in out if m.mtype == INV]
    assert {m.dst for m in invs} == {2, 3}
    assert all(m.requester == 1 for m in invs)
    d.handle(msg(UNBLOCK, 1, 0, requester=1))
    assert e.state == DIR_E and e.owner == 1 and not e.sharers


def test_dir_busy_queues_requests_fifo():
    d = directory()
    d.handle(msg(GETS, 1, 0, requester=1))         # busy now
    ev, out, _ = d.handle(msg(GETS, 2, 0, requester=2))
    assert out == [] and ev[0][0] == "queued"
    ev, out, _ = d.handle(msg(GETX, 3, 0, requester=3))
    assert out == []
    e = d.entry(A)
    assert [m.requester for m in e.pending] == [2, 3]
    d.handle(msg(UNBLOCK, 1, 0, requester=1))
    nxt = d.pop_pending(A)
    assert nxt.requester == 2
    ev, out, _ = d.handle(nxt, from_queue=True)     # forwarded to owner 1
    assert out[0].mtype == FWD_GETS and out[0].dst == 1


def test_dir_owned_gets_forwards_to_owner():
    d = directory()
    e = d.entry(A)
    e.state = DIR_O
    e.owner = 2
    e.sharers = {3}
    ev, out, mem = d.handle(msg(GETS, 1, 0, requester=1))
    assert not mem                                  # cache-to-cache
    assert out[0].mtype == FWD_GETS and out[0].dst == 2
    d.handle(msg(UNBLOCK, 1, 0, requester=1))
    assert e.state == DIR_O and e.owner == 2 and e.sharers == {1, 3}


def test_dir_putx_from_owner_writes_memory():
    d = directory()
    e = d.entry(A)
    e.state = DIR_E
    e.owner = 1
    ev, out, _ = d.handle(msg(PUTX, 1, 0, requester=1, value=42))
    assert out[0].mtype == WB_ACK
    assert d.memory[A] == 42
    assert e.state == DIR_I and e.owner is None


def test_dir_stale_putx_acked_without_write():
    d = directory()
    e = d.entry(A)
    e.state = DIR_E
    e.owner = 2
    d.memory[A] = 1
    ev, out, _ = d.handle(msg(PUTX, 1, 0, requester=1, value=99))
    assert out[0].mtype == WB_ACK
    assert d.memory[A] == 1                        # unchanged
    assert e.owner == 2


def caches_in(*states):
    """Cache node i holds block A in states[i] (writeback buffer for MI)."""
    out = []
    for node, st in enumerate(states):
        c = cache(node)
        if st == ST_MI:
            c.wb[A] = _Block(st)
        elif st != ST_I:
            c.blocks[A] = _Block(st)
        out.append(c)
    return out


def test_swmr_checker():
    assert check_swmr(caches_in(ST_M, ST_I, ST_I), A) == []
    assert check_swmr(caches_in(ST_M, ST_S, ST_I), A) != []
    assert check_swmr(caches_in(ST_O, ST_S, ST_S), A) == []
    assert check_swmr(caches_in(ST_O, ST_O), A) != []
    assert check_swmr(caches_in(ST_E, ST_E), A) != []
    # transient states count as stable: a writeback buffer in MI still
    # holds the only valid copy
    assert check_swmr(caches_in(ST_MI, ST_S), A) != []
    assert check_swmr(caches_in(ST_SM, ST_S), A) == []   # SM is still a reader
    assert check_swmr(caches_in(ST_IM, ST_S), A) == []   # IM holds no data yet


def test_crit_propagates_through_directory():
    d = directory()
    e = d.entry(A)
    e.state = DIR_E
    e.owner = 2
    ev, out, _ = d.handle(msg(GETS, 1, 0, requester=1, crit=True))
    assert out[0].mtype == FWD_GETS and out[0].crit


def test_crit_forwards_can_be_disabled():
    d = DirectoryController(0, 4, crit_forwards=False)
    e = d.entry(A)
    e.state = DIR_E
    e.owner = 2
    ev, out, _ = d.handle(msg(GETS, 1, 0, requester=1, crit=True))
    assert out[0].mtype == FWD_GETS and not out[0].crit
