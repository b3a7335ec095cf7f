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
    ProtocolError,
    PUTX,
    READABLE,
    STATE_NAMES,
    ST_E,
    ST_I,
    ST_II,
    ST_IM,
    ST_IS,
    ST_M,
    ST_MI,
    ST_O,
    ST_OI,
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
    return Message(mtype, src, dst, addr, kw.pop("crit", False), **kw)


def block_record_problems(cache):
    """Where `cache` breaks a fact that one record per block rests on: a
    block under writeback is in neither array and has no transaction, and
    a block has a transaction exactly when it is in IS/IM/SM/OM. The L2
    fill pins only the blocks in `txns` on the strength of these."""
    problems = []
    for addr, blk in cache.blocks.items():
        if blk.state in (ST_MI, ST_OI, ST_II) and (
                cache.l1.contains(addr) or cache.l2.contains(addr)):
            problems.append("%#x in writeback but in an array" % addr)
        if (addr in cache.txns) != (blk.state in (ST_IS, ST_IM, ST_SM, ST_OM)):
            problems.append("%#x in %s with txn %r" % (
                addr, STATE_NAMES[blk.state], cache.txns.get(addr)))
    problems.extend("txn for %#x, which is at I" % addr
                    for addr in cache.txns.keys() - cache.blocks.keys())
    return problems


def test_home_node_interleaving():
    assert home_node(0x40, 16, 64) == 1
    assert home_node(0x0, 16, 64) == 0
    assert home_node(0x1003F, 16, 64) == home_node(0x10000, 16, 64)


def test_load_miss_sends_gets_and_goes_is():
    c = cache()
    (tier, val), out = c.load(A, crit=True)
    assert tier == "miss" and val is None
    assert c.state_of(A) == ST_IS
    assert len(out) == 1 and out[0].mtype == GETS and out[0].crit
    assert out[0].dst == home_node(A, 4, 64)


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
    out, done = c.handle(msg(FWD_GETS, 0, 1, requester=3))
    assert c.state_of(A) == ST_O and done is None
    assert out[0].mtype == DATA_OWNER and out[0].dst == 3
    assert out[0].value == 11


def test_owner_yields_on_fwd_getx():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    out, _ = c.handle(msg(FWD_GETX, 0, 1, requester=3, acks=2))
    assert c.state_of(A) == ST_I
    assert out[0].mtype == DATA_OWNER and out[0].dst == 3
    assert out[0].acks == 2                  # ack count relayed
    assert c.state_of(A) not in READABLE     # the block left


def test_sharer_invalidation_acks_requester():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=False))
    out, _ = c.handle(msg(INV, 0, 1, requester=2))
    assert c.state_of(A) == ST_I
    assert out[0].mtype == INV_ACK and out[0].dst == 2
    assert c.state_of(A) not in READABLE     # the block left


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
    out, done = c.handle(msg(DATA_DIR, 0, 1, value=0, acks=2, excl=True))
    assert c.state_of(A) == ST_IM            # still waiting for acks
    assert done is None
    c.handle(msg(INV_ACK, 2, 1))
    out, done = c.handle(msg(INV_ACK, 3, 1))
    assert c.state_of(A) == ST_M
    assert c.blocks[A].data == 5
    assert any(m.mtype == UNBLOCK for m in out)
    assert done == (A, None)                 # a store returns no value


def test_acks_may_arrive_before_data():
    c = cache()
    c.store(A, False, 5)
    c.handle(msg(INV_ACK, 2, 1))
    _, done = c.handle(msg(DATA_DIR, 0, 1, value=0, acks=1, excl=True))
    assert c.state_of(A) == ST_M and done == (A, None)


def test_om_owner_serves_forward_then_completes_with_own_data():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    c.store(A, False, 20)                    # M
    c.handle(msg(FWD_GETS, 0, 1, requester=2))   # M -> O
    (tier, _), out = c.store(A, False, 21)
    assert tier == "miss" and c.state_of(A) == ST_OM
    # another core's GETX wins first: owner must hand over and fall to IM
    out, _ = c.handle(msg(FWD_GETX, 0, 1, requester=3, acks=0))
    assert c.state_of(A) == ST_IM
    assert out[0].value == 20                # pre-upgrade data handed over


def test_om_completes_keeping_own_dirty_data():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    c.store(A, False, 20)
    c.handle(msg(FWD_GETS, 0, 1, requester=2))
    c.store(A, False, 21)                    # OM
    c.handle(msg(DATA_DIR, 0, 1, value=None, acks=1, excl=True))
    c.handle(msg(INV_ACK, 2, 1))
    assert c.state_of(A) == ST_M
    assert c.blocks[A].data == 21            # not clobbered by dir's stale copy


def test_eviction_writes_back_dirty_and_clean_exclusive():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=True))
    out = c.evict(A)
    assert c.state_of(A) == ST_MI
    assert out[0].mtype == PUTX and out[0].value == 7
    assert not out[0].crit                  # writebacks are never critical
    c.handle(msg(WB_ACK, 0, 1))
    assert c.state_of(A) == ST_I


def test_eviction_of_shared_is_silent():
    c = cache()
    c.load(A, False)
    c.handle(msg(DATA_DIR, 0, 1, value=7, acks=0, excl=False))
    out = c.evict(A)
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
    with pytest.raises(ProtocolError) as err:
        c.handle(msg(DATA_DIR, 0, 1, value=1, acks=0))
    assert (err.value.state_name, err.value.detail) == ("I",
                                                        "unexpected Data_Dir")


def _getx_with_one_ack_pending(c):
    c.store(A, False, 1)
    c.handle(msg(DATA_DIR, 0, 1, value=0, acks=1, excl=True))


# Events no transition covers: {id: (controller, setup, event, state name,
# detail)}. Each must raise a ProtocolError naming the state it met.
_UNCOVERED = {
    "second_request": (cache, lambda c: c.load(A, False),
                       lambda c: c.store(A, False, 1), "IS",
                       "second outstanding request for the block"),
    "evict_in_flight": (cache, lambda c: c.load(A, False),
                        lambda c: c.evict(A), "IS",
                        "eviction while a transaction is in flight"),
    "cache_got_request": (cache, None,
                          lambda c: c.handle(msg(GETS, 0, 1, requester=0)),
                          "I", "cache got GETS"),
    "data_twice": (cache, _getx_with_one_ack_pending,
                   lambda c: c.handle(msg(DATA_OWNER, 2, 1, value=0)),
                   "IM", "unexpected Data_Owner"),
    "inv_ack_no_txn": (cache, None,
                       lambda c: c.handle(msg(INV_ACK, 2, 1)), "I",
                       "InvAck with no transaction"),
    "wb_ack_no_writeback": (cache, lambda c: c.load(A, False),
                            lambda c: c.handle(msg(WB_ACK, 0, 1)), "IS",
                            "WB_Ack with no writeback pending"),
    "dir_got_response": (directory, None,
                         lambda d: d.handle(msg(DATA_DIR, 1, 0)),
                         "Invalid", "directory got Data_Dir"),
    "unmatched_unblock": (directory, None,
                          lambda d: d.handle(msg(UNBLOCK, 1, 0, requester=1)),
                          "Invalid",
                          "Unblock from 1 without a matching transaction"),
}


@pytest.mark.parametrize("case", sorted(_UNCOVERED))
def test_uncovered_events_raise_protocol_errors(case):
    make, setup, event, state_name, detail = _UNCOVERED[case]
    ctl = make()
    if setup is not None:
        setup(ctl)
    with pytest.raises(ProtocolError) as err:
        event(ctl)
    assert err.value.addr == A
    assert (err.value.state_name, err.value.detail) == (state_name, detail)


# Resident states whose block sits in the L1 and L2 arrays; IS and IM have
# a block record but no data yet, and MI/OI/II keep their block record, with
# its data, outside the arrays until the WB_Ack.
_IN_ARRAYS = (ST_S, ST_E, ST_O, ST_M, ST_SM, ST_OM)
_IN_WB = (ST_MI, ST_OI, ST_II)

# {message type: {cache state: next state}}, written out from the protocol
# spec; a state missing from a row must raise ProtocolError with the
# row's _REJECTED detail.
_FORWARD_TABLE = {
    FWD_GETS: {ST_M: ST_O, ST_E: ST_O, ST_O: ST_O, ST_OM: ST_OM,
               ST_MI: ST_OI, ST_OI: ST_OI},
    FWD_GETX: {ST_M: ST_I, ST_E: ST_I, ST_O: ST_I, ST_OM: ST_IM,
               ST_MI: ST_II, ST_OI: ST_II},
    # an INV at a block under writeback is a stale ack for an earlier S copy
    INV: {ST_S: ST_I, ST_SM: ST_IM, ST_IS: ST_IS, ST_IM: ST_IM, ST_I: ST_I,
          ST_MI: ST_MI, ST_OI: ST_OI, ST_II: ST_II},
}
_REJECTED = {FWD_GETS: "Fwd_GETS but not owner",
             FWD_GETX: "Fwd_GETX but not owner",
             INV: "INV at an ownership state"}


def cache_in(state, value=7):
    """Cache node 1 holding block A in `state`, with L1/L2 residency as the
    protocol leaves it there, and a recorded trace."""
    c = cache()
    if state != ST_I:
        c.blocks[A] = _Block(state, value)
        if state in _IN_ARRAYS:
            c.l2.install(A)
            c.l1.install(A)
    c.trace = lambda *event: c.traced.append(event)
    c.traced = []
    return c


@pytest.mark.parametrize("mtype", sorted(_FORWARD_TABLE))
@pytest.mark.parametrize("state", range(len(STATE_NAMES)),
                         ids=STATE_NAMES)
def test_forward_and_inv_transition_table(mtype, state):
    c = cache_in(state)
    m = msg(mtype, 0, 1, requester=3, acks=2 if mtype == FWD_GETX else 0,
            crit=True)
    nxt = _FORWARD_TABLE[mtype].get(state)
    if nxt is None:
        with pytest.raises(ProtocolError) as err:
            c.handle(m)
        assert err.value.state_name == STATE_NAMES[state]
        assert err.value.detail == _REJECTED[mtype]
        assert c.state_of(A) == state and c.traced == []
        return
    out, done = c.handle(m)
    assert done is None and c.state_of(A) == nxt
    [reply] = out
    assert reply.dst == 3 and reply.crit
    if mtype == INV:
        assert reply.mtype == INV_ACK
        assert reply.acks == 0 and reply.value is None
        event = "inv" if nxt != state else "inv_stale"
    else:
        assert reply.mtype == DATA_OWNER
        assert reply.acks == m.acks and reply.value == 7
        event = "fwd_gets" if mtype == FWD_GETS else "fwd_getx"
    if event == "inv_stale":
        # traced at I for a block under writeback, else at its state
        old = new = ST_I if state in _IN_WB else state
    else:
        old, new = state, nxt
    assert c.traced == [(1, event, A, STATE_NAMES[old], STATE_NAMES[new],
                         True)]
    # the arrays keep the block only while it stays readable in place
    resident = nxt in _IN_ARRAYS and state in _IN_ARRAYS
    assert c.l1.contains(A) == resident and c.l2.contains(A) == resident
    # every state but I keeps the block record, writebacks included
    assert (A in c.blocks) == (nxt != ST_I)
    if nxt in _IN_WB:
        assert c.blocks[A].data == 7


# -- test-and-set --------------------------------------------------------------


@pytest.mark.parametrize("state", [ST_M, ST_E], ids=["M", "E"])
def test_rmw_hit_on_zero_sets_the_word(state):
    c = cache_in(state, value=0)
    (tier, old), out = c.rmw(A, True)
    assert tier in ("l1", "l2") and old == 0 and out == []
    assert c.state_of(A) == ST_M and c.blocks[A].data == 1
    upgrade = [(1, "rmw_upgrade", A, "E", "M", True)]
    assert c.traced == (upgrade if state == ST_E else [])


@pytest.mark.parametrize("state", [ST_M, ST_E], ids=["M", "E"])
def test_rmw_hit_on_nonzero_writes_nothing(state):
    c = cache_in(state, value=5)
    (tier, old), out = c.rmw(A, True)
    assert tier in ("l1", "l2") and old == 5 and out == []
    assert c.state_of(A) == state and c.blocks[A].data == 5
    assert c.traced == []


@pytest.mark.parametrize("old", [0, 5])
@pytest.mark.parametrize("state,pending", [(ST_I, ST_IM), (ST_S, ST_SM),
                                           (ST_O, ST_OM)],
                         ids=["I", "S", "O"])
def test_rmw_miss_completes_through_data_dir(state, pending, old):
    c = cache_in(state, value=old)
    (tier, val), out = c.rmw(A, True)
    assert tier == "miss" and val is None
    [getx] = out
    assert getx.mtype == GETX and getx.crit and getx.requester == 1
    assert c.state_of(A) == pending
    # an owner upgrading from O gets no data: it keeps its own
    value = None if state == ST_O else old
    out, done = c.handle(msg(DATA_DIR, 0, 1, value=value, acks=0, excl=True,
                             crit=True))
    assert done == (A, old)
    assert c.state_of(A) == ST_M and c.blocks[A].data == (old or 1)
    [unblock] = out
    assert unblock.mtype == UNBLOCK and unblock.crit
    assert unblock.requester == 1 and A not in c.txns


@pytest.mark.parametrize("state", _IN_WB, ids=["MI", "OI", "II"])
def test_rmw_during_writeback_stalls(state):
    c = cache_in(state)
    assert c.rmw(A, True) == (("wb_pending", None), [])
    assert c.state_of(A) == state and c.blocks[A].data == 7
    assert c.txns == {} and c.traced == []


# -- directory side ----------------------------------------------------------

def test_dir_invalid_gets_grants_exclusive_clean():
    d = directory()
    out, mem, replay = d.handle(msg(GETS, 1, 0, requester=1))
    assert mem                                # memory token read
    assert replay is None
    assert out[0].mtype == DATA_DIR and out[0].excl and out[0].acks == 0
    e = d.entry(A)
    assert e.state == DIR_BUSY
    d.handle(msg(UNBLOCK, 1, 0, requester=1))
    assert e.state == DIR_E and e.owner == 1


def test_dir_shared_getx_invalidate_sharers():
    d = directory()
    e = d.entry(A)
    e.state = DIR_S
    e.sharers = frozenset({2, 3})
    out, mem, _ = d.handle(msg(GETX, 1, 0, requester=1))
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
    e = d.entry(A)
    out, _, replay = d.handle(msg(GETS, 2, 0, requester=2))
    assert out == [] and replay is None and len(e.pending) == 1
    out, _, _ = d.handle(msg(GETX, 3, 0, requester=3))
    assert out == []
    assert [m.requester for m in e.pending] == [2, 3]
    out, _, nxt = d.handle(msg(UNBLOCK, 1, 0, requester=1))
    assert out == [] and nxt.requester == 2
    assert [m.requester for m in e.pending] == [2, 3]  # queued until replayed
    out, _, replay = d.handle(nxt, from_queue=True)   # forwarded to owner 1
    assert out[0].mtype == FWD_GETS and out[0].dst == 1
    assert replay is None                          # Busy again
    assert [m.requester for m in e.pending] == [3]


def test_dir_unblock_hands_back_a_queued_putx():
    d = directory()
    d.handle(msg(GETX, 2, 0, requester=2))         # busy now
    e = d.entry(A)
    putx = msg(PUTX, 1, 0, requester=1, value=5)   # stale: 1 is not owner
    out, _, replay = d.handle(putx)
    assert out == [] and replay is None and list(e.pending) == [putx]
    out, _, replay = d.handle(msg(UNBLOCK, 2, 0, requester=2))
    assert replay is putx and list(e.pending) == [putx]
    out, _, replay = d.handle(putx, from_queue=True)
    assert [m.mtype for m in out] == [WB_ACK]
    assert replay is None and not e.pending


def test_dir_putx_served_from_queue_hands_back_the_next():
    d = directory()
    e = d.entry(A)
    e.state = DIR_E
    e.owner = 1
    d.handle(msg(GETS, 2, 0, requester=2))         # forward to owner 1
    d.handle(msg(PUTX, 1, 0, requester=1, value=5))
    d.handle(msg(GETX, 3, 0, requester=3))
    assert [m.mtype for m in e.pending] == [PUTX, GETX]
    _, _, putx = d.handle(msg(UNBLOCK, 2, 0, requester=2))
    assert putx.mtype == PUTX
    assert [m.mtype for m in e.pending] == [PUTX, GETX]
    out, mem, nxt = d.handle(putx, from_queue=True)
    # 1 still owned the block (the forward left it in O): memory is written
    assert [m.mtype for m in out] == [WB_ACK] and not mem
    assert d.memory[A] == 5 and e.state == DIR_S and e.sharers == {2}
    assert nxt.mtype == GETX and nxt.requester == 3
    assert list(e.pending) == [nxt]
    out, _, replay = d.handle(nxt, from_queue=True)
    assert e.state == DIR_BUSY and replay is None and not e.pending


def test_dir_request_before_a_replay_queues_behind_the_head():
    d = directory()
    d.handle(msg(GETS, 1, 0, requester=1))         # busy now
    e = d.entry(A)
    d.handle(msg(GETX, 2, 0, requester=2))
    _, _, nxt = d.handle(msg(UNBLOCK, 1, 0, requester=1))
    assert nxt.requester == 2 and e.state == DIR_E
    # before the replay lands, a newcomer finds the entry idle, but the
    # queue is strict FIFO: it waits behind the head
    out, mem, replay = d.handle(msg(GETS, 3, 0, requester=3))
    assert out == [] and not mem and replay is None
    assert e.state == DIR_E
    assert [m.requester for m in e.pending] == [2, 3]
    out, _, replay = d.handle(nxt, from_queue=True)
    assert out[0].mtype == FWD_GETX and out[0].dst == 1 and replay is None
    assert [m.requester for m in e.pending] == [3]
    _, _, replay = d.handle(msg(UNBLOCK, 2, 0, requester=2))
    assert replay.mtype == GETS and replay.requester == 3


def test_dir_replay_must_be_the_head_of_an_idle_entry():
    d = directory()
    d.handle(msg(GETS, 1, 0, requester=1))         # busy now
    e = d.entry(A)
    d.handle(msg(GETX, 2, 0, requester=2))
    d.handle(msg(GETX, 3, 0, requester=3))
    # the entry is still Busy, and the second request is not the head
    for queued in list(e.pending):
        with pytest.raises(ProtocolError, match="replayed GETX is not the "
                                                "head of an idle entry's"):
            d.handle(queued, from_queue=True)
    assert [m.requester for m in e.pending] == [2, 3]
    d.handle(msg(UNBLOCK, 1, 0, requester=1))
    with pytest.raises(ProtocolError, match="not the head"):
        d.handle(e.pending[1], from_queue=True)
    assert [m.requester for m in e.pending] == [2, 3]


def test_dir_owned_gets_forwards_to_owner():
    d = directory()
    e = d.entry(A)
    e.state = DIR_O
    e.owner = 2
    e.sharers = frozenset({3})
    out, mem, _ = d.handle(msg(GETS, 1, 0, requester=1))
    assert not mem                                  # cache-to-cache
    assert out[0].mtype == FWD_GETS and out[0].dst == 2
    d.handle(msg(UNBLOCK, 1, 0, requester=1))
    assert e.state == DIR_O and e.owner == 2 and e.sharers == {1, 3}


def test_dir_putx_from_owner_writes_memory():
    d = directory()
    e = d.entry(A)
    e.state = DIR_E
    e.owner = 1
    out, _, replay = d.handle(msg(PUTX, 1, 0, requester=1, value=42))
    assert out[0].mtype == WB_ACK and replay is None
    assert d.memory[A] == 42
    assert e.state == DIR_I and e.owner is None


def test_dir_stale_putx_acked_without_write():
    d = directory()
    e = d.entry(A)
    e.state = DIR_E
    e.owner = 2
    d.memory[A] = 1
    out, _, _ = d.handle(msg(PUTX, 1, 0, requester=1, value=99))
    assert out[0].mtype == WB_ACK
    assert d.memory[A] == 1                        # unchanged
    assert e.owner == 2


def caches_in(*states):
    """Cache node i holds block A in states[i]."""
    out = []
    for node, st in enumerate(states):
        c = cache(node)
        if st != ST_I:
            c.blocks[A] = _Block(st)
        out.append(c)
    return out


def test_swmr_checker():
    assert check_swmr(caches_in(ST_M, ST_I, ST_I), A) == []
    assert check_swmr(caches_in(ST_M, ST_S, ST_I), A) != []
    assert check_swmr(caches_in(ST_O, ST_S, ST_S), A) == []
    assert check_swmr(caches_in(ST_O, ST_O), A) != []
    assert check_swmr(caches_in(ST_E, ST_E), A) != []
    # transient states count as stable: a block under writeback in MI still
    # holds the only valid copy
    assert check_swmr(caches_in(ST_MI, ST_S), A) != []
    assert check_swmr(caches_in(ST_SM, ST_S), A) == []   # SM is still a reader
    assert check_swmr(caches_in(ST_IM, ST_S), A) == []   # IM holds no data yet


def test_crit_propagates_through_directory():
    d = directory()
    e = d.entry(A)
    e.state = DIR_E
    e.owner = 2
    out, _, _ = d.handle(msg(GETS, 1, 0, requester=1, crit=True))
    assert out[0].mtype == FWD_GETS and out[0].crit
