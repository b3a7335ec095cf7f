"""MOESI blocking-directory protocol controllers.

Both controllers are untimed state machines: `handle` consumes one
delivered message and returns `(events, outgoing_messages)`. The timed
simulator wraps calls with latencies; the exhaustive model checker drives
the same code directly with arbitrary delivery orders.

Protocol shape: a per-block home directory serializes transactions with a
Busy state and a strict-FIFO pending queue. Requesters close each
transaction with an explicit UNBLOCK once they hold data and all
invalidation acks, which releases the directory for the next queued
request. A GETS against an idle (Invalid) directory entry is granted
exclusive-clean, so a first reader lands in E.

Criticality: every message of a transaction carries the crit bit of the
core request that started it (forwards and invalidations inherit it when
`crit_forwards` is set). Replacement writebacks are never critical.

`check_swmr` is the one single-writer/multiple-reader check: the timed
simulator runs it whenever a directory transaction closes or a writeback
reaches the directory, and the model checker at every quiescent state.
"""

from __future__ import annotations

from collections import deque

from .memhier import CacheArray
from .network import (
    FORWARD,
    Message,
    REQUEST,
    RESPONSE,
)

# Protocol message types.
GETS, GETX, PUTX, FWD_GETS, FWD_GETX, INV, DATA_DIR, DATA_OWNER, INV_ACK, \
    WB_ACK, UNBLOCK = range(11)

MSG_NAMES = ("GETS", "GETX", "PUTX", "Fwd_GETS", "Fwd_GETX", "INV",
             "Data_Dir", "Data_Owner", "InvAck", "WB_Ack", "Unblock")

CLASS_OF = {
    GETS: REQUEST, GETX: REQUEST, PUTX: REQUEST,
    FWD_GETS: FORWARD, FWD_GETX: FORWARD, INV: FORWARD,
    DATA_DIR: RESPONSE, DATA_OWNER: RESPONSE, INV_ACK: RESPONSE,
    WB_ACK: RESPONSE, UNBLOCK: RESPONSE,
}

# Message types whose payload includes the 64 B block.
DATA_BEARING = frozenset((PUTX, DATA_DIR, DATA_OWNER))

# Types handled by a directory (rest go to a cache controller).
DIR_BOUND = frozenset((GETS, GETX, PUTX, UNBLOCK))

# Cache block states.
ST_I, ST_S, ST_E, ST_O, ST_M, ST_IS, ST_IM, ST_SM, ST_OM, ST_MI, ST_OI, \
    ST_II = range(12)

STATE_NAMES = ("I", "S", "E", "O", "M", "IS", "IM", "SM", "OM", "MI", "OI", "II")

READABLE = frozenset((ST_S, ST_E, ST_O, ST_M))
WRITABLE = frozenset((ST_E, ST_M))
OWNERSHIP = frozenset((ST_M, ST_E, ST_O))

# Directory entry states.
DIR_I, DIR_S, DIR_E, DIR_O, DIR_BUSY = range(5)
DIR_NAMES = ("Invalid", "Shared", "Exclusive", "Owned", "Busy")


class ProtocolError(AssertionError):
    """An event arrived in a state the transition tables do not cover."""

    def __init__(self, node, addr, state_name, detail):
        self.node = node
        self.addr = addr
        self.state_name = state_name
        self.detail = detail
        super().__init__("node %s addr %#x state %s: %s"
                         % (node, addr, state_name, detail))


def home_node(addr, n_nodes, block_bytes=64):
    """Block-interleaved home: (addr >> log2(block)) mod n_nodes."""
    return (addr // block_bytes) % n_nodes


# Transient states count as the stable state whose data-holding obligations
# they retain: writeback buffers still own the only valid copy, and SM
# still holds a readable copy until invalidated.
_EFFECTIVE_STATE = {
    ST_I: ST_I, ST_S: ST_S, ST_E: ST_E, ST_O: ST_O, ST_M: ST_M,
    ST_IS: ST_I, ST_IM: ST_I, ST_SM: ST_S, ST_OM: ST_O,
    ST_MI: ST_M, ST_OI: ST_O, ST_II: ST_I,
}


def check_swmr(caches, addr):
    """Single-writer/multiple-reader check over one block.

    Reads each cache controller's state for `addr` (resident block, else
    writeback buffer) through `_EFFECTIVE_STATE`. Returns a list of
    violation strings (empty when the invariant holds).
    """
    holders = []        # (node, effective state) of every valid copy
    for cache in caches:
        blk = cache.blocks.get(addr)
        if blk is None:
            blk = cache.wb.get(addr)
            if blk is None:
                continue
        st = _EFFECTIVE_STATE[blk.state]
        if st != ST_I:
            holders.append((cache.node, st))
    if len(holders) < 2:
        return []
    writers = [n for n, st in holders if st == ST_M or st == ST_E]
    valid = [n for n, _ in holders]
    owners = [n for n, st in holders if st == ST_O]
    problems = []
    if len(writers) > 1:
        problems.append("multiple M/E holders: %s" % writers)
    if writers and len(valid) > 1:
        problems.append("M/E holder %s coexists with %s" % (writers[0], valid))
    if len(owners) > 1:
        problems.append("multiple O holders: %s" % owners)
    return problems


class _Block:
    __slots__ = ("state", "data")

    def __init__(self, state=ST_I, data=0):
        self.state = state
        self.data = data

    def __deepcopy__(self, memo):
        twin = _Block.__new__(_Block)
        twin.state = self.state
        twin.data = self.data
        return twin


class _Txn:
    """In-flight request bookkeeping (one per blocked core, at most)."""

    __slots__ = ("kind", "crit", "from_state", "store_value", "rmw",
                 "waiting_data", "acks_needed", "acks_got", "data", "excl",
                 "txn_id")

    def __init__(self, kind, crit, from_state, txn_id,
                 store_value=None, rmw=False):
        self.kind = kind                # 'gets' | 'getx'
        self.crit = crit
        self.from_state = from_state
        self.store_value = store_value
        self.rmw = rmw
        self.waiting_data = True
        self.acks_needed = -1           # unknown until data arrives
        self.acks_got = 0
        self.data = None
        self.excl = False
        self.txn_id = txn_id

    def __deepcopy__(self, memo):
        # every field is an int, bool, str, None or a tuple of those
        twin = _Txn.__new__(_Txn)
        twin.kind = self.kind
        twin.crit = self.crit
        twin.from_state = self.from_state
        twin.store_value = self.store_value
        twin.rmw = self.rmw
        twin.waiting_data = self.waiting_data
        twin.acks_needed = self.acks_needed
        twin.acks_got = self.acks_got
        twin.data = self.data
        twin.excl = self.excl
        twin.txn_id = self.txn_id
        return twin


class CacheController:
    """Per-node L1/L2 cache with the MOESI cache-side transition table.

    The L2 is the coherence point; the L1 is an inclusive filter whose
    entries are dropped whenever the L2 loses permissions. Only L2 misses
    (or upgrades) start network transactions.
    """

    def __init__(self, node, l1_geom, l2_geom, n_nodes,
                 crit_forwards=True, trace=None):
        self.node = node
        self.n_nodes = n_nodes
        self.l1 = CacheArray(l1_geom)
        self.l2 = CacheArray(l2_geom)
        self.blocks = {}     # resident block addr -> _Block
        self.wb = {}         # evicted-but-unacked addr -> _Block (MI/OI/II)
        self.txns = {}       # addr -> _Txn
        self.crit_forwards = crit_forwards
        self.trace = trace
        self._txn_serial = 0
        self._block_bytes = l2_geom.block_bytes

    def __deepcopy__(self, memo):
        """Structural copy for the model checker; `trace` is shared."""
        twin = CacheController.__new__(CacheController)
        twin.node = self.node
        twin.n_nodes = self.n_nodes
        twin.l1 = self.l1.__deepcopy__(memo)
        twin.l2 = self.l2.__deepcopy__(memo)
        twin.blocks = {a: b.__deepcopy__(memo) for a, b in self.blocks.items()}
        twin.wb = {a: b.__deepcopy__(memo) for a, b in self.wb.items()}
        twin.txns = {a: t.__deepcopy__(memo) for a, t in self.txns.items()}
        twin.crit_forwards = self.crit_forwards
        twin.trace = self.trace
        twin._txn_serial = self._txn_serial
        twin._block_bytes = self._block_bytes
        return twin

    # -- helpers -------------------------------------------------------------

    def state_of(self, addr):
        blk = self.blocks.get(addr)
        if blk is not None:
            return blk.state
        blk = self.wb.get(addr)
        if blk is not None:
            return blk.state
        return ST_I

    def _trace(self, event, addr, old, new, crit=False):
        if self.trace is not None:
            self.trace(self.node, event, addr, STATE_NAMES[old],
                       STATE_NAMES[new], crit)

    def _msg(self, mtype, dst, addr, crit, **kw):
        # size placeholder; Simulator._send applies the configured bytes
        return Message(mtype, CLASS_OF[mtype], crit, 0, self.node, dst,
                       addr, **kw)

    def _home(self, addr):
        return home_node(addr, self.n_nodes, self._block_bytes)

    # -- core-side operations --------------------------------------------------

    def load(self, addr, crit):
        """Returns ((tier, value), msgs).

        tier: 'l1' / 'l2' hit, 'miss' (transaction started), or
        'wb_pending' (the block is mid-writeback; retry after WB_Ack --
        a writeback-buffer conflict stalls the request).
        """
        if addr in self.wb:
            return ("wb_pending", None), []
        blk = self.blocks.get(addr)
        if blk is not None and blk.state in READABLE:
            if self.l1.lookup(addr):
                self.l2.lookup(addr)
                return ("l1", blk.data), []
            self.l2.lookup(addr)
            msgs = self._fill_l1(addr)
            return ("l2", blk.data), msgs
        return ("miss", None), self._begin(addr, "gets", crit)

    def store(self, addr, crit, value):
        if addr in self.wb:
            return ("wb_pending", None), []
        blk = self.blocks.get(addr)
        if blk is not None and blk.state in WRITABLE:
            if blk.state == ST_E:
                self._trace("store_upgrade", addr, ST_E, ST_M, crit)
                blk.state = ST_M
            blk.data = value
            if self.l1.lookup(addr):
                self.l2.lookup(addr)
                return ("l1", None), []
            self.l2.lookup(addr)
            return ("l2", None), self._fill_l1(addr)
        return ("miss", None), self._begin(addr, "getx", crit,
                                            store_value=value)

    def rmw(self, addr, crit):
        """Atomic test-and-set: returns the old value, writes 1 if it was 0."""
        if addr in self.wb:
            return ("wb_pending", None), []
        blk = self.blocks.get(addr)
        if blk is not None and blk.state in WRITABLE:
            old = blk.data
            if old == 0:
                if blk.state == ST_E:
                    blk.state = ST_M
                blk.data = 1
            tier = "l1" if self.l1.lookup(addr) else "l2"
            self.l2.lookup(addr)
            msgs = [] if tier == "l1" else self._fill_l1(addr)
            return (tier, old), msgs
        return ("miss", None), self._begin(addr, "getx", crit, rmw=True)

    def _begin(self, addr, kind, crit, store_value=None, rmw=False):
        if addr in self.txns:
            raise ProtocolError(self.node, addr,
                                STATE_NAMES[self.state_of(addr)],
                                "second outstanding request for the block")
        blk = self.blocks.get(addr)
        old = blk.state if blk is not None else ST_I
        if kind == "gets":
            new = ST_IS
        elif old == ST_S:
            new = ST_SM
        elif old == ST_O:
            new = ST_OM
        else:
            new = ST_IM
        if blk is None:
            blk = _Block(new)
            self.blocks[addr] = blk
        else:
            blk.state = new
        self._txn_serial += 1
        txn_id = (self.node, addr, self._txn_serial)
        self.txns[addr] = _Txn(kind, crit, old, txn_id,
                               store_value=store_value, rmw=rmw)
        self._trace("issue_" + kind, addr, old, new, crit)
        mtype = GETS if kind == "gets" else GETX
        return [self._msg(mtype, self._home(addr), addr, crit,
                          requester=self.node, txn=txn_id)]

    # -- replacement -----------------------------------------------------------

    def evict(self, addr):
        """Replace `addr` (forced). Dirty/exclusive blocks write back."""
        blk = self.blocks.get(addr)
        if blk is None:
            return [], []
        if addr in self.txns:
            raise ProtocolError(self.node, addr, STATE_NAMES[blk.state],
                                "eviction while a transaction is in flight")
        self.l1.remove(addr)
        self.l2.remove(addr)
        del self.blocks[addr]
        events = [("invalidated", addr)]
        old = blk.state
        if old in (ST_M, ST_E):
            new = ST_MI
        elif old == ST_O:
            new = ST_OI
        elif old == ST_S:
            self._trace("evict_silent", addr, old, ST_I)
            return events, []
        else:
            raise ProtocolError(self.node, addr, STATE_NAMES[old],
                                "eviction from a transient state")
        blk.state = new
        self.wb[addr] = blk
        self._trace("evict_putx", addr, old, new)
        msg = self._msg(PUTX, self._home(addr), addr, False,
                        requester=self.node, value=blk.data,
                        txn=(self.node, addr, "wb"))
        return events, [msg]

    def _fill_l1(self, addr):
        if not self.l1.contains(addr):
            self.l1.install(addr)  # L1 victims drop silently (L2 keeps data)
        return []

    def _install_l2(self, addr):
        """Make addr L2-resident; may force a victim writeback."""
        msgs = []
        events = []
        if not self.l2.contains(addr):
            exclude = set(self.txns) | set(self.wb) | {addr}
            victim = self.l2.install(addr, exclude=exclude)
            if victim is not None:
                ev, m = self.evict(victim)
                # evict() removed the victim's l2 entry; ours stays.
                events.extend(ev)
                msgs.extend(m)
        self._fill_l1(addr)
        return events, msgs

    # -- message handling --------------------------------------------------------

    def handle(self, msg):
        """Apply one delivered message; returns (events, outgoing msgs)."""
        mt = msg.mtype
        if mt == DATA_DIR or mt == DATA_OWNER:
            return self._on_data(msg)
        if mt == FWD_GETS:
            return self._on_fwd_gets(msg)
        if mt == FWD_GETX:
            return self._on_fwd_getx(msg)
        if mt == INV:
            return self._on_inv(msg)
        if mt == INV_ACK:
            return self._on_inv_ack(msg)
        if mt == WB_ACK:
            return self._on_wb_ack(msg)
        raise ProtocolError(self.node, msg.addr,
                            STATE_NAMES[self.state_of(msg.addr)],
                            "cache got %s" % MSG_NAMES[mt])

    def _fwd_crit(self, msg):
        return msg.crit if self.crit_forwards else False

    def _on_fwd_gets(self, msg):
        addr = msg.addr
        crit = self._fwd_crit(msg)
        blk = self.blocks.get(addr)
        if blk is not None and blk.state in (ST_M, ST_E, ST_O, ST_OM):
            # An OM owner still holds the valid copy: serve the reader and
            # keep waiting for its own upgrade.
            old = blk.state
            blk.state = ST_OM if old == ST_OM else ST_O
            self._trace("fwd_gets", addr, old, blk.state, crit)
            return [], [self._msg(DATA_OWNER, msg.requester, addr, crit,
                                  value=blk.data, acks=0, txn=msg.txn)]
        blk = self.wb.get(addr)
        if blk is not None and blk.state in (ST_MI, ST_OI):
            old = blk.state
            blk.state = ST_OI
            self._trace("fwd_gets", addr, old, ST_OI, crit)
            return [], [self._msg(DATA_OWNER, msg.requester, addr, crit,
                                  value=blk.data, acks=0, txn=msg.txn)]
        raise ProtocolError(self.node, addr,
                            STATE_NAMES[self.state_of(addr)],
                            "Fwd_GETS but not owner")

    def _on_fwd_getx(self, msg):
        addr = msg.addr
        crit = self._fwd_crit(msg)
        blk = self.blocks.get(addr)
        if blk is not None and blk.state in (ST_M, ST_E, ST_O, ST_OM):
            old = blk.state
            data = blk.data
            self.l1.remove(addr)
            self.l2.remove(addr)
            if old == ST_OM:
                # Lost the upgrade race: hand over the data, fall back to
                # IM and wait for our own queued GETX to be served.
                blk.state = ST_IM
            else:
                del self.blocks[addr]
            self._trace("fwd_getx", addr, old,
                        ST_IM if old == ST_OM else ST_I, crit)
            reply = self._msg(DATA_OWNER, msg.requester, addr, crit,
                              value=data, acks=msg.acks, txn=msg.txn)
            return [("invalidated", addr)], [reply]
        blk = self.wb.get(addr)
        if blk is not None and blk.state in (ST_MI, ST_OI):
            old = blk.state
            blk.state = ST_II
            self._trace("fwd_getx", addr, old, ST_II, crit)
            reply = self._msg(DATA_OWNER, msg.requester, addr, crit,
                              value=blk.data, acks=msg.acks, txn=msg.txn)
            return [], [reply]
        raise ProtocolError(self.node, addr,
                            STATE_NAMES[self.state_of(addr)],
                            "Fwd_GETX but not owner")

    def _on_inv(self, msg):
        addr = msg.addr
        crit = self._fwd_crit(msg)
        blk = self.blocks.get(addr)
        state = blk.state if blk is not None else ST_I
        events = []
        if state == ST_S:
            self.l1.remove(addr)
            self.l2.remove(addr)
            del self.blocks[addr]
            self._trace("inv", addr, ST_S, ST_I, crit)
            events.append(("invalidated", addr))
        elif state == ST_SM:
            blk.state = ST_IM
            self.l1.remove(addr)
            self.l2.remove(addr)
            self._trace("inv", addr, ST_SM, ST_IM, crit)
            events.append(("invalidated", addr))
        elif state in (ST_IS, ST_IM, ST_I):
            # Request still queued at the directory, or a silently dropped
            # copy: acknowledge and stand by.
            self._trace("inv_stale", addr, state, state, crit)
        else:
            raise ProtocolError(self.node, addr, STATE_NAMES[state],
                                "INV at an ownership state")
        ack = self._msg(INV_ACK, msg.requester, addr, crit, txn=msg.txn)
        return events, [ack]

    def _on_data(self, msg):
        addr = msg.addr
        txn = self.txns.get(addr)
        if txn is None or not txn.waiting_data:
            raise ProtocolError(self.node, addr,
                                STATE_NAMES[self.state_of(addr)],
                                "unexpected %s" % MSG_NAMES[msg.mtype])
        txn.waiting_data = False
        txn.data = msg.value
        txn.acks_needed = msg.acks
        if msg.mtype == DATA_DIR:
            txn.excl = msg.excl
        return self._maybe_complete(addr)

    def _on_inv_ack(self, msg):
        txn = self.txns.get(msg.addr)
        if txn is None:
            raise ProtocolError(self.node, msg.addr,
                                STATE_NAMES[self.state_of(msg.addr)],
                                "InvAck with no transaction")
        txn.acks_got += 1
        return self._maybe_complete(msg.addr)

    def _on_wb_ack(self, msg):
        blk = self.wb.pop(msg.addr, None)
        if blk is None or blk.state not in (ST_MI, ST_OI, ST_II):
            raise ProtocolError(self.node, msg.addr,
                                STATE_NAMES[self.state_of(msg.addr)],
                                "WB_Ack with no writeback pending")
        self._trace("wb_done", msg.addr, blk.state, ST_I)
        return [("wb_done", msg.addr)], []

    def _maybe_complete(self, addr):
        txn = self.txns[addr]
        if txn.waiting_data or txn.acks_got != txn.acks_needed:
            return [], []
        del self.txns[addr]
        blk = self.blocks[addr]
        old = blk.state
        result = None
        if txn.kind == "gets":
            blk.state = ST_E if txn.excl else ST_S
            blk.data = txn.data
            result = txn.data
        else:
            blk.state = ST_M
            if txn.from_state != ST_OM and old != ST_OM:
                blk.data = txn.data
            if txn.rmw:
                result = blk.data
                if blk.data == 0:
                    blk.data = 1
            else:
                blk.data = txn.store_value
        self._trace("complete_" + txn.kind, addr, old, blk.state, txn.crit)
        events, msgs = self._install_l2(addr)
        events.append(("core_done", addr, txn.kind, result, txn.rmw))
        msgs.append(self._msg(UNBLOCK, self._home(addr), addr, txn.crit,
                              requester=self.node, txn=txn.txn_id))
        return events, msgs

    # -- audits ---------------------------------------------------------------

    def audit_inclusion(self):
        """Every L1-resident block must be L2-resident in a valid state."""
        problems = []
        for addr in self.l1.resident_blocks():
            blk = self.blocks.get(addr)
            if blk is None or blk.state not in READABLE:
                problems.append("node %d: L1 holds %#x without L2 permission"
                                % (self.node, addr))
            if not self.l2.contains(addr):
                problems.append("node %d: L1 holds %#x not in L2"
                                % (self.node, addr))
        problems.extend("node %d l1: %s" % (self.node, p) for p in self.l1.audit())
        problems.extend("node %d l2: %s" % (self.node, p) for p in self.l2.audit())
        return problems


class _DirEntry:
    __slots__ = ("state", "owner", "sharers", "busy", "pending")

    def __init__(self):
        self.state = DIR_I
        self.owner = None
        self.sharers = set()
        self.busy = None       # (requester, final_state, final_owner, final_sharers)
        self.pending = deque()

    def __deepcopy__(self, memo):
        twin = _DirEntry.__new__(_DirEntry)
        twin.state = self.state
        twin.owner = self.owner
        twin.sharers = set(self.sharers)
        busy = self.busy
        twin.busy = busy if busy is None else busy[:3] + (set(busy[3]),)
        twin.pending = deque(m.__deepcopy__(memo) for m in self.pending)
        return twin


class DirectoryController:
    """Home-node directory slice with a blocking per-block transaction queue."""

    def __init__(self, node, n_nodes, crit_forwards=True, trace=None):
        self.node = node
        self.n_nodes = n_nodes
        self.memory = {}  # block addr -> data token (sparse, default 0)
        self.entries = {}
        self.crit_forwards = crit_forwards
        self.trace = trace

    def __deepcopy__(self, memo):
        """Structural copy for the model checker; `trace` is shared."""
        twin = DirectoryController.__new__(DirectoryController)
        twin.node = self.node
        twin.n_nodes = self.n_nodes
        twin.memory = dict(self.memory)
        twin.entries = {a: e.__deepcopy__(memo)
                        for a, e in self.entries.items()}
        twin.crit_forwards = self.crit_forwards
        twin.trace = self.trace
        return twin

    def entry(self, addr):
        e = self.entries.get(addr)
        if e is None:
            e = _DirEntry()
            self.entries[addr] = e
        return e

    def _trace(self, event, addr, old, new, crit=False):
        if self.trace is not None:
            self.trace(self.node, event, addr, DIR_NAMES[old], DIR_NAMES[new],
                       crit)

    def _msg(self, mtype, dst, addr, crit, **kw):
        return Message(mtype, CLASS_OF[mtype], crit, 0, self.node, dst, addr,
                       **kw)

    def handle(self, msg, from_queue=False):
        """Returns (events, outgoing msgs, used_memory).

        `from_queue` marks a request replayed from the pending queue: it
        is the queue head, so a non-empty queue must not defer it again
        (only a Busy entry re-parks it, at the front).
        """
        mt = msg.mtype
        addr = msg.addr
        e = self.entry(addr)
        if mt == UNBLOCK:
            return self._on_unblock(e, msg)
        if mt in (GETS, GETX, PUTX):
            if e.state == DIR_BUSY or (e.pending and not from_queue):
                if from_queue:
                    e.pending.appendleft(msg)
                else:
                    e.pending.append(msg)
                self._trace("queue_" + MSG_NAMES[mt], addr, e.state, e.state,
                            msg.crit)
                return [("queued", addr)], [], False
            if mt == GETS:
                return self._on_gets(e, msg)
            if mt == GETX:
                return self._on_getx(e, msg)
            return self._on_putx(e, msg)
        raise ProtocolError(self.node, addr, DIR_NAMES[e.state],
                            "directory got %s" % MSG_NAMES[mt])

    def _fwd_crit(self, msg):
        return msg.crit if self.crit_forwards else False

    def _on_gets(self, e, msg):
        addr, req = msg.addr, msg.requester
        old = e.state
        if old == DIR_I:
            data = self.memory.get(addr, 0)
            reply = self._msg(DATA_DIR, req, addr, msg.crit, value=data,
                              acks=0, excl=True, txn=msg.txn)
            e.busy = (req, DIR_E, req, set())
            e.state = DIR_BUSY
            self._trace("gets", addr, old, DIR_BUSY, msg.crit)
            return [], [reply], True
        if old == DIR_S:
            data = self.memory.get(addr, 0)
            reply = self._msg(DATA_DIR, req, addr, msg.crit, value=data,
                              acks=0, excl=False, txn=msg.txn)
            e.busy = (req, DIR_S, None, e.sharers | {req})
            e.state = DIR_BUSY
            self._trace("gets", addr, old, DIR_BUSY, msg.crit)
            return [], [reply], True
        if old in (DIR_E, DIR_O):
            crit = self._fwd_crit(msg)
            fwd = self._msg(FWD_GETS, e.owner, addr, crit, requester=req,
                            txn=msg.txn)
            e.busy = (req, DIR_O, e.owner, e.sharers | {req})
            e.state = DIR_BUSY
            self._trace("gets", addr, old, DIR_BUSY, msg.crit)
            return [], [fwd], False
        raise ProtocolError(self.node, addr, DIR_NAMES[old], "GETS mishandled")

    def _on_getx(self, e, msg):
        addr, req = msg.addr, msg.requester
        old = e.state
        crit = self._fwd_crit(msg)
        # Invalidations go out in ring order starting after the requester.
        # Together with paced fan-out (see the harness) this wakes
        # contending spinners round-robin; a fixed node-index order would
        # permanently favor some nodes and starve the rest.
        invs = sorted(e.sharers - {req},
                      key=lambda s: (s - req - 1) % self.n_nodes)
        out = []
        used_mem = False
        if old == DIR_I:
            out.append(self._msg(DATA_DIR, req, addr, msg.crit,
                                 value=self.memory.get(addr, 0), acks=0,
                                 excl=True, txn=msg.txn))
            used_mem = True
        elif old == DIR_S:
            out.append(self._msg(DATA_DIR, req, addr, msg.crit,
                                 value=self.memory.get(addr, 0),
                                 acks=len(invs), excl=True, txn=msg.txn))
            used_mem = True
        elif old in (DIR_E, DIR_O):
            if e.owner == req:
                # Upgrade by the owner itself: no data transfer needed.
                out.append(self._msg(DATA_DIR, req, addr, msg.crit,
                                     value=None, acks=len(invs), excl=True,
                                     txn=msg.txn))
            else:
                out.append(self._msg(FWD_GETX, e.owner, addr, crit,
                                     requester=req, acks=len(invs),
                                     txn=msg.txn))
        else:
            raise ProtocolError(self.node, addr, DIR_NAMES[old],
                                "GETX mishandled")
        out.extend(self._msg(INV, s, addr, crit, requester=req, txn=msg.txn)
                   for s in invs)
        e.busy = (req, DIR_E, req, set())
        e.state = DIR_BUSY
        self._trace("getx", addr, old, DIR_BUSY, msg.crit)
        return [], out, used_mem

    def _on_putx(self, e, msg):
        addr, src = msg.addr, msg.src
        old = e.state
        ack = self._msg(WB_ACK, src, addr, msg.crit, txn=msg.txn)
        if src == e.owner and old in (DIR_E, DIR_O):
            self.memory[addr] = msg.value
            e.owner = None
            if e.sharers:
                e.state = DIR_S
            else:
                e.state = DIR_I
            self._trace("putx", addr, old, e.state, msg.crit)
        else:
            # Late writeback from a replaced owner: ownership already moved
            # on, so the data is stale. Ack without touching memory.
            self._trace("putx_stale", addr, old, old, msg.crit)
        return [], [ack], False

    def _on_unblock(self, e, msg):
        addr = msg.addr
        if e.state != DIR_BUSY or e.busy is None or e.busy[0] != msg.requester:
            raise ProtocolError(self.node, addr, DIR_NAMES[e.state],
                                "Unblock from %s without a matching "
                                "transaction" % msg.requester)
        _, final_state, final_owner, final_sharers = e.busy
        e.state = final_state
        e.owner = final_owner
        e.sharers = set(final_sharers)
        e.busy = None
        self._trace("unblock", addr, DIR_BUSY, final_state, msg.crit)
        return [("unblocked", addr)], [], False

    def pop_pending(self, addr):
        """Next queued request once the entry is idle again, else None."""
        e = self.entries.get(addr)
        if e is None or e.state == DIR_BUSY or not e.pending:
            return None
        return e.pending.popleft()
