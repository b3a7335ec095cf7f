"""MOESI blocking-directory protocol controllers.

Both controllers are untimed state machines driven one delivered message
at a time. `CacheController.handle` returns `(outgoing_messages, done)`,
where `done` is `(addr, result)` when the core's request finished, else
None; `evict` returns only messages. `DirectoryController.handle` returns
`(outgoing_messages, used_memory, replay)`. The timed simulator wraps
calls with latencies; the exhaustive model checker drives the same code
directly with arbitrary delivery orders.

Protocol shape: a per-block home directory serializes transactions with a
Busy state and a strict-FIFO pending queue. Requesters close each
transaction with an explicit UNBLOCK once they hold data and all
invalidation acks, which releases the directory for the next queued
request. A GETS against an idle (Invalid) directory entry is granted
exclusive-clean, so a first reader lands in E.

The directory owns its pending queue: when an UNBLOCK, or a PUTX served
from the queue, leaves the entry idle with requests still waiting, `handle`
returns the queue head as `replay` and leaves it queued. The driver hands
it back with `from_queue=True`, at once (model checker) or after the
directory latency (simulator), and only then is it taken off the queue.
Until that replay, every new request queues behind the head, so the queue
stays strict FIFO and a delayed replay is served exactly as an immediate
one.

Directory entries are compact, because a run creates one for every block
ever requested. Sharer sets are immutable frozensets (every empty one is
`_NO_SHARERS`), so an unblock installs the Busy state's final sharers as
they are. The pending queue is created only when a request first has to
wait.

A transaction is identified by (requester, block): requests, forwards,
invalidations and UNBLOCKs name the requester, and every other message is
a reply addressed to it. No two open transactions share that pair,
because a core has one outstanding request, a block under writeback
stalls new requests, and every message of a transaction is sent before
its UNBLOCK or WB_Ack.

Criticality: every message of a transaction carries the crit bit of the
core request that started it; forwards and invalidations always inherit
it. Replacement writebacks are never critical.

`check_swmr` is the one single-writer/multiple-reader check: the timed
simulator runs it whenever a directory transaction closes or a writeback
reaches the directory, and the model checker at every quiescent state.
`block_value` is the one reading of a block's authoritative value.
"""

from __future__ import annotations

from .memhier import CacheArray
from .network import Message

# Protocol message types.
GETS, GETX, PUTX, FWD_GETS, FWD_GETX, INV, DATA_DIR, DATA_OWNER, INV_ACK, \
    WB_ACK, UNBLOCK = range(11)

MSG_NAMES = ("GETS", "GETX", "PUTX", "Fwd_GETS", "Fwd_GETX", "INV",
             "Data_Dir", "Data_Owner", "InvAck", "WB_Ack", "Unblock")

# Message classes. A class and a crit bit make a virtual network; the
# model checker keys its in-flight channels by it.
REQUEST, FORWARD, RESPONSE = 0, 1, 2

CLASS_OF = {
    GETS: REQUEST, GETX: REQUEST, PUTX: REQUEST,
    FWD_GETS: FORWARD, FWD_GETX: FORWARD, INV: FORWARD,
    DATA_DIR: RESPONSE, DATA_OWNER: RESPONSE, INV_ACK: RESPONSE,
    WB_ACK: RESPONSE, UNBLOCK: RESPONSE,
}


def vnet_of(msg_class, crit):
    """Map (class, crit) to a virtual network id: 0-2 normal, 3-5 critical."""
    return msg_class + 3 if crit else msg_class


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
# A replaced M/E/O block waits for its WB_Ack in these. It is in neither the
# L1 nor the L2 array, and no transaction is open for it.
WRITEBACK = frozenset((ST_MI, ST_OI, ST_II))

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


def home_node(addr, n_nodes, block_bytes):
    """Block-interleaved home: (addr >> log2(block)) mod n_nodes."""
    return (addr // block_bytes) % n_nodes


def block_value(caches, memory, addr):
    """Authoritative value of a block: the copy in an owner cache, else
    the home directory's `memory`."""
    for cache in caches:
        blk = cache.blocks.get(addr)
        if blk is not None and blk.state in OWNERSHIP:
            return blk.data
    return memory.get(addr, 0)


# Transient states count as the stable state whose data-holding obligations
# they retain: a block under writeback (MI/OI) still owns the only valid
# copy, and SM still holds a readable copy until invalidated.
_EFFECTIVE_STATE = {
    ST_I: ST_I, ST_S: ST_S, ST_E: ST_E, ST_O: ST_O, ST_M: ST_M,
    ST_IS: ST_I, ST_IM: ST_I, ST_SM: ST_S, ST_OM: ST_O,
    ST_MI: ST_M, ST_OI: ST_O, ST_II: ST_I,
}


def check_swmr(caches, addr):
    """Single-writer/multiple-reader check over one block.

    Reads each cache controller's block state for `addr`, writeback
    states included, through `_EFFECTIVE_STATE`. Returns a list of
    violation strings (empty when the invariant holds).
    """
    # (node, effective state) of every valid copy
    holders = [(c.node, st) for c in caches if addr in c.blocks
               and (st := _EFFECTIVE_STATE[c.blocks[addr].state]) != ST_I]
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


# Owner replies to a forwarded request: {Fwd type: {owner state: next}}.
# A block under writeback (MI/OI) still owns its data and answers with it;
# after Fwd_GETX it waits for its WB_Ack in II. An OM owner still holds the
# valid copy: it serves a reader and keeps waiting for its own upgrade, and
# on Fwd_GETX it has lost the upgrade race, so it hands over the data and
# falls back to IM to wait for its own queued GETX.
_FWD_NEXT = {
    FWD_GETS: {ST_M: ST_O, ST_E: ST_O, ST_O: ST_O, ST_OM: ST_OM,
               ST_MI: ST_OI, ST_OI: ST_OI},
    FWD_GETX: {ST_M: ST_I, ST_E: ST_I, ST_O: ST_I, ST_OM: ST_IM,
               ST_MI: ST_II, ST_OI: ST_II},
}

# INV by block state. A sharer drops its copy, an SM upgrader falls back
# to IM. IS and IM (the request is still queued at the directory) and I (a
# silently dropped copy) acknowledge and stand by. The directory
# invalidates only sharers, so an INV at a block under writeback is for an
# earlier, silently dropped S copy: it is acknowledged as at I, and the
# writeback goes on.
_INV_NEXT = {ST_S: ST_I, ST_SM: ST_IM, ST_IS: ST_IS, ST_IM: ST_IM, ST_I: ST_I}


class _Block:
    __slots__ = ("state", "data")

    def __init__(self, state=ST_I, data=0):
        self.state = state
        self.data = data


class _Txn:
    """In-flight request bookkeeping (one per blocked core, at most)."""

    __slots__ = ("kind", "crit", "from_state", "store_value", "rmw",
                 "acks_needed", "acks_got", "data", "excl")

    def __init__(self, kind, crit, from_state, store_value=None, rmw=False):
        self.kind = kind                # 'gets' | 'getx'
        self.crit = crit
        self.from_state = from_state
        self.store_value = store_value
        self.rmw = rmw
        self.acks_needed = -1           # unknown until data arrives
        self.acks_got = 0
        self.data = None
        self.excl = False


class CacheController:
    """Per-node L1/L2 cache with the MOESI cache-side transition table.

    The L2 is the coherence point; the L1 is an inclusive filter whose
    entries are dropped whenever the L2 loses permissions. Only L2 misses
    (or upgrades) start network transactions.
    """

    def __init__(self, node, l1_geom, l2_geom, n_nodes):
        self.node = node
        self.n_nodes = n_nodes
        self.l1 = CacheArray(l1_geom)
        self.l2 = CacheArray(l2_geom)
        self.blocks = {}     # addr -> _Block, for every state but I
        self.txns = {}       # addr -> _Txn, for the blocks in IS/IM/SM/OM
        self.trace = None
        self._block_bytes = l2_geom.block_bytes

    # -- helpers -------------------------------------------------------------

    def state_of(self, addr):
        blk = self.blocks.get(addr)
        return ST_I if blk is None else blk.state

    def holds(self, addr):
        """True while this cache holds a readable copy of `addr` or a
        writeback of it."""
        blk = self.blocks.get(addr)
        return blk is not None and (blk.state in READABLE
                                    or blk.state in WRITEBACK)

    def _trace(self, event, addr, old, new, crit=False):
        if self.trace is not None:
            self.trace(self.node, event, addr, STATE_NAMES[old],
                       STATE_NAMES[new], crit)

    def _fail(self, addr, detail):
        """The ProtocolError for an event `addr`'s state does not allow."""
        return ProtocolError(self.node, addr,
                             STATE_NAMES[self.state_of(addr)], detail)

    def _home(self, addr):
        return home_node(addr, self.n_nodes, self._block_bytes)

    # -- core-side operations --------------------------------------------------

    def load(self, addr, crit):
        """Returns ((tier, value), msgs).

        tier: 'l1' / 'l2' hit, 'miss' (transaction started), or
        'wb_pending' (the block is mid-writeback; retry after WB_Ack).
        """
        blk = self.blocks.get(addr)
        if blk is not None and blk.state in READABLE:
            return (self._hit(addr), blk.data), []
        return self._miss(addr, blk, "gets", crit)

    def store(self, addr, crit, value):
        blk = self.blocks.get(addr)
        if blk is not None and blk.state in WRITABLE:
            if blk.state == ST_E:
                self._trace("store_upgrade", addr, ST_E, ST_M, crit)
                blk.state = ST_M
            blk.data = value
            return (self._hit(addr), None), []
        return self._miss(addr, blk, "getx", crit, store_value=value)

    def rmw(self, addr, crit):
        """Atomic test-and-set: returns the old value, writes 1 if it was 0."""
        blk = self.blocks.get(addr)
        if blk is not None and blk.state in WRITABLE:
            old = blk.data
            if old == 0:
                if blk.state == ST_E:
                    self._trace("rmw_upgrade", addr, ST_E, ST_M, crit)
                    blk.state = ST_M
                blk.data = 1
            return (self._hit(addr), old), []
        return self._miss(addr, blk, "getx", crit, rmw=True)

    def _hit(self, addr):
        """Touch a resident block's L1 and L2 LRU; returns the hit tier."""
        if self.l1.lookup(addr):
            self.l2.lookup(addr)
            return "l1"
        self.l2.lookup(addr)
        self._fill_l1(addr)
        return "l2"

    def _miss(self, addr, blk, kind, crit, store_value=None, rmw=False):
        """Serve a request that missed on `blk` (the block of `addr`, or
        None): stall it while the block is mid-writeback, else start a
        transaction. Returns ((tier, None), msgs) as `load` does."""
        old = blk.state if blk is not None else ST_I
        if old in WRITEBACK:
            return ("wb_pending", None), []
        if addr in self.txns:
            raise self._fail(addr, "second outstanding request for the block")
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
        self.txns[addr] = _Txn(kind, crit, old, store_value=store_value,
                               rmw=rmw)
        self._trace("issue_" + kind, addr, old, new, crit)
        mtype = GETS if kind == "gets" else GETX
        return ("miss", None), [Message(mtype, self.node, self._home(addr),
                                        addr, crit, requester=self.node)]

    # -- replacement -----------------------------------------------------------

    def evict(self, addr):
        """Replace `addr` (forced). Dirty/exclusive blocks write back: they
        stay in `blocks` at MI/OI, outside the arrays, until WB_Ack."""
        blk = self.blocks.get(addr)
        if blk is None or blk.state in WRITEBACK:
            return []
        if addr in self.txns:
            raise self._fail(addr, "eviction while a transaction is in flight")
        self.l1.remove(addr)
        self.l2.remove(addr)
        old = blk.state     # S, E, O or M: the other states have a txn
        if old == ST_S:
            del self.blocks[addr]
            self._trace("evict_silent", addr, old, ST_I)
            return []
        new = blk.state = ST_OI if old == ST_O else ST_MI
        self._trace("evict_putx", addr, old, new)
        return [Message(PUTX, self.node, self._home(addr), addr, False,
                        requester=self.node, value=blk.data)]

    def _fill_l1(self, addr):
        if not self.l1.contains(addr):
            self.l1.install(addr)  # L1 victims drop silently (L2 keeps data)

    def _install_l2(self, addr):
        """Make addr L2-resident; may force a victim writeback."""
        msgs = []
        if not self.l2.contains(addr):
            # a block under writeback is in no array, and `addr` is not
            # yet in the L2, so only blocks with a transaction need pinning
            victim = self.l2.install(addr, exclude=self.txns)
            if victim is not None:
                # evict() removed the victim's l2 entry; ours stays.
                msgs = self.evict(victim)
        self._fill_l1(addr)
        return msgs

    # -- message handling --------------------------------------------------------

    def handle(self, msg):
        """Apply one delivered message; returns (outgoing msgs, done)."""
        mt = msg.mtype
        if mt == DATA_DIR or mt == DATA_OWNER:
            return self._on_data(msg)
        if mt == FWD_GETS or mt == FWD_GETX:
            return self._on_fwd(msg)
        if mt == INV:
            return self._on_inv(msg)
        if mt == INV_ACK:
            return self._on_inv_ack(msg)
        if mt == WB_ACK:
            return self._on_wb_ack(msg)
        raise self._fail(msg.addr, "cache got %s" % MSG_NAMES[mt])

    def _on_fwd(self, msg):
        addr = msg.addr
        mt = msg.mtype
        blk = self.blocks.get(addr)
        old = blk.state if blk is not None else ST_I
        new = _FWD_NEXT[mt].get(old)
        if new is None:
            raise self._fail(addr, "%s but not owner" % MSG_NAMES[mt])
        self._move(addr, blk, new)
        self._trace(MSG_NAMES[mt].lower(), addr, old, new, msg.crit)
        return [Message(DATA_OWNER, self.node, msg.requester, addr, msg.crit,
                        value=blk.data, acks=msg.acks)], None

    def _on_inv(self, msg):
        addr = msg.addr
        blk = self.blocks.get(addr)
        old = ST_I if blk is None or blk.state in WRITEBACK else blk.state
        new = _INV_NEXT.get(old)
        if new is None:
            raise self._fail(addr, "INV at an ownership state")
        if new == old:
            self._trace("inv_stale", addr, old, old, msg.crit)
        else:
            self._move(addr, blk, new)
            self._trace("inv", addr, old, new, msg.crit)
        ack = Message(INV_ACK, self.node, msg.requester, addr, msg.crit)
        return [ack], None

    def _move(self, addr, blk, new):
        """Put `blk` in state `new`. At I or IM the cache keeps no data, so
        the block leaves the L1 and L2, and at I the cache."""
        if new == ST_I or new == ST_IM:
            self.l1.remove(addr)
            self.l2.remove(addr)
            if new == ST_I:
                del self.blocks[addr]
                return
        blk.state = new

    def _on_data(self, msg):
        addr = msg.addr
        txn = self.txns.get(addr)
        if txn is None or txn.acks_needed >= 0:
            raise self._fail(addr, "unexpected %s" % MSG_NAMES[msg.mtype])
        txn.data = msg.value
        txn.acks_needed = msg.acks
        if msg.mtype == DATA_DIR:
            txn.excl = msg.excl
        return self._maybe_complete(addr)

    def _on_inv_ack(self, msg):
        txn = self.txns.get(msg.addr)
        if txn is None:
            raise self._fail(msg.addr, "InvAck with no transaction")
        txn.acks_got += 1
        return self._maybe_complete(msg.addr)

    def _on_wb_ack(self, msg):
        blk = self.blocks.get(msg.addr)
        if blk is None or blk.state not in WRITEBACK:
            raise self._fail(msg.addr, "WB_Ack with no writeback pending")
        del self.blocks[msg.addr]
        self._trace("wb_ack", msg.addr, blk.state, ST_I)
        return [], None

    def _maybe_complete(self, addr):
        txn = self.txns[addr]
        if txn.acks_got != txn.acks_needed:     # acks_needed is -1 until data
            return [], None
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
            if old != ST_OM:
                blk.data = txn.data
            if txn.rmw:
                result = blk.data
                if blk.data == 0:
                    blk.data = 1
            else:
                blk.data = txn.store_value
        self._trace("complete_" + txn.kind, addr, old, blk.state, txn.crit)
        msgs = self._install_l2(addr)
        msgs.append(Message(UNBLOCK, self.node, self._home(addr), addr,
                            txn.crit, requester=self.node))
        return msgs, (addr, result)


_NO_SHARERS = frozenset()


class _DirEntry:
    """One block's directory state.

    `sharers` and the final sharers in `busy` are frozensets, never
    mutated in place. `pending` is None until a request first queues.
    """

    __slots__ = ("state", "owner", "sharers", "busy", "pending")

    def __init__(self):
        self.state = DIR_I
        self.owner = None
        self.sharers = _NO_SHARERS
        self.busy = None       # (requester, final_state, final_owner, final_sharers)
        self.pending = None    # list of queued requests, made on first use


class DirectoryController:
    """Home-node directory slice with a blocking per-block transaction queue."""

    def __init__(self, node, n_nodes):
        self.node = node
        self.n_nodes = n_nodes
        self.memory = {}  # block addr -> data token (sparse, default 0)
        self.entries = {}
        self.trace = None

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

    def handle(self, msg, from_queue=False):
        """Returns (outgoing msgs, used_memory, replay).

        `replay` is the queue head when an UNBLOCK, or a PUTX served from
        the queue, leaves the entry idle with requests still waiting; else
        None. The head stays queued, so requests that arrive before its
        replay queue behind it. `from_queue` marks that replay, which
        takes the head off the queue and is served.
        """
        mt = msg.mtype
        addr = msg.addr
        e = self.entry(addr)
        if mt == UNBLOCK:
            self._on_unblock(e, msg)
            return [], False, self._next(e)
        if mt in (GETS, GETX, PUTX):
            if from_queue:
                if (e.state == DIR_BUSY or not e.pending
                        or e.pending[0] is not msg):
                    raise ProtocolError(self.node, addr, DIR_NAMES[e.state],
                                        "replayed %s is not the head of an "
                                        "idle entry's queue" % MSG_NAMES[mt])
                del e.pending[0]
            elif e.state == DIR_BUSY or e.pending:
                if e.pending is None:
                    e.pending = []
                e.pending.append(msg)
                self._trace("queue_" + MSG_NAMES[mt], addr, e.state, e.state,
                            msg.crit)
                return [], False, None
            if mt == PUTX:
                # the entry stays idle; the queue is non-empty only when
                # this PUTX itself came from it
                return self._on_putx(e, msg), False, self._next(e)
            if mt == GETS:
                out, used_mem = self._on_gets(e, msg)
            else:
                out, used_mem = self._on_getx(e, msg)
            return out, used_mem, None      # the entry is Busy now
        raise ProtocolError(self.node, addr, DIR_NAMES[e.state],
                            "directory got %s" % MSG_NAMES[mt])

    @staticmethod
    def _next(e):
        """The queue head of an idle entry, else None."""
        return e.pending[0] if e.pending else None

    def _on_gets(self, e, msg):
        addr, req = msg.addr, msg.requester
        old = e.state
        used_mem = old == DIR_I or old == DIR_S
        if used_mem:
            # memory serves; a first reader is granted exclusive-clean
            excl = old == DIR_I
            out = Message(DATA_DIR, self.node, req, addr, msg.crit,
                          value=self.memory.get(addr, 0), acks=0, excl=excl)
            e.busy = ((req, DIR_E, req, _NO_SHARERS) if excl
                      else (req, DIR_S, None, e.sharers | {req}))
        else:
            out = Message(FWD_GETS, self.node, e.owner, addr, msg.crit,
                          requester=req)
            e.busy = (req, DIR_O, e.owner, e.sharers | {req})
        e.state = DIR_BUSY
        self._trace("gets", addr, old, DIR_BUSY, msg.crit)
        return [out], used_mem

    def _on_getx(self, e, msg):
        addr, req = msg.addr, msg.requester
        old = e.state
        # Invalidations go out in ring order starting after the requester.
        # With the harness's paced fan-out, this order decides which
        # invalidated spinner re-reads a contended word first, so the head
        # start moves round the ring with the requester instead of always
        # going to the lowest node ids. It does not prevent starvation at
        # the paper preset (ROADMAP item 9).
        invs = sorted(e.sharers - {req},
                      key=lambda s: (s - req - 1) % self.n_nodes)
        used_mem = old == DIR_I or old == DIR_S
        if used_mem:
            # memory serves; an Invalid entry has no sharers, so no acks
            out = [Message(DATA_DIR, self.node, req, addr, msg.crit,
                           value=self.memory.get(addr, 0), acks=len(invs),
                           excl=True)]
        elif e.owner == req:
            # Upgrade by the owner itself: no data transfer needed.
            out = [Message(DATA_DIR, self.node, req, addr, msg.crit,
                           value=None, acks=len(invs), excl=True)]
        else:
            out = [Message(FWD_GETX, self.node, e.owner, addr, msg.crit,
                           requester=req, acks=len(invs))]
        out.extend(Message(INV, self.node, s, addr, msg.crit, requester=req)
                   for s in invs)
        e.busy = (req, DIR_E, req, _NO_SHARERS)
        e.state = DIR_BUSY
        self._trace("getx", addr, old, DIR_BUSY, msg.crit)
        return out, used_mem

    def _on_putx(self, e, msg):
        addr, src = msg.addr, msg.src
        old = e.state
        ack = Message(WB_ACK, self.node, src, addr, msg.crit)
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
        return [ack]

    def _on_unblock(self, e, msg):
        addr = msg.addr
        if e.state != DIR_BUSY or e.busy is None or e.busy[0] != msg.requester:
            raise ProtocolError(self.node, addr, DIR_NAMES[e.state],
                                "Unblock from %s without a matching "
                                "transaction" % msg.requester)
        _, final_state, final_owner, final_sharers = e.busy
        e.state = final_state
        e.owner = final_owner
        e.sharers = final_sharers
        e.busy = None
        self._trace("unblock", addr, DIR_BUSY, final_state, msg.crit)
