"""Exhaustive small-instance protocol exploration.

Two caches and one directory share a single block. The checker enumerates
every interleaving of core operations (load, store, replacement) up to a
bounded operation count, crossed with every message delivery order that
keeps one FIFO channel per (source node, receiving agent, vnet); see
`_absorb`. Messages on different channels reorder freely.

Coverage limits. First, a channel is coarser than a source/destination
pair. The directory and cache 0 are both node 0, so their messages to a
cache share a channel, and one sender's messages to two destinations stay
in order. Keying channels by (sending agent, source, destination,
receiving agent, vnet) reaches 24,275 / 768 / 51,312 states / quiescent
states / transitions at depth 6, against 22,903 / 768 / 47,470 here, and
finds no violation (ROADMAP item 5).

Second, `_System.issue` always sends `crit=False`, so only the
non-critical vnets 0-2 ever carry messages. The checker covers reordering
across message classes (request / forward / response), not the
critical/non-critical reordering that CAM's priority arbiter introduces
in the timed simulator.

At every quiescent state (no messages in flight, no open transactions)
the single-writer/multiple-reader invariant must hold and the
authoritative data token must equal the value of the most recently
completed store. Any ProtocolError raised by the controllers is a
failure.

Successor states are cloned with `copy.deepcopy`, which calls
`_System.__deepcopy__`; it and the `_clone_*` helpers next to `encode()`
copy the whole state, so this module alone says what a checker state is.
Channel lists and pending queues are copied but the messages in them are
shared: only the timed simulator writes a message after it is built (its
size, route, hop and stamp), and the checker never does.

Visited states are keyed by interned parts (collapse compression, as in
SPIN: Holzmann 1997). `_System.encode()` returns a flat tuple of parts,
one per cache, then the directory, the channels and the operation
bookkeeping. One per-run table gives each distinct part value a dense int
id, and the visited set holds only the tuple of ids. A part value recurs
across many states but is stored once, in the table, so the checker's
traced peak is about 230 B per visited state instead of about 1.5 kB
with the full nested encodings. Keys are equal exactly when encodings
are equal, so the explored states and counts are those of deduplicating
by the encoding itself.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

from .coherence import (
    CLASS_OF,
    CacheController,
    DIR_BOUND,
    DIR_BUSY,
    DirectoryController,
    ProtocolError,
    ST_S,
    _Block,
    _DirEntry,
    _Txn,
    block_value,
    check_swmr,
    vnet_of,
)
from .memhier import CacheArray, CacheGeometry


_BLOCK = 0          # the single block under test, homed at node 0
_N_CACHES = 2


class CheckFailure(AssertionError):
    """A violation found during exploration, with the breadcrumb trail."""


@dataclass
class CheckResult:
    states: int
    quiescent: int
    transitions: int


class _System:
    """One concrete protocol state: controllers plus in-flight channels."""

    def __init__(self):
        geom = CacheGeometry(64, 1, 64)  # one set, one way: evictions reachable
        self.caches = [CacheController(n, geom, geom, _N_CACHES)
                       for n in range(_N_CACHES)]
        self.dir = DirectoryController(0, _N_CACHES)
        self.channels = {}       # (src, agent, vnet) -> list of messages
        self.outstanding = [None] * _N_CACHES   # (op, value) while blocked
        self.ops_used = 0
        self.next_value = 1
        self.last_store = 0

    def __deepcopy__(self, memo):
        # no object appears twice within one state, so `memo` is unused
        twin = _System.__new__(_System)
        twin.caches = [_clone_cache(c) for c in self.caches]
        twin.dir = _clone_dir(self.dir)
        twin.channels = {k: v[:] for k, v in self.channels.items()}
        twin.outstanding = self.outstanding[:]   # entries are tuples or None
        twin.ops_used = self.ops_used
        twin.next_value = self.next_value
        twin.last_store = self.last_store
        return twin

    # -- plumbing -------------------------------------------------------------

    def _agent(self, msg):
        return "d" if msg.mtype in DIR_BOUND else "c"

    def _absorb(self, msgs):
        for msg in msgs:
            key = (msg.src, self._agent(msg),
                   vnet_of(CLASS_OF[msg.mtype], msg.crit))
            self.channels.setdefault(key, []).append(msg)

    # -- choices ---------------------------------------------------------------

    def deliver(self, key):
        msgs = self.channels[key]
        msg = msgs.pop(0)
        if not msgs:
            del self.channels[key]
        if key[1] == "d":
            out, _, replay = self.dir.handle(msg)
            self._absorb(out)
            # serve the queue at once until it re-blocks or empties
            while replay is not None:
                out, _, replay = self.dir.handle(replay, from_queue=True)
                self._absorb(out)
        else:
            node = msg.dst
            out, done = self.caches[node].handle(msg)
            self._absorb(out)
            if done is not None:
                op = self.outstanding[node]
                self.outstanding[node] = None
                if op is not None and op[0] == "store":
                    self.last_store = op[1]

    def issue(self, node, op):
        cache = self.caches[node]
        self.ops_used += 1
        if op == "load":
            (tier, val), msgs = cache.load(_BLOCK, False)
            if tier == "miss":
                self.outstanding[node] = ("load", None)
            self._absorb(msgs)
        elif op == "store":
            value = self.next_value
            self.next_value += 1
            (tier, _), msgs = cache.store(_BLOCK, False, value)
            if tier == "miss":
                self.outstanding[node] = ("store", value)
            else:
                self.last_store = value
            self._absorb(msgs)
        else:  # evict
            self._absorb(cache.evict(_BLOCK))

    def choices(self, max_ops):
        """Every enabled (action, arg) pair, in exploration order."""
        out = [("deliver", key) for key in sorted(self.channels)]
        for node in range(_N_CACHES):
            for op in self.legal_ops(node, max_ops):
                out.append(("issue", (node, op)))
        return out

    def apply(self, action, arg):
        if action == "deliver":
            self.deliver(arg)
        else:
            self.issue(*arg)

    def legal_ops(self, node, max_ops):
        if self.ops_used >= max_ops or self.outstanding[node] is not None:
            return ()
        cache = self.caches[node]
        if _BLOCK in cache.txns or _BLOCK in cache.wb:
            # requests against a mid-writeback block stall; no new choice
            return ()
        if cache.holds(_BLOCK):     # no writeback pending: a readable copy
            return ("load", "store", "evict")
        return ("load", "store")

    # -- invariants ---------------------------------------------------------------

    def quiescent(self):
        if self.channels or any(self.outstanding):
            return False
        if any(c.txns or c.wb for c in self.caches):
            return False
        for e in self.dir.entries.values():
            if e.state == DIR_BUSY or e.pending:
                return False
        return True

    def check_invariants(self):
        problems = check_swmr(self.caches, _BLOCK)
        value = block_value(self.caches, self.dir.memory, _BLOCK)
        if value != self.last_store:
            problems.append("token %r != last completed store %r"
                            % (value, self.last_store))
        # every readable copy of an S block agrees with the token
        for c in self.caches:
            blk = c.blocks.get(_BLOCK)
            if blk is not None and blk.state == ST_S and blk.data != value:
                problems.append("stale S copy at node %d: %r != %r"
                                % (c.node, blk.data, value))
        return problems

    # -- state encoding --------------------------------------------------------------

    @staticmethod
    def _enc_msg(m):
        return (m.mtype, m.crit, m.src, m.dst, m.addr, m.requester, m.acks,
                m.value, m.excl)

    def encode(self):
        """Every field that decides future behaviour, as a flat tuple of
        hashable parts: one per cache, then the directory, the channels
        and the operation bookkeeping."""
        caches = []
        for c in self.caches:
            blocks = tuple(sorted((a, b.state, b.data)
                                  for a, b in c.blocks.items()))
            wb = tuple(sorted((a, b.state, b.data) for a, b in c.wb.items()))
            txns = tuple(sorted(
                (a, t.kind, t.crit, t.rmw, t.waiting_data, t.acks_needed,
                 t.acks_got, t.data, t.excl, t.store_value, t.from_state)
                for a, t in c.txns.items()))
            l2 = tuple(sorted((i, tuple(w)) for i, w in c.l2.sets.items() if w))
            caches.append((blocks, wb, txns, l2))
        entries = tuple(sorted(
            (a, e.state, e.owner, tuple(sorted(e.sharers)),
             e.busy if e.busy is None else (e.busy[0], e.busy[1], e.busy[2],
                                            tuple(sorted(e.busy[3]))),
             tuple(self._enc_msg(p) for p in e.pending or ()))
            for a, e in self.dir.entries.items()))
        mem = tuple(sorted(self.dir.memory.items()))
        chans = tuple(sorted(
            (k, tuple(self._enc_msg(m) for m in v))
            for k, v in self.channels.items()))
        return (*caches, (entries, mem), chans,
                (tuple(self.outstanding), self.ops_used, self.next_value,
                 self.last_store))


# -- cloning -------------------------------------------------------------------
# None of these calls `copy.deepcopy`: a clone is one outermost call.

def _clone_array(arr):
    # the geometry is frozen and shared; only the tag lists are copied
    twin = CacheArray.__new__(CacheArray)
    twin.geometry = arr.geometry
    twin.sets = {i: ways[:] for i, ways in arr.sets.items()}
    twin._block_bytes = arr._block_bytes
    twin._n_sets = arr._n_sets
    return twin


def _clone_txn(txn):
    # every field is an int, bool, str or None
    twin = _Txn.__new__(_Txn)
    twin.kind = txn.kind
    twin.crit = txn.crit
    twin.from_state = txn.from_state
    twin.store_value = txn.store_value
    twin.rmw = txn.rmw
    twin.waiting_data = txn.waiting_data
    twin.acks_needed = txn.acks_needed
    twin.acks_got = txn.acks_got
    twin.data = txn.data
    twin.excl = txn.excl
    twin.txn_id = txn.txn_id
    return twin


def _clone_cache(cache):
    # `trace` is shared
    twin = CacheController.__new__(CacheController)
    twin.node = cache.node
    twin.n_nodes = cache.n_nodes
    twin.l1 = _clone_array(cache.l1)
    twin.l2 = _clone_array(cache.l2)
    twin.blocks = {a: _Block(b.state, b.data) for a, b in cache.blocks.items()}
    twin.wb = {a: _Block(b.state, b.data) for a, b in cache.wb.items()}
    twin.txns = {a: _clone_txn(t) for a, t in cache.txns.items()}
    twin.trace = cache.trace
    twin._txn_serial = cache._txn_serial
    twin._block_bytes = cache._block_bytes
    return twin


def _clone_dir(directory):
    # `trace` is shared, and so are each entry's sharers and busy, which
    # are immutable all the way down; a drained queue becomes None
    twin = DirectoryController.__new__(DirectoryController)
    twin.node = directory.node
    twin.n_nodes = directory.n_nodes
    twin.memory = dict(directory.memory)
    twin.entries = entries = {}
    for a, e in directory.entries.items():
        ent = entries[a] = _DirEntry.__new__(_DirEntry)
        ent.state = e.state
        ent.owner = e.owner
        ent.sharers = e.sharers
        ent.busy = e.busy
        ent.pending = deque(e.pending) if e.pending else None
    twin.trace = directory.trace
    return twin


class _Visited:
    """The states explored so far, each kept as a tuple of dense ids.

    `ids` interns every part of `_System.encode()` seen in this run: a
    part's value maps to the int it was first given. Two states get equal
    keys exactly when their encodings are equal.
    """

    __slots__ = ("ids", "keys")

    def __init__(self):
        self.ids = {}
        self.keys = set()

    def __len__(self):
        return len(self.keys)

    def add(self, sys):
        """Record `sys`; True when no state with its encoding was seen."""
        ids = self.ids
        key = tuple([ids.setdefault(part, len(ids)) for part in sys.encode()])
        keys = self.keys
        # hash the key once: add it, then see whether the set grew
        before = len(keys)
        keys.add(key)
        return len(keys) != before


def run_check(max_ops=6):
    """Explore every schedule; raise CheckFailure on any violation.

    Returns a CheckResult with exploration counts.
    """
    root = _System()
    visited = _Visited()
    visited.add(root)
    stack = [root]
    quiescent = 0
    transitions = 0

    while stack:
        sys = stack.pop()
        if sys.quiescent():
            quiescent += 1
            problems = sys.check_invariants()
            if problems:
                raise CheckFailure("invariant violation: %s"
                                   % "; ".join(problems))
        for action, arg in sys.choices(max_ops):
            succ = copy.deepcopy(sys)
            try:
                succ.apply(action, arg)
            except ProtocolError as exc:
                raise CheckFailure("protocol assertion after %s %r: %s"
                                   % (action, arg, exc)) from exc
            transitions += 1
            if visited.add(succ):
                stack.append(succ)
    return CheckResult(len(visited), quiescent, transitions)
