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

A successor copies only the controller its transition can change. A
delivery on a "d" channel can change only the directory, a delivery on a
"c" channel only the cache the message is addressed to, and an `issue`
only the issuing cache (`_System.changed_part`). `_successor` clones a
state with one `copy.deepcopy`, passing a memo that maps every other
controller to itself, so `_System.__deepcopy__` copies that controller,
the channel dicts and the bookkeeping, and shares the other controllers
with the parent. The sharing is exact because a controller is written
only by the `apply` right after it was copied: the parent is never
applied to again, and a later transition that can change a shared
controller copies it first. `copy.deepcopy` without a memo copies every
controller. The `_clone_*` helpers next to the encoders say what copying
a controller means, so this module alone says what a checker state is.
Messages are always shared: only the timed simulator writes a message
after it is built (its size, route, hop and stamp), and the checker
never does.

Visited states are keyed by interned parts (collapse compression, as in
SPIN: Holzmann 1997). `_System.encode()` returns a flat tuple of parts,
one per cache, then the directory, the channels and the operation
bookkeeping. One per-run table gives each distinct part value a dense
int id, and the visited set holds only the ids, packed into one int. A
part value recurs across many states but is stored once, in the table,
so the checker's traced peak at depth 5 is about 180 B per visited state
instead of about 1.5 kB with the full nested encodings. Keys are equal
exactly when encodings are equal, so the explored states and counts are
those of deduplicating by the encoding itself. A successor's key reuses
its parent's ids for the controllers the two share, whose parts are
equal because the controllers are the same objects; only the changed
controller, the channels and the bookkeeping are encoded and looked up.
Each message is encoded once, when `_absorb` queues it, so the channels'
part is built from tuples that exist already.
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
    READABLE,
    ST_I,
    ST_S,
    WRITEBACK,
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
_DIR = _N_CACHES    # the directory's index among the parts of `encode()`
_GEOM = CacheGeometry(64, 1, 64)    # one set, one way: evictions reachable


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
        self.caches = [CacheController(n, _GEOM, _GEOM, _N_CACHES)
                       for n in range(_N_CACHES)]
        self.dir = DirectoryController(0, _N_CACHES)
        self.channels = {}       # (src, agent, vnet) -> tuple of messages
        self.codes = {}          # the same key -> their `_enc_msg` tuples
        self.ops_used = 0
        self.next_value = 1
        self.last_store = 0

    def __deepcopy__(self, memo):
        # `memo` maps each controller the copy may share to itself (see
        # `_successor`); every other controller is cloned, so a plain
        # `copy.deepcopy`, whose memo starts empty, shares none. Channel
        # values are tuples, replaced rather than written.
        twin = _System.__new__(_System)
        twin.caches = [memo.get(id(c)) or _clone_cache(c)
                       for c in self.caches]
        twin.dir = memo.get(id(self.dir)) or _clone_dir(self.dir)
        twin.channels = self.channels.copy()
        twin.codes = self.codes.copy()
        twin.ops_used = self.ops_used
        twin.next_value = self.next_value
        twin.last_store = self.last_store
        return twin

    # -- plumbing -------------------------------------------------------------

    def _agent(self, msg):
        return "d" if msg.mtype in DIR_BOUND else "c"

    def _absorb(self, msgs):
        channels, codes = self.channels, self.codes
        for msg in msgs:
            key = (msg.src, self._agent(msg),
                   vnet_of(CLASS_OF[msg.mtype], msg.crit))
            channels[key] = channels.get(key, ()) + (msg,)
            codes[key] = codes.get(key, ()) + (_enc_msg(msg),)

    # -- choices ---------------------------------------------------------------

    def deliver(self, key):
        msgs = self.channels[key]
        msg = msgs[0]
        if len(msgs) > 1:
            self.channels[key] = msgs[1:]
            self.codes[key] = self.codes[key][1:]
        else:
            del self.channels[key], self.codes[key]
        if key[1] == "d":
            out, _, replay = self.dir.handle(msg)
            self._absorb(out)
            # serve the queue at once until it re-blocks or empties
            while replay is not None:
                out, _, replay = self.dir.handle(replay, from_queue=True)
                self._absorb(out)
        else:
            cache = self.caches[msg.dst]
            out, done = cache.handle(msg)
            self._absorb(out)
            # a load returns the value it read, a store None; the stored
            # value is in the block
            if done is not None and done[1] is None:
                self.last_store = cache.blocks[_BLOCK].data

    def issue(self, node, op):
        cache = self.caches[node]
        self.ops_used += 1
        if op == "load":
            _, msgs = cache.load(_BLOCK, False)
            self._absorb(msgs)
        elif op == "store":
            value = self.next_value
            self.next_value += 1
            (tier, _), msgs = cache.store(_BLOCK, False, value)
            if tier != "miss":
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

    def changed_part(self, action, arg):
        """Index in `encode()` of the one controller `apply(action, arg)`
        can change: the directory for a delivery on a "d" channel, else
        the cache the head message or the issue names."""
        if action == "issue":
            return arg[0]
        if arg[1] == "d":
            return _DIR
        return self.channels[arg][0].dst

    def legal_ops(self, node, max_ops):
        if self.ops_used >= max_ops:
            return ()
        state = self.caches[node].state_of(_BLOCK)
        if state in READABLE:
            return ("load", "store", "evict")
        if state == ST_I:
            return ("load", "store")
        # IS/IM/SM/OM: the node's op is open while its transaction is;
        # MI/OI/II: requests against a mid-writeback block stall
        return ()

    # -- invariants ---------------------------------------------------------------

    def quiescent(self):
        if self.channels:
            return False
        if any(c.txns or c.state_of(_BLOCK) in WRITEBACK
               for c in self.caches):
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

    def encode(self):
        """Every field that decides future behaviour, as a flat tuple of
        hashable parts: one per cache, then the directory, the channels
        and the operation bookkeeping."""
        return (*[self.controller_part(i) for i in range(_DIR + 1)],
                *self.transit_parts())

    def controller_part(self, i):
        """Part `i` of `encode()`: cache `i`, or the directory at `_DIR`."""
        if i == _DIR:
            return _enc_dir(self.dir)
        return _enc_cache(self.caches[i])

    def transit_parts(self):
        """The last two parts of `encode()`, which any transition can
        change: the channels and the operation bookkeeping."""
        return (tuple(sorted(self.codes.items())),
                (self.ops_used, self.next_value, self.last_store))


def _enc_msg(m):
    return (m.mtype, m.crit, m.src, m.dst, m.addr, m.requester, m.acks,
            m.value, m.excl)


def _enc_cache(c):
    blocks = tuple(sorted([(a, b.state, b.data)
                           for a, b in c.blocks.items()]))
    txns = tuple(sorted([
        (a, t.kind, t.crit, t.rmw, t.acks_needed, t.acks_got, t.data,
         t.excl, t.store_value, t.from_state)
        for a, t in c.txns.items()]))
    l2 = tuple(sorted([(i, tuple(w)) for i, w in c.l2.sets.items()]))
    return (blocks, txns, l2)


def _enc_dir(directory):
    entries = tuple(sorted([
        (a, e.state, e.owner, tuple(sorted(e.sharers)),
         e.busy if e.busy is None else (e.busy[0], e.busy[1], e.busy[2],
                                        tuple(sorted(e.busy[3]))),
         tuple([_enc_msg(p) for p in e.pending or ()]))
        for a, e in directory.entries.items()]))
    return (entries, tuple(sorted(directory.memory.items())))


# -- cloning -------------------------------------------------------------------
# None of these calls `copy.deepcopy`: a clone is one outermost call.

def _clone_array(arr):
    # the geometry is frozen and shared; only the address lists are copied
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
    twin.acks_needed = txn.acks_needed
    twin.acks_got = txn.acks_got
    twin.data = txn.data
    twin.excl = txn.excl
    return twin


def _clone_cache(cache):
    # `trace` is shared
    twin = CacheController.__new__(CacheController)
    twin.node = cache.node
    twin.n_nodes = cache.n_nodes
    twin.l1 = _clone_array(cache.l1)
    twin.l2 = _clone_array(cache.l2)
    twin.blocks = {a: _Block(b.state, b.data) for a, b in cache.blocks.items()}
    twin.txns = {a: _clone_txn(t) for a, t in cache.txns.items()}
    twin.trace = cache.trace
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


def _successor(sys, action, arg):
    """Copy `sys` and apply one choice to the copy.

    Returns the copy and `sys.changed_part(action, arg)`. The copy shares
    every other controller with `sys`.
    """
    changed = sys.changed_part(action, arg)
    controllers = (*sys.caches, sys.dir)
    shared = {id(c): c for i, c in enumerate(controllers) if i != changed}
    succ = copy.deepcopy(sys, shared)
    try:
        succ.apply(action, arg)
    except ProtocolError as exc:
        raise CheckFailure("protocol assertion after %s %r: %s"
                           % (action, arg, exc)) from exc
    return succ, changed


class _Visited:
    """The states explored so far, each kept as its key: a tuple of
    dense ids, one per part of `_System.encode()`.

    `ids` interns every part seen in this run: a part's value maps to the
    int it was first given. Two states get equal keys exactly when their
    encodings are equal. `keys` holds each key packed into one int, 32
    bits per id: 48 B for five ids, where their tuple takes 80 B.
    """

    __slots__ = ("ids", "keys")

    def __init__(self):
        self.ids = {}
        self.keys = set()

    def __len__(self):
        return len(self.keys)

    def key(self, sys, hint=None):
        """The key of `sys`. A `hint` is (parent key, changed part) for a
        state `_successor` made: every controller part but the changed
        one is the parent's, so its id is taken from the parent's key."""
        ids = self.ids
        if hint is None:
            return tuple([ids.setdefault(part, len(ids))
                          for part in sys.encode()])
        parent, changed = hint
        key = list(parent)
        key[changed] = ids.setdefault(sys.controller_part(changed), len(ids))
        chans, book = sys.transit_parts()
        key[-2] = ids.setdefault(chans, len(ids))
        key[-1] = ids.setdefault(book, len(ids))
        return tuple(key)

    def add(self, sys, hint=None):
        """Record `sys`; its key when no state with its encoding was seen,
        else None."""
        key = self.key(sys, hint)
        packed = 0
        for i in key:   # 32 bits hold any id: 2**32 parts would not fit
            packed = packed << 32 | i
        keys = self.keys
        # hash the key once: add it, then see whether the set grew
        before = len(keys)
        keys.add(packed)
        return key if len(keys) != before else None


def run_check(max_ops=6):
    """Explore every schedule; raise CheckFailure on any violation.

    Returns a CheckResult with exploration counts.
    """
    root = _System()
    visited = _Visited()
    stack = [(root, visited.add(root))]     # each state with its key
    quiescent = 0
    transitions = 0

    while stack:
        sys, key = stack.pop()
        if sys.quiescent():
            quiescent += 1
            problems = sys.check_invariants()
            if problems:
                raise CheckFailure("invariant violation: %s"
                                   % "; ".join(problems))
        for action, arg in sys.choices(max_ops):
            succ, changed = _successor(sys, action, arg)
            transitions += 1
            succ_key = visited.add(succ, (key, changed))
            if succ_key is not None:
                stack.append((succ, succ_key))
    return CheckResult(len(visited), quiescent, transitions)
