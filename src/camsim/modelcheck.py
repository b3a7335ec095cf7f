"""Exhaustive small-instance protocol exploration.

Two caches and one directory share a single block. The checker enumerates
every interleaving of core operations (load, store, replacement) up to a
bounded operation count, crossed with every message delivery order that
keeps one FIFO channel per (source node, receiving agent, class, lane);
see `_route`. The class tells requests from Unblock at the directory,
and forwards and INV from replies at a cache; the lane is the crit bit.
Messages on different channels reorder freely.

Coverage limits. First, a channel is coarser than a source/destination
pair. The directory and cache 0 are both node 0, so their messages to a
cache share a channel, and one sender's messages to two destinations stay
in order. Keying channels by (sending agent, source, destination,
receiving agent, class, lane) reaches 24,275 / 768 / 51,312 states /
quiescent states / transitions at depth 6, against 22,903 / 768 / 47,470
here, and finds no violation (ROADMAP item 5).

Second, `_System.step` always issues with `crit=False`, so only the
non-critical lane ever carries messages. The checker covers reordering
across the two classes, not the critical/non-critical reordering that
CAM's priority arbiter introduces in the timed simulator.

At every quiescent state (no messages in flight, no open transactions)
the single-writer/multiple-reader invariant must hold and the
authoritative data token must equal the value of the most recently
completed store. Any ProtocolError raised by the controllers is a
failure.

A transition can change only one controller: a delivery on a "d" channel
the directory, on a "c" channel the cache the message is addressed to,
and an `issue` the issuing cache (`_System.changed_part`). `_System.apply`
splits a transition in two. `step` runs that one controller: `handle`,
plus the directory's replay loop, for a delivery, or `load`, `store` or
`evict` for an issue. `advance` is the bookkeeping every transition does:
it takes the delivered message off its channel or counts the operation,
queues what the step sent, and writes `last_store`.

A controller step is a function of three things: the controller's
position, its part of `encode()` and the choice. So a run records each
step once, in `_Steps`, and looks it up afterwards: collapse compression
applied to transitions. At depth 6 the 47,470 transitions take 3,230
distinct steps. Every successor is one `copy.deepcopy` of its parent,
with a memo that maps controllers to themselves, so
`_System.__deepcopy__` copies the channel dicts and the bookkeeping and
shares those controllers. For a step not seen before, the controller it
changes is left out of the memo, so it is cloned, and the step runs on
the clone and is recorded. A recorded step installs the controller it
recorded: no clone, no handler, no encoding. Step results are canonical
per (position, part id), one controller object each; the position is
part of the key because `node` is not encoded, so the two caches can
have equal parts. `copy.deepcopy` without a memo copies every
controller. The `_clone_*` helpers next to the encoders say what copying
a controller means, so this module alone says what a checker state is.

Why the lookup is exact. First, `encode()` holds everything about a
controller that decides its future behaviour. The one field it leaves
out, a cache's L1 array, only picks the "l1" or "l2" hit tier, and the
checker ignores the tier. Second, a controller is never written after
the step that created it: a parent is never applied to again, and a new
step always clones the controller it runs. So one canonical controller
can be shared by any number of states. A step records the `last_store`
value it writes, not whether the value changed, so a hit from a parent
that held another value still gets the write. Messages are always
shared: only the timed simulator writes a message after it is built
(its size, route, hop and stamp), and the checker never does. A
recorded step's messages, kept once per encoding, are queued by every
hit.

Visited states are keyed by interned parts (collapse compression, as in
SPIN: Holzmann 1997). `_System.encode()` returns a flat tuple of parts,
one per cache, then the directory, the channels and the operation
bookkeeping. One per-run table gives each distinct part value a dense
int id, and the visited set holds only the ids, packed into one int. A
part value recurs across many states but is stored once, in the table.
Keys are equal exactly when encodings are equal, so the explored states
and counts are those of deduplicating by the encoding itself. A
successor's key takes its parent's ids for the controllers the two
share and the recorded step's id for the changed one; only the channels
and the bookkeeping are encoded and looked up. Each message is encoded
once, when the step that sends it is recorded, so the channels' part is
built from tuples that exist already. The checker's traced peak at
depth 5 is about 170 B per visited state for the keys and parts, plus
about 110 B for the recorded steps.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .coherence import (
    CacheController,
    DATA_DIR,
    DATA_OWNER,
    DIR_BOUND,
    DIR_BUSY,
    DirectoryController,
    INV_ACK,
    ProtocolError,
    READABLE,
    ST_I,
    ST_S,
    UNBLOCK,
    WB_ACK,
    WRITEBACK,
    _Block,
    _DirEntry,
    _Txn,
    block_value,
    check_swmr,
)
from .memhier import CacheArray, CacheGeometry


_BLOCK = 0          # the single block under test, homed at node 0
_N_CACHES = 2
_DIR = _N_CACHES    # the directory's index among the parts of `encode()`
_GEOM = CacheGeometry(64, 1, 64)    # one set, one way: evictions reachable
# Replies and Unblock: the class flag of a channel key (see `_route`).
_RESPONSES = frozenset((DATA_DIR, DATA_OWNER, INV_ACK, WB_ACK, UNBLOCK))


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
        self.channels = {}       # (src, agent, class, lane) -> messages
        self.codes = {}          # the same key -> their `_enc_msg` tuples
        self.ops_used = 0
        self.next_value = 1
        self.last_store = 0

    def __deepcopy__(self, memo):
        # `memo` maps each controller the copy may share to itself (see
        # `_Steps.successor`); every other controller is cloned, so a plain
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

    def _absorb(self, routed):
        """Queue `_route`d messages, in order, each at its channel's tail."""
        channels, codes = self.channels, self.codes
        for key, msg, code in routed:
            channels[key] = channels.get(key, ()) + (msg,)
            codes[key] = codes.get(key, ()) + (code,)

    def controller(self, i):
        """Controller `i` in the order of `encode()`'s parts: cache `i`,
        or the directory at `_DIR`."""
        return self.dir if i == _DIR else self.caches[i]

    def install(self, i, controller):
        """Make `controller` this state's controller `i`."""
        if i == _DIR:
            self.dir = controller
        else:
            self.caches[i] = controller

    # -- choices ---------------------------------------------------------------

    def choices(self, max_ops):
        """Every enabled (action, arg) pair, in exploration order."""
        out = [("deliver", key) for key in sorted(self.channels)]
        for node in range(_N_CACHES):
            for op in self.legal_ops(node, max_ops):
                out.append(("issue", (node, op)))
        return out

    def apply(self, action, arg):
        """Take one choice: its controller step, then the bookkeeping."""
        out, stored = self.step(action, arg)
        self.advance(action, arg, _route(out), stored)

    def step(self, action, arg):
        """Run the one controller `changed_part` names on a choice.

        A delivery hands the head message of channel `arg` to its
        controller (the directory then serves its queue at once, until it
        re-blocks or empties); an issue runs the core operation `arg` =
        (node, op) on that node's cache, a store writing `next_value`.
        Writes nothing but that controller. Returns the messages it sent,
        in emission order, and the value it writes to `last_store`, else
        None.
        """
        if action == "deliver":
            msg = self.channels[arg][0]
            if arg[1] == "d":
                out, _, replay = self.dir.handle(msg)
                while replay is not None:
                    more, _, replay = self.dir.handle(replay, from_queue=True)
                    out = out + more
                return out, None
            cache = self.caches[msg.dst]
            out, done = cache.handle(msg)
            # a load returns the value it read, a store None; the stored
            # value is in the block
            if done is not None and done[1] is None:
                return out, cache.blocks[_BLOCK].data
            return out, None
        node, op = arg
        cache = self.caches[node]
        if op == "load":
            return cache.load(_BLOCK, False)[1], None
        if op == "store":
            (tier, _), out = cache.store(_BLOCK, False, self.next_value)
            return out, None if tier == "miss" else self.next_value
        return cache.evict(_BLOCK), None

    def advance(self, action, arg, routed, stored):
        """The bookkeeping of every transition, given its step's result:
        take the delivered message off its channel, or count the issued
        operation; queue the `_route`d messages the step sent; write
        `stored` to `last_store` unless it is None."""
        if action == "deliver":
            msgs = self.channels[arg]
            if len(msgs) > 1:
                self.channels[arg] = msgs[1:]
                self.codes[arg] = self.codes[arg][1:]
            else:
                del self.channels[arg], self.codes[arg]
        else:
            self.ops_used += 1
            if arg[1] == "store":
                self.next_value += 1
        self._absorb(routed)
        if stored is not None:
            self.last_store = stored

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
        entry = self.dir.entries.get(_BLOCK)
        problems = check_swmr(self.caches, _BLOCK,
                              entry.owner if entry else None)
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


def _route(msgs):
    """Each message as (channel key, message, `_enc_msg` code), in order.

    The key is (src node, receiving agent, class, lane). The agent is "d"
    for a directory-bound message, else "c". The class is whether the
    message is in `_RESPONSES`: at "d" it splits requests from Unblock, at
    "c" forwards and INV from replies. The lane is the crit bit, so a
    critical message never shares a FIFO with a non-critical one. Each
    message is encoded once, here, so the channels' part of `encode()` is
    built from existing tuples.
    """
    return tuple([((m.src, "d" if m.mtype in DIR_BOUND else "c",
                    m.mtype in _RESPONSES, m.crit), m, _enc_msg(m))
                  for m in msgs])


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
        ent.pending = e.pending[:] if e.pending else None
    twin.trace = directory.trace
    return twin


class _Steps:
    """The controller steps taken so far in one run, each kept once.

    A controller step (`_System.step`) is a function of the controller's
    position, its part of `encode()` and the choice, so a run looks a step
    up instead of applying it again. `table` maps (part id, choice id,
    position), packed into one int, to the step's result: (controller,
    its part id, the `_route`d messages it sent, the `last_store` it
    writes, else None). A choice is (channel key, head message code) for
    a delivery and ((node, op), the value a store writes, else None) for
    an issue; `choices` gives each a dense int. `canon` holds one
    controller per (part id, position), packed the same way, which every
    step that ends in that part installs, and `sent` one `_route`d
    message per message code, which every step that sends an equal
    message queues. Part ids are the ones `_Visited` gives (`ids` is its
    table).
    """

    __slots__ = ("ids", "choices", "table", "canon", "sent")

    def __init__(self, ids):
        self.ids = ids
        self.choices = {}
        self.table = {}
        self.canon = {}
        self.sent = {}

    def successor(self, sys, key, action, arg):
        """Copy `sys` and take one choice on the copy; `key` is the key
        `_Visited` gave `sys`.

        Returns the copy, the position of the one controller the choice
        can change (`_System.changed_part`) and that controller's part
        id. The copy shares every other controller with `sys`. Either way
        the copy is one outermost `copy.deepcopy`: a step seen before
        shares all of `sys`'s controllers and installs the recorded one,
        and a new step copies the controller it runs.
        """
        pos = sys.changed_part(action, arg)
        if action == "deliver":
            choice = (arg, sys.codes[arg][0])
        else:
            choice = (arg, sys.next_value if arg[1] == "store" else None)
        choices = self.choices
        step = (key[pos] << 32 | choices.setdefault(choice, len(choices))) \
            << 2 | pos
        controllers = (*sys.caches, sys.dir)
        done = self.table.get(step)
        if done is None:
            shared = {id(c): c for i, c in enumerate(controllers) if i != pos}
            succ = copy.deepcopy(sys, shared)
            try:
                out, stored = succ.step(action, arg)
            except ProtocolError as exc:
                raise CheckFailure("protocol assertion after %s %r: %s"
                                   % (action, arg, exc)) from exc
            ids = self.ids
            part = ids.setdefault(succ.controller_part(pos), len(ids))
            controller = self.canon.setdefault(part << 2 | pos,
                                               succ.controller(pos))
            sent = self.sent
            routed = tuple([sent.setdefault(r[2], r) for r in _route(out)])
            done = self.table[step] = (controller, part, routed, stored)
        else:
            succ = copy.deepcopy(sys, {id(c): c for c in controllers})
        controller, part, routed, stored = done
        succ.install(pos, controller)
        succ.advance(action, arg, routed, stored)
        return succ, pos, part


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
        """The key of `sys`. A `hint` is (parent key, changed position,
        that controller's part id) for a state `_Steps.successor` made:
        every other controller part is the parent's, so its id is taken
        from the parent's key."""
        ids = self.ids
        if hint is None:
            return tuple([ids.setdefault(part, len(ids))
                          for part in sys.encode()])
        parent, changed, part = hint
        key = list(parent)
        key[changed] = part
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
    steps = _Steps(visited.ids)
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
            succ, changed, part = steps.successor(sys, key, action, arg)
            transitions += 1
            succ_key = visited.add(succ, (key, changed, part))
            if succ_key is not None:
                stack.append((succ, succ_key))
    return CheckResult(len(visited), quiescent, transitions)
