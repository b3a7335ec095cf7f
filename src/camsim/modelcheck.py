"""Exhaustive small-instance protocol exploration.

Two caches and one directory share a single block. The checker enumerates
every interleaving of core operations (load, store, replacement) up to a
bounded operation count, crossed with every message delivery order that
respects per-vnet FIFO between each source/destination pair. Messages on
different virtual networks reorder freely.

Coverage limit: `_System.issue` always sends `crit=False`, so only the
non-critical vnets 0-2 ever carry messages. The checker covers reordering
across message classes (request / forward / response), not the
critical/non-critical reordering that CAM's priority arbiter introduces
in the timed simulator.

At every quiescent state (no messages in flight, no open transactions)
the single-writer/multiple-reader invariant must hold and the
authoritative data token must equal the value of the most recently
completed store. Any ProtocolError raised by the controllers is a
failure.

Successor states are cloned with `copy.deepcopy`, which dispatches to the
structural `__deepcopy__` that every piece of checker state defines next
to its fields.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .coherence import (
    CLASS_OF,
    CacheController,
    DIR_BOUND,
    DIR_BUSY,
    DirectoryController,
    ProtocolError,
    ST_S,
    block_value,
    check_swmr,
    vnet_of,
)
from .memhier import CacheGeometry


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
        """Copy every mutable part, calling each child's copy directly.

        No object appears twice within one state, so `memo` is passed
        along but never consulted.
        """
        twin = _System.__new__(_System)
        twin.caches = [c.__deepcopy__(memo) for c in self.caches]
        twin.dir = self.dir.__deepcopy__(memo)
        twin.channels = {k: [m.__deepcopy__(memo) for m in v]
                         for k, v in self.channels.items()}
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
        caches = []
        for c in self.caches:
            blocks = tuple(sorted((a, b.state, b.data)
                                  for a, b in c.blocks.items()))
            wb = tuple(sorted((a, b.state, b.data) for a, b in c.wb.items()))
            txns = tuple(sorted(
                (a, t.kind, t.waiting_data, t.acks_needed, t.acks_got,
                 t.data, t.excl, t.store_value, t.from_state)
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
        return (tuple(caches), entries, mem, chans, tuple(self.outstanding),
                self.ops_used, self.next_value, self.last_store)


def _clone(sys):
    return copy.deepcopy(sys)


def run_check(max_ops=6, progress=None):
    """Explore every schedule; raise CheckFailure on any violation.

    Returns a CheckResult with exploration counts. `progress`, when
    given, is called with the running state count every few thousand
    states.
    """
    root = _System()
    seen = {root.encode()}
    stack = [root]
    states = 1
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
            succ = _clone(sys)
            try:
                succ.apply(action, arg)
            except ProtocolError as exc:
                raise CheckFailure("protocol assertion after %s %r: %s"
                                   % (action, arg, exc)) from exc
            transitions += 1
            key = succ.encode()
            if key not in seen:
                seen.add(key)
                states += 1
                if progress is not None and states % 5000 == 0:
                    progress(states)
                stack.append(succ)
    return CheckResult(states, quiescent, transitions)
