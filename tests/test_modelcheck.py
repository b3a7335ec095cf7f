"""Exhaustive protocol exploration up to depth 8 (the acceptance suite
runs depth 8 too), planted protocol bugs that it must catch, the
visited-state keys that deduplicate it, the controllers a successor
shares with its parent, and the recorded controller steps it reuses."""

import copy

import pytest

from camsim import coherence
from camsim.coherence import (
    FWD_GETX,
    ST_OM,
    ST_S,
    CacheController,
    DirectoryController,
    _Block,
    _DirEntry,
    _Txn,
)
from camsim.memhier import CacheArray, CacheGeometry
from camsim.modelcheck import (
    CheckFailure,
    _Steps,
    _System,
    _Visited,
    run_check,
)
from camsim.network import Message
from test_coherence import block_record_problems


# (states, quiescent, transitions) per depth. Cloning, exploration order
# and dedup keys must not change these; a change to what is explored must
# update them on purpose.
PINNED = {
    2: (138, 19, 208),
    3: (660, 63, 1180),
    4: (2631, 168, 5016),
    5: (8508, 383, 17048),
    6: (22903, 768, 47470),
    7: (53378, 1397, 113738),
    8: (109591, 2357, 237879),
}


def counts(max_ops):
    result = run_check(max_ops=max_ops)
    return result.states, result.quiescent, result.transitions


def test_depth_two_counts():
    assert counts(2) == PINNED[2]


def test_depth_three_clean():
    assert counts(3) == PINNED[3]


def test_depth_four_clean():
    assert counts(4) == PINNED[4]


def test_depth_five_clean():
    assert counts(5) == PINNED[5]


def test_depth_six_clean():
    assert counts(6) == PINNED[6]


def test_depth_seven_clean():
    assert counts(7) == PINNED[7]


def test_depth_eight_clean():
    assert counts(8) == PINNED[8]


# -- planted bugs: each must fail the check ------------------------------------

def test_check_fails_when_a_sharer_keeps_its_copy_on_inv(monkeypatch):
    monkeypatch.setitem(coherence._INV_NEXT, ST_S, ST_S)
    with pytest.raises(CheckFailure, match="stale S copy at node 1: 2 != 3"):
        run_check(max_ops=4)


def test_check_fails_when_a_writeback_loses_its_data(monkeypatch):
    real = DirectoryController._on_putx

    def on_putx_keeping_memory(self, e, msg):
        before = self.memory.get(msg.addr)
        out = real(self, e, msg)
        if before is None:
            self.memory.pop(msg.addr, None)
        else:
            self.memory[msg.addr] = before
        return out

    monkeypatch.setattr(DirectoryController, "_on_putx",
                        on_putx_keeping_memory)
    with pytest.raises(CheckFailure,
                       match="token 0 != last completed store 2"):
        run_check(max_ops=4)


def test_check_fails_when_an_om_owner_refuses_fwd_getx(monkeypatch):
    monkeypatch.delitem(coherence._FWD_NEXT[FWD_GETX], ST_OM)
    with pytest.raises(CheckFailure,
                       match=r"protocol assertion after deliver .*"
                             r"Fwd_GETX but not owner"):
        run_check(max_ops=4)


# -- visited keys ------------------------------------------------------------

def test_keys_tell_apart_transaction_crit_and_rmw_bits():
    state = _System()
    state.apply("issue", (0, "load"))
    visited = _Visited()
    assert visited.add(state)
    assert not visited.add(copy.deepcopy(state))
    for field in ("crit", "rmw"):
        twin = copy.deepcopy(state)
        txn = twin.caches[0].txns[0]
        setattr(txn, field, not getattr(txn, field))
        assert visited.add(twin), field
    assert len(visited) == 3


# -- block records -------------------------------------------------------------

def test_block_records_in_every_reachable_state():
    n_states = 0
    for state in reachable(5):
        n_states += 1
        for cache in state.caches:
            assert block_record_problems(cache) == [], state.encode()
    assert n_states == PINNED[5][0]


# -- cloning -------------------------------------------------------------------

_SHAREABLE = (int, str, type(None), CacheGeometry)
# messages are shared by design; these never are
_NEVER_SHARED = (_Block, _Txn, _DirEntry, list, dict, set)


def reachable(max_ops):
    """Yield every state `run_check` keeps within `max_ops` operations, in
    DFS order, deduplicated by its visited set. Each is yielded before any
    of its successors is built."""
    root = _System()
    visited = _Visited()
    visited.add(root)
    stack = [root]
    while stack:
        state = stack.pop()
        yield state
        for action, arg in state.choices(max_ops):
            succ = copy.deepcopy(state)
            succ.apply(action, arg)
            if visited.add(succ):
                stack.append(succ)


def reachable_objects(root):
    """id -> object for every non-shareable object reachable from root."""
    found = {}
    todo = [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, _SHAREABLE) or id(obj) in found:
            continue
        found[id(obj)] = obj
        if isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif hasattr(type(obj), "__slots__"):
            todo.extend(getattr(obj, name) for name in type(obj).__slots__)
        else:
            todo.extend(vars(obj).values())
    return found


def message_slots(msg):
    return tuple(getattr(msg, name) for name in Message.__slots__)


def test_clones_share_no_mutable_object_with_their_parent():
    # every message, with its slots as first seen: this loop applies each
    # state's transitions before `reachable` does, so before any handler
    # could have written the message
    first_seen = {}
    n_states = 0
    for parent in reachable(3):
        n_states += 1
        before = parent.encode()
        parent_objs = reachable_objects(parent)
        msgs = [first_seen.setdefault(i, (m, message_slots(m)))
                for i, m in parent_objs.items() if isinstance(m, Message)]
        for action, arg in parent.choices(3):
            succ = copy.deepcopy(parent)
            assert succ.encode() == before
            succ.apply(action, arg)
            assert parent.encode() == before, (action, arg)
            common = parent_objs.keys() & reachable_objects(succ).keys()
            shared = [type(parent_objs[i]).__name__ for i in common
                      if isinstance(parent_objs[i], _NEVER_SHARED)]
            assert not shared, (action, arg, shared)
            # a message may be shared because no transition writes one
            written = [m for m, slots in msgs if message_slots(m) != slots]
            assert not written, (action, arg, written)
    assert n_states == PINNED[3][0]


def fields(obj):
    """name -> value of every slot or attribute of obj. A drained
    directory queue reads as None, which is what a clone makes of it."""
    cls = type(obj)
    names = cls.__slots__ if hasattr(cls, "__slots__") else vars(obj)
    out = {name: getattr(obj, name) for name in names}
    if isinstance(obj, _DirEntry) and not obj.pending:
        out["pending"] = None
    return out


def assert_same(a, b, path, seen):
    """Assert clone `b` equals source `a` field by field, recursively;
    add every compared object type to `seen`."""
    assert type(a) is type(b), path
    seen.add(type(a))
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            assert_same(a[k], b[k], "%s[%r]" % (path, k), seen)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, "%s[%d]" % (path, i), seen)
    elif isinstance(a, (int, str, type(None), frozenset, CacheGeometry)):
        assert a == b, path
    else:
        fa, fb = fields(a), fields(b)
        assert fa.keys() == fb.keys(), path
        for name in fa:
            assert_same(fa[name], fb[name], "%s.%s" % (path, name), seen)


def test_clones_equal_their_source_field_by_field():
    seen = set()
    queued = 0
    for state in reachable(3):
        assert_same(state, copy.deepcopy(state), "state", seen)
        queued += any(e.pending for e in state.dir.entries.values())
    # every kind of checker state was compared at least once, a directory
    # queue holding requests among them
    assert {_System, CacheController, CacheArray, _Block, _Txn,
            DirectoryController, _DirEntry, Message} <= seen
    assert queued


# -- structural sharing -------------------------------------------------------

def controllers(state):
    """The caches, then the directory: the order of `encode()`'s parts."""
    return (*state.caches, state.dir)


def may_change(state, action, arg):
    """Index in `controllers` of the one controller a choice can change,
    read off the choice: the issuing cache, the directory for a delivery
    on a directory-bound channel, else the head message's destination."""
    if action == "issue":
        return arg[0]
    if arg[1] == "d":
        return len(state.caches)
    return state.channels[arg][0].dst


def test_successors_share_exactly_the_controllers_they_cannot_change():
    # walk run_check's own successor path: `_Steps.successor` copies and
    # applies a new step or installs a recorded one, and keys are hinted
    # with the parent's key
    visited = _Visited()
    steps = _Steps(visited.ids)
    root = _System()
    stack = [(root, visited.add(root))]
    n_transitions = 0
    while stack:
        parent, key = stack.pop()
        before = controllers(copy.deepcopy(parent))   # shares nothing
        for action, arg in parent.choices(5):
            n_transitions += 1
            changeable = may_change(parent, action, arg)
            recorded = {id(c) for c in steps.canon.values()}
            succ, changed, part = steps.successor(parent, key, action, arg)
            assert changed == changeable, (action, arg)
            pairs = list(zip(controllers(parent), controllers(succ)))
            shared = [i for i, (p, s) in enumerate(pairs) if p is s]
            assert [i for i in range(len(pairs)) if i != changeable] == \
                [i for i in shared if i != changeable], (action, arg, shared)
            # no parent controller was written, shared or not
            for i, p in enumerate(controllers(parent)):
                assert_same(before[i], p,
                            "%s %r: controller %d" % (action, arg, i), set())
            # the changed controller is a fresh clone, which shares no
            # mutable object with the parent, or a controller recorded
            # earlier with an equal encoding; that may be the parent's own
            # when the step leaves it unchanged
            new = pairs[changeable][1]
            if id(new) not in recorded:
                new_objs = reachable_objects(new)
                common = reachable_objects(parent).keys() & new_objs.keys()
                assert not [i for i in common if isinstance(
                    new_objs[i], _NEVER_SHARED)], (action, arg)
            elif new is pairs[changeable][0]:
                assert part == key[changeable], (action, arg)
            hint = (key, changed, part)
            succ_key = visited.key(succ, hint)
            # the recorded part id is that of the installed controller
            assert succ_key == visited.key(succ), (action, arg)
            if visited.add(succ, hint) is not None:
                stack.append((succ, succ_key))
    assert (len(visited), n_transitions) == (PINNED[5][0], PINNED[5][2])


def test_recorded_steps_match_applying_them():
    # the oracle for `_Steps`: every successor it makes, from a recorded
    # step or a new one, encodes exactly as a full copy with the choice
    # applied; the table fills as the walk goes, so later states reuse
    # steps recorded from other parents
    visited = _Visited()
    steps = _Steps(visited.ids)
    n_choices = 0
    for state in reachable(5):
        key = visited.key(state)
        before = state.encode()
        for action, arg in state.choices(5):
            n_choices += 1
            plain = copy.deepcopy(state)
            plain.apply(action, arg)
            succ, _, _ = steps.successor(state, key, action, arg)
            assert succ.encode() == plain.encode(), (action, arg, before)
            assert state.encode() == before, (action, arg)
    assert n_choices == PINNED[5][2]
    # most choices were served from the table
    assert len(steps.table) < n_choices / 4


def test_a_recorded_step_writes_last_store_even_where_it_held_the_value():
    # a store hit writes `last_store`; recorded from a parent that already
    # held the stored value, the step must still write it on later hits
    state = _System()
    state.apply("issue", (0, "load"))
    while state.channels:
        state.apply("deliver", min(state.channels))
    assert state.caches[0].state_of(0) == coherence.ST_E
    held = copy.deepcopy(state)
    held.last_store = held.next_value
    visited = _Visited()
    steps = _Steps(visited.ids)
    for parent in (held, state):
        succ, _, _ = steps.successor(parent, visited.key(parent), "issue",
                                     (0, "store"))
        assert succ.last_store == parent.next_value
    assert len(steps.table) == 1
