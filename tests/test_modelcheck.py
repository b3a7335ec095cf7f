"""Exhaustive protocol exploration up to depth 7 (the acceptance suite
runs depth 6), and the visited-state keys that deduplicate it."""

import copy
from collections import deque

from camsim.coherence import _Block, _DirEntry, _Txn
from camsim.memhier import CacheGeometry
from camsim.modelcheck import _System, _Visited, run_check
from camsim.network import Message


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


# -- visited keys ------------------------------------------------------------

def test_keys_tell_apart_transaction_crit_and_rmw_bits():
    state = _System()
    state.issue(0, "load")
    visited = _Visited()
    assert visited.add(state)
    assert not visited.add(copy.deepcopy(state))
    for field in ("crit", "rmw"):
        twin = copy.deepcopy(state)
        txn = twin.caches[0].txns[0]
        setattr(txn, field, not getattr(txn, field))
        assert visited.add(twin), field
    assert len(visited) == 3


# -- cloning -------------------------------------------------------------------

_SHAREABLE = (int, str, type(None), CacheGeometry)
_TRACKED = (_Block, _Txn, _DirEntry, Message, list, dict, set, deque)


def reachable(max_ops):
    """Every state `run_check` keeps within `max_ops` operations, in DFS
    order, deduplicated by its visited set."""
    root = _System()
    visited = _Visited()
    visited.add(root)
    stack, states = [root], []
    while stack:
        state = stack.pop()
        states.append(state)
        for action, arg in state.choices(max_ops):
            succ = copy.deepcopy(state)
            succ.apply(action, arg)
            if visited.add(succ):
                stack.append(succ)
    return states


def tracked_objects(root):
    """id -> object for every tracked mutable object reachable from root."""
    found = {}
    visited = set()
    todo = [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, _SHAREABLE) or id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, _TRACKED):
            found[id(obj)] = obj
        if isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            todo.extend(obj)
        elif hasattr(type(obj), "__slots__"):
            todo.extend(getattr(obj, name) for name in type(obj).__slots__)
        else:
            todo.extend(vars(obj).values())
    return found


def snapshot(state):
    return (state.encode(),
            [c._txn_serial for c in state.caches],
            [t.txn_id for c in state.caches for t in c.txns.values()])


def test_clones_share_no_mutable_object_with_their_parent():
    states = reachable(3)
    assert len(states) == PINNED[3][0]
    for parent in states:
        before = snapshot(parent)
        parent_objs = tracked_objects(parent)
        for action, arg in parent.choices(3):
            succ = copy.deepcopy(parent)
            assert succ.encode() == before[0]
            succ.apply(action, arg)
            assert snapshot(parent) == before, (action, arg)
            shared = parent_objs.keys() & tracked_objects(succ).keys()
            assert not shared, [type(parent_objs[i]).__name__ for i in shared]
