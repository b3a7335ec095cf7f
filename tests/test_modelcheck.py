"""Exhaustive protocol exploration at small depths (full depth runs in
the acceptance suite)."""

import copy
from collections import deque

from camsim.coherence import _Block, _DirEntry, _Txn
from camsim.memhier import CacheGeometry
from camsim.modelcheck import _System, run_check
from camsim.network import Message


# (states, quiescent, transitions) per depth. Cloning, exploration order
# and dedup keys must not change these; a change to what is explored must
# update them on purpose.
PINNED = {
    2: (138, 19, 208),
    3: (660, 63, 1180),
    4: (2631, 168, 5016),
    5: (8508, 383, 17048),
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


# -- cloning -------------------------------------------------------------------

_SHAREABLE = (int, str, type(None), CacheGeometry)
_TRACKED = (_Block, _Txn, _DirEntry, Message, list, dict, set, deque)


def reachable(max_ops):
    """Every distinct state within `max_ops` operations, in DFS order."""
    root = _System()
    seen = {root.encode()}
    stack, states = [root], []
    while stack:
        state = stack.pop()
        states.append(state)
        for action, arg in state.choices(max_ops):
            succ = copy.deepcopy(state)
            succ.apply(action, arg)
            key = succ.encode()
            if key not in seen:
                seen.add(key)
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
