"""Memory stays compact: per directory block a run has touched, per
simulator constructed, and per state the model checker has visited."""

import tracemalloc
from collections import deque

from camsim.coherence import (
    DIR_S,
    GETS,
    UNBLOCK,
    DirectoryController,
)
from camsim.harness import Config, Simulator
from camsim.modelcheck import run_check
from camsim.network import Message


def spy_on_queueing(sim):
    """Wrap every directory's `handle`; returns the set of (node, addr)
    whose entry ever queued a request."""
    queued = set()
    for d in sim.dirs:
        def handle(msg, from_queue=False, inner=d.handle, node=d.node,
                   entries=d.entries):
            result = inner(msg, from_queue)
            # the queue is made only when a request first has to wait
            if entries[msg.addr].pending is not None:
                queued.add((node, msg.addr))
            return result
        d.handle = handle
    return queued


def test_entries_hold_no_empty_containers():
    sim = Simulator(Config(topology="crossbar", procs=4, counters=6, iters=2,
                           noncrit_work=8, lat_mem=10))
    queued = spy_on_queueing(sim)
    sim.run()
    assert queued, "the run must exercise the pending queue"
    empty = set()
    for d in sim.dirs:
        for addr, e in d.entries.items():
            assert type(e.sharers) is frozenset
            assert e.busy is None
            if (d.node, addr) in queued:
                assert type(e.pending) is deque and not e.pending
            else:
                assert e.pending is None, (d.node, hex(addr))
            if not e.sharers:
                empty.add(id(e.sharers))
    assert len(empty) == 1          # one shared empty set


def test_unblock_installs_final_sharers_by_identity():
    d = DirectoryController(0, 4)
    addr = 0x40
    e = d.entry(addr)
    e.state = DIR_S
    e.sharers = frozenset({2, 3})
    d.handle(Message(GETS, False, 0, 1, 0, addr, 1))
    final = e.busy[3]
    assert final == {1, 2, 3} and type(final) is frozenset
    d.handle(Message(UNBLOCK, False, 0, 1, 0, addr, 1))
    assert e.sharers is final


def test_run_allocates_little_per_directory_entry():
    # An entry used to carry an empty deque and a fresh set per unblock,
    # about 1.5 kB per block touched; compact entries take about 0.5 kB.
    sim = Simulator(Config(topology="crossbar", procs=4, counters=8, iters=2,
                           noncrit_work=200, lat_mem=10))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.run()
        added = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(len(d.entries) for d in sim.dirs)
    assert entries > 1000
    assert added / entries <= 800, (added, entries)


PRESET_CELL = dict(topology="torus2d", procs=16, counters=300,
                   noncrit_work=5000, lat_mem=30)


def traced_construction(**kw):
    """Bytes of traced memory a `Simulator` holds once constructed."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = Simulator(Config(**kw))      # alive while measured
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_preset_cell_constructs_in_little_memory():
    # a materialized program took about 39 MB here; streamed, the whole
    # simulator takes well under 1 MB before it runs
    assert traced_construction(iters=3, **PRESET_CELL) < 1 << 20


def test_program_memory_independent_of_iters():
    traced_construction(iters=1, **PRESET_CELL)        # warm module caches
    one = traced_construction(iters=1, **PRESET_CELL)
    eight = traced_construction(iters=8, **PRESET_CELL)
    assert eight - one < 64 << 10, (one, eight)


def test_checker_keeps_little_per_visited_state():
    # a visited set of full nested-tuple encodings peaked at about 1.5 kB
    # per state; a tuple of interned part ids peaks at about 230 B
    tracemalloc.start()
    try:
        result = run_check(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / result.states <= 400, (peak, result.states)
