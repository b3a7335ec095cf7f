"""Microbenchmark generation, crit markers and core stepping."""

import io
import random

import pytest

from camsim.workload import (
    CoreState,
    CRIT_ENTER,
    CRIT_EXIT,
    INC,
    LOAD,
    LOCK,
    Program,
    STORE,
    UNLOCK,
    WorkloadError,
    apply_crit_marker,
    gen_microbenchmark,
)


def reference_threads(n_threads, n_counters, iters, noncrit_work,
                      block_bytes=64):
    """The program as one materialized instruction list per thread."""
    lock_addr = 0
    counter_addrs = [(1 + i) * block_bytes for i in range(n_counters)]
    scratch_first = 1 + n_counters
    per_thread_blocks = iters * noncrit_work
    section = [(LOCK, lock_addr), (CRIT_ENTER,)]
    for c in counter_addrs:
        section.append((LOAD, c))
        section.append((STORE, c, INC))
    section.append((CRIT_EXIT,))
    section.append((UNLOCK, lock_addr))
    threads = []
    for t in range(n_threads):
        seq = []
        fresh = scratch_first + t * per_thread_blocks
        for _ in range(iters):
            for _ in range(noncrit_work):
                a = fresh * block_bytes
                fresh += 1
                seq.append((LOAD, a))
                seq.append((STORE, a, INC))
            seq.extend(section)
        threads.append(seq)
    return threads


SHAPES = [(1, 1, 1, 0, 64), (4, 8, 2, 5, 64), (16, 3, 3, 4, 64),
          (4, 8, 2, 5, 128)]


@pytest.mark.parametrize("shape", SHAPES)
def test_streamed_threads_match_reference(shape):
    *dims, block_bytes = shape
    prog = gen_microbenchmark(*dims, block_bytes=block_bytes)
    ref = reference_threads(*dims, block_bytes=block_bytes)
    assert len(prog.threads) == len(ref)
    for seq, want in zip(prog.threads, ref):
        assert list(seq) == want
        assert len(seq) == len(want)
        assert list(seq) == list(seq)      # re-iterable
    streamed, listed = io.StringIO(), io.StringIO()
    prog.dump(streamed)
    Program(ref, prog.lock_addr, prog.counter_addrs).dump(listed)
    assert streamed.getvalue() == listed.getvalue()


def drive(core, seed):
    """Step `core` to completion with seeded responses; its actions."""
    rng = random.Random(seed)
    actions = []
    action = core.step()
    while action[0] != "done":
        actions.append(action)
        if action[0] == "mem" and action[1] in ("load", "rmw", "spin"):
            # a failed test-and-set now and then sends the core back to spin
            action = core.step(rng.choice((0, 0, 1)) if action[1] == "rmw"
                               else rng.randrange(100))
        else:
            action = core.step()
    return actions


@pytest.mark.parametrize("shape", SHAPES)
def test_core_over_streamed_thread_acts_as_over_list(shape):
    *dims, block_bytes = shape
    prog = gen_microbenchmark(*dims, block_bytes=block_bytes)
    ref = reference_threads(*dims, block_bytes=block_bytes)
    for t in (0, len(ref) - 1):
        streamed = CoreState(t, prog.threads[t])
        listed = CoreState(t, ref[t])
        assert drive(streamed, t) == drive(listed, t)
        assert streamed.pc == listed.pc == len(ref[t])


def test_single_thread_single_counter():
    prog = gen_microbenchmark(1, 1, 1, 0)
    seq = prog.threads[0]
    crit_ops = 0
    inside = False
    for ins in seq:
        if ins[0] == CRIT_ENTER:
            inside = True
        elif ins[0] == CRIT_EXIT:
            inside = False
        elif ins[0] in (LOAD, STORE) and inside:
            crit_ops += 1
    assert crit_ops == 2


def test_crit_ops_scale_with_counters():
    for n in (100, 300):
        prog = gen_microbenchmark(1, n, 1, 0)
        inside = False
        crit_ops = 0
        for ins in prog.threads[0]:
            if ins[0] == CRIT_ENTER:
                inside = True
            elif ins[0] == CRIT_EXIT:
                inside = False
            elif ins[0] in (LOAD, STORE) and inside:
                crit_ops += 1
        assert crit_ops == 2 * n


def test_address_map_disjoint():
    prog = gen_microbenchmark(4, 8, 2, 5)
    blocks = {prog.lock_addr // 64}
    for a in prog.counter_addrs:
        b = a // 64
        assert b not in blocks
        blocks.add(b)
    for seq in prog.threads:
        # scratch: every block the thread touches outside LOCK .. UNLOCK
        scratch = set()
        held = False
        for ins in seq:
            if ins[0] in (LOCK, UNLOCK):
                held = ins[0] == LOCK
            elif ins[0] in (LOAD, STORE) and not held:
                scratch.add(ins[1] // 64)
        assert len(scratch) == 2 * 5              # iters x noncrit_work
        assert not scratch & blocks
        blocks |= scratch


def test_scratch_blocks_fresh_per_pair():
    prog = gen_microbenchmark(1, 1, 3, 4)
    loads = [ins[1] for ins in prog.threads[0]
             if ins[0] == LOAD and ins[1] not in prog.counter_addrs]
    assert len(loads) == len(set(loads)) == 12   # iters x noncrit_work


def test_memory_overflow_rejected():
    with pytest.raises(WorkloadError):
        gen_microbenchmark(16, 1, 100, 10000, mem_bytes=1024 * 1024)


def test_program_dump_format():
    prog = gen_microbenchmark(1, 1, 1, 1)
    out = io.StringIO()
    prog.dump(out)
    text = out.getvalue()
    assert "T0 LOCK" in text and "T0 CRIT_ENTER" in text
    assert "T0 STORE" in text


def test_crit_marker_toggling():
    core = CoreState(0, [])
    assert not core.crit
    apply_crit_marker(core, CRIT_ENTER)
    assert core.crit
    apply_crit_marker(core, CRIT_EXIT)
    assert not core.crit
    with pytest.raises(WorkloadError):
        apply_crit_marker(core, CRIT_EXIT)


def test_core_tags_requests_with_crit_flag():
    prog = gen_microbenchmark(1, 1, 1, 1)
    core = CoreState(0, prog.threads[0])
    seen = []
    action = core.step()
    while action[0] != "done":
        if action[0] == "mem":
            seen.append((action[1], action[2], action[4]))
            resp = 0  # every load observes 0; rmw succeeds
            action = core.step(resp)
        else:
            action = core.step()
    # scratch pair: noncrit; lock ops: noncrit; counter pair: crit
    kinds = [(op, crit) for op, addr, crit in seen]
    assert ("load", False) in kinds          # scratch load
    assert ("spin", False) in kinds          # lock acquire path
    assert ("rmw", False) in kinds
    assert ("load", True) in kinds           # counter load inside CS
    assert ("store", True) in kinds
    # unlock store is noncrit (markers sit inside the lock)
    assert kinds[-1] == ("store", False)


def test_core_retries_failed_rmw():
    prog = [(LOCK, 0), (CRIT_ENTER,), (CRIT_EXIT,), (UNLOCK, 0)]
    core = CoreState(0, prog)
    action = core.step()
    assert action[1] == "spin"
    action = core.step(0)        # spin observed 0
    assert action[1] == "rmw"
    action = core.step(1)        # test-and-set failed: back to spinning
    assert action[1] == "spin"
    action = core.step(0)
    assert action[1] == "rmw"
    action = core.step(0)        # acquired
    assert action[0] == "local"  # crit markers execute locally
    action = core.step()
    assert action[1] == "store" and action[3] == 0  # unlock writes 0


def test_store_value_is_increment_of_last_load():
    prog = [(LOAD, 0x100), (STORE, 0x100, INC)]
    core = CoreState(0, prog)
    action = core.step()
    assert action[:3] == ("mem", "load", 0x100)
    action = core.step(41)
    assert action[:4] == ("mem", "store", 0x100, 42)


def test_program_ending_in_crit_markers():
    # trailing markers are charged as one local step, with the program
    # already done, before the core reports it finished
    core = CoreState(0, [(LOAD, 0x40), (CRIT_ENTER,), (CRIT_EXIT,)])
    assert core.step() == ("mem", "load", 0x40, None, False)
    assert not core.done
    assert core.step(7) == ("local", 2)
    assert core.done and core.pc == 3 and core.last_load == 7
    assert core.step() == ("done",)
    assert core.done and core.pc == 3
