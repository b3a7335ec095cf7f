"""Microbenchmark generation, program validation and core stepping."""

import io

import pytest

from camsim.workload import (
    CoreState,
    CRIT_ENTER,
    CRIT_EXIT,
    INC,
    LOAD,
    LOCK,
    STORE,
    UNLOCK,
    WorkloadError,
    apply_crit_marker,
    gen_microbenchmark,
    sequential_oracle,
    validate_program,
)


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
    final = sequential_oracle(prog)
    assert final[prog.counter_addrs[0]] == 1


def test_oracle_final_counts():
    prog = gen_microbenchmark(2, 3, 2, 1)
    final = sequential_oracle(prog)
    for addr in prog.counter_addrs:
        assert final[addr] == 2 * 2          # threads x iters


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
    for base, count in prog.scratch_ranges:
        for k in range(count):
            b = base // 64 + k
            assert b not in blocks
            blocks.add(b)


def test_scratch_blocks_fresh_per_pair():
    prog = gen_microbenchmark(1, 1, 3, 4)
    loads = [ins[1] for ins in prog.threads[0]
             if ins[0] == LOAD and ins[1] not in prog.counter_addrs]
    assert len(loads) == len(set(loads)) == 12   # iters x noncrit_work


def test_memory_overflow_rejected():
    with pytest.raises(WorkloadError):
        gen_microbenchmark(16, 1, 100, 10000, mem_bytes=1024 * 1024)


def test_validation_catches_bad_nesting():
    prog = gen_microbenchmark(1, 1, 1, 0)
    prog.threads[0] = [(CRIT_ENTER,), (CRIT_EXIT,)]
    with pytest.raises(WorkloadError):
        validate_program(prog)
    prog.threads[0] = [(LOCK, 0), (CRIT_ENTER,), (UNLOCK, 0), (CRIT_EXIT,)]
    with pytest.raises(WorkloadError):
        validate_program(prog)


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
