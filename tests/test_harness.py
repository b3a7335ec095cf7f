"""End-to-end simulation behavior, stats, sweeps and CSV emission."""

import io
import re
from dataclasses import replace

import pytest

from camsim.coherence import (
    DATA_DIR,
    FWD_GETS,
    FWD_GETX,
    INV,
    ST_M,
    ST_MI,
    ST_O,
    ST_OI,
    WB_ACK,
    _Block,
    home_node,
)
from camsim.harness import (
    Config,
    SimulationError,
    Simulator,
    SweepRow,
    UsageError,
    _EV_CORE,
    _EV_ISSUE,
    _R_CORE,
    compute_speedup,
    config_id_of,
    format_csv,
    paper_preset,
    ratio_of,
    run_simulation,
    run_sweep,
)
from camsim.network import Message
from camsim.topology import ConfigError, TOPOLOGY_KINDS


SMALL = dict(topology="crossbar", procs=4, counters=6, iters=2,
             noncrit_work=8, lat_mem=10)


def small_cfg(**kw):
    args = dict(SMALL)
    args.update(kw)
    return Config(**args)


def test_minimal_run_functional():
    cfg = Config(topology="crossbar", procs=2, threads=1, counters=1,
                 iters=1, noncrit_work=0)
    st = run_simulation(cfg)
    assert st.final_counters == [1]
    assert st.crit_reqs >= 1


def test_counters_end_at_threads_times_iters():
    st = run_simulation(small_cfg())
    assert all(v == 4 * 2 for v in st.final_counters)


def test_run_is_deterministic():
    a = run_simulation(small_cfg())
    b = run_simulation(small_cfg())
    assert a == b


def test_cam_flag_changes_arbitration_only():
    # without crit tagging CAM has no critical lane to favour, so the CAM
    # run must equal the baseline in everything but the flag itself
    for topology in TOPOLOGY_KINDS:
        base = run_simulation(small_cfg(topology=topology, crit_tagging=False))
        cam = run_simulation(small_cfg(topology=topology, crit_tagging=False,
                                       cam=True))
        assert all(v == 8 for v in cam.final_counters)
        assert cam.cam and replace(cam, cam=False) == base


def test_baseline_neutrality_of_crit_tagging():
    tagged = run_simulation(small_cfg(cam=False, crit_tagging=True))
    untagged = run_simulation(small_cfg(cam=False, crit_tagging=False))
    assert tagged.total_cycles == untagged.total_cycles
    assert untagged.crit_reqs == 0


def test_jitter_mode_keeps_functional_results():
    for seed in (1, 5, 9):
        st = run_simulation(small_cfg(jitter=3, seed=seed))
        assert all(v == 8 for v in st.final_counters)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        Config(topology="mesh").validate()
    with pytest.raises(ConfigError):
        Config(topology="hypercube", procs=12).validate()
    with pytest.raises(ConfigError):
        small_cfg(counters=0).validate()


@pytest.mark.parametrize("name,value", [
    ("lat_l1", -1), ("lat_l2", -20), ("lat_mem", -1), ("lat_dir", -1),
    ("hop_latency", -1), ("jitter", -1),
    ("msg_bytes_control", 0), ("msg_bytes_data", 0), ("mem_mb", 0),
    ("bandwidth", 0),
])
def test_configs_that_would_hang_rejected(name, value):
    with pytest.raises(ConfigError, match=name):
        small_cfg(**{name: value}).validate()


def test_zero_latencies_run_to_correct_counters():
    for topology in ("crossbar", "torus2d", "hypercube"):
        st = run_simulation(small_cfg(
            topology=topology, lat_l1=0, lat_l2=0, lat_mem=0, lat_dir=0,
            hop_latency=0))
        assert all(v == 4 * 2 for v in st.final_counters)
        assert st.injected == st.delivered


def test_home_uses_configured_block_size():
    # 128 B blocks: cache requests and the final-counter read must agree
    # on each block's home directory
    st = run_simulation(Config(
        topology="crossbar", procs=4, counters=20, iters=2, block_bytes=128,
        l1_kb=1, l2_kb=2, l1_assoc=1, l2_assoc=1))
    assert st.final_counters == [4 * 2] * 20


def test_watchdog_fires_at_every_boundary_crossed():
    # long memory latency: event-driven skips jump over every boundary
    sim = Simulator(small_cfg(lat_mem=7000, iters=4))
    calls = []
    watchdog = sim._watchdog
    sim._watchdog = lambda cycle: (calls.append(cycle), watchdog(cycle))
    st = sim.run()
    assert st.total_cycles > 4 * 65536
    boundaries = [c >> 16 for c in calls]
    assert boundaries == list(range(len(calls)))
    assert len(calls) >= st.total_cycles >> 16


@pytest.mark.parametrize("cfg", [
    Config(topology="crossbar", procs=2, counters=1, iters=1,
           noncrit_work=1, lat_mem=1_100_000),
    Config(topology="torus2d", procs=4, counters=2, iters=2,
           noncrit_work=2, lat_dir=200_000),
    Config(topology="torus2d", procs=4, counters=2, iters=2,
           noncrit_work=2, hop_latency=400_000),
], ids=("lat_mem", "lat_dir", "hop_latency"))
def test_long_latencies_are_not_taken_for_a_livelock(cfg):
    # each run has a stretch of over 1M cycles in which no core advances
    # its program: one miss, a long critical section, or long hops
    st = run_simulation(cfg)
    assert st.final_counters == [cfg.n_threads() * cfg.iters] * cfg.counters


def drop_first_issue(sim, tids):
    """Each core in `tids` loses its first memory request: the request is
    never issued, so the core waits for a reply that never comes."""
    issue_mem = sim._issue_mem
    dropped = set()

    def issue_mem_dropping(tid):
        if tid in tids and tid not in dropped:
            dropped.add(tid)
        else:
            issue_mem(tid)

    sim._issue_mem = issue_mem_dropping


def test_stall_reports_deadlock_naming_the_stuck_core():
    # T1 waits on a request that was never sent; once the others finish,
    # nothing is scheduled and nothing is in flight
    sim = Simulator(small_cfg())
    drop_first_issue(sim, {1})
    with pytest.raises(SimulationError, match="deadlock") as err:
        sim.run()
    assert "1 cores unfinished" in str(err.value)
    assert re.findall(r"T\d+ pc=", str(err.value)) == ["T1 pc="]


def test_test_and_set_livelock_trips_cleanly():
    # Every test-and-set loses yet leaves the lock at 0, whether it hits
    # or completes a miss: the cores re-read 0, retry and lose forever.
    # Requests keep completing, but no core gets past its LOCK, the first
    # instruction, so the watchdog fires at the first boundary sample past
    # the window.
    sim = Simulator(small_cfg(noncrit_work=0))
    complete = sim._complete
    finish_core_op = sim._finish_core_op
    lost, lost_on_miss = [], []

    def complete_losing_every_tas(tid, value, at):
        op, addr = sim.core_op[tid][:2]
        if op == "rmw":
            sim.caches[tid].blocks[addr].data = 0
            lost.append(tid)
            value = 1
        complete(tid, value, at)

    def finish_core_op_counting(node, addr, result):
        if sim.core_op[node][0] == "rmw":
            lost_on_miss.append(node)
        finish_core_op(node, addr, result)

    sim._complete = complete_losing_every_tas
    sim._finish_core_op = finish_core_op_counting
    with pytest.raises(SimulationError, match="livelock") as err:
        sim.run()
    assert re.findall(r"T(\d+) pc=(\d+) ", str(err.value)) == [
        ("0", "0"), ("1", "0"), ("2", "0"), ("3", "0")]
    # both paths lose: hits, and misses completed by the protocol
    assert len(lost) > len(lost_on_miss) > 0
    assert sim.watch_window < sim.cycle <= sim.watch_window + 65536


def test_watchdog_names_a_core_that_never_retires():
    # T1 re-issues its first request forever: events keep flowing and the
    # other cores finish, but T1 never advances its program
    sim = Simulator(small_cfg())
    issue_mem = sim._issue_mem

    def issue_mem_livelocking_t1(tid):
        if tid == 1:
            sim._push(sim.cycle + 1000, _R_CORE, _EV_ISSUE, tid)
        else:
            issue_mem(tid)

    sim._issue_mem = issue_mem_livelocking_t1
    with pytest.raises(SimulationError, match="livelock") as err:
        sim.run()
    assert re.findall(r"T\d+ pc=", str(err.value)) == ["T1 pc="]
    assert sim.cycle > sim.watch_window == 1_000_000


def test_event_in_the_past_fails_fast():
    # an event scheduled before the current cycle is never reached: the
    # run must raise at the cycle it was pushed, not spin to the budget
    sim = Simulator(small_cfg())
    step_core = sim._step_core
    pushed = []

    def step_core_then_push_stale(tid, response):
        step_core(tid, response)
        if not pushed and sim.cycle > 100:
            pushed.append(sim.cycle)
            sim._push(sim.cycle - 1, _R_CORE, _EV_CORE, tid, None)

    sim._step_core = step_core_then_push_stale
    with pytest.raises(SimulationError) as err:
        sim.run()
    assert str(err.value) == (
        "core event scheduled for cycle %d, before the current cycle %d"
        % (pushed[0] - 1, pushed[0]))
    assert sim.cycle == pushed[0]


def test_swmr_violation_raises():
    sim = Simulator(small_cfg())
    for cache in sim.caches[:2]:
        cache.blocks[0x40] = _Block(ST_M)
    with pytest.raises(SimulationError, match="SWMR violation .*0x40"):
        sim._check_swmr(0x40)
    assert sim.swmr_checks == 1


@pytest.mark.parametrize("held", [None, ("load", 0x80, None, False)])
def test_stray_core_done_raises(held):
    # a completion for no held request, or for another address, means the
    # memory system answered a request the core never made
    sim = Simulator(small_cfg())
    sim.core_op[1] = held
    with pytest.raises(SimulationError,
                       match="node 1: core_done for 0x40 .* holds %s"
                       % re.escape(repr(held))):
        sim._finish_core_op(1, 0x40, 0)
    assert sim.core_op[1] == held and not sim.evq


# -- waiting cores: spin loads on a held lock, requests behind a writeback

LOCK = 0x80                              # homed at node 2 of 4


def to_node1(mtype, **kw):
    """A message from LOCK's home to node 1, on behalf of node 3."""
    return Message(mtype, home_node(LOCK, 4, 64), 1, LOCK, False,
                   requester=3, **kw)


def waiting_core(op, state):
    """Node 1 holds LOCK = 1 in `state` and its core has issued `op` on
    it; returns the simulator, with the core waiting."""
    sim = Simulator(small_cfg())
    cache = sim.caches[1]
    cache.load(LOCK, False)
    cache.handle(to_node1(DATA_DIR, value=1, excl=state != "S"))
    if state in ("M", "MI"):
        cache.store(LOCK, False, 1)
    if state == "MI":
        cache.evict(LOCK)
    sim.core_op[1] = (op, LOCK, None, False)
    sim._issue_mem(1)
    assert sim.waiting[1] == LOCK and not sim.evq
    sim.cycle = 100
    return sim


def reissues(sim):
    return [(ev[0], ev[4]) for ev in sim.evq if ev[3] == _EV_ISSUE]


@pytest.mark.parametrize("state", ["E", "M"])
def test_spinner_waits_while_its_copy_stays_readable(state):
    sim = waiting_core("spin", state)
    sim._process_cache(to_node1(FWD_GETS))
    assert sim.caches[1].state_of(LOCK) == ST_O
    assert sim.waiting[1] == LOCK and reissues(sim) == []


@pytest.mark.parametrize("mtype,state", [(INV, "S"), (FWD_GETX, "E"),
                                         (FWD_GETX, "M")])
def test_spinner_reissued_when_its_copy_is_taken(mtype, state):
    sim = waiting_core("spin", state)
    # a message for another block leaves the spinner waiting
    sim._process_cache(Message(INV, 0, 1, 0x40, False, requester=3))
    assert reissues(sim) == []
    sim._process_cache(to_node1(mtype, acks=0))
    assert sim.waiting[1] is None and reissues(sim) == [(101, 1)]


def test_stalled_request_reissued_after_its_writeback():
    sim = waiting_core("load", "MI")
    assert sim.caches[1].state_of(LOCK) == ST_MI
    sim._process_cache(to_node1(FWD_GETS))    # the writeback still holds it
    assert sim.caches[1].state_of(LOCK) == ST_OI
    assert sim.waiting[1] == LOCK and reissues(sim) == []
    sim._process_cache(to_node1(WB_ACK))
    assert sim.waiting[1] is None and reissues(sim) == [(101, 1)]


def test_ratio_definition():
    assert abs(ratio_of(298038, 479900) - 0.383113) < 5e-7
    assert ratio_of(0, 0) == 0.0
    assert ratio_of(5, 0) == 1.0


def test_link_utilization_in_unit_range():
    st = run_simulation(small_cfg())
    assert 0.0 <= st.avg_link_utilization <= 1.0
    assert all(0 <= b <= st.total_cycles for b in st.link_busy_cycles)
    assert all(c <= st.total_cycles for c in st.link_contention_cycles)


def test_message_conservation():
    st = run_simulation(small_cfg())
    assert st.injected == st.delivered


def test_compute_speedup_validates_pairing():
    base = run_simulation(small_cfg())
    cam = run_simulation(small_cfg(cam=True))
    assert compute_speedup(base, cam) == base.total_cycles / cam.total_cycles
    with pytest.raises(UsageError):
        compute_speedup(cam, base)
    other = run_simulation(small_cfg(counters=5, cam=True))
    with pytest.raises(UsageError):
        compute_speedup(base, other)


def test_speedup_paper_arithmetic():
    # spot-check the ratio arithmetic against published pairs
    assert abs(152067271 / 144425566 - 1.052911) < 1e-6
    assert abs(86058039 / 77021911 - 1.117319) < 1e-6


def test_run_sweep_pairs_and_order(tmp_path):
    deltas = [dict(SMALL), dict(SMALL, counters=4)]
    rows = run_sweep(deltas, parallel=1)
    assert len(rows) == 4
    ids = [r.config_id for r in rows]
    assert ids == sorted(ids)
    for row in rows:
        if row.stats.cam:
            assert row.speedup is not None
        else:
            assert row.speedup is None


def test_process_pool_sweep_matches_serial():
    # the pool pickles each Config to a worker and the stats back
    deltas = [dict(SMALL), dict(SMALL, counters=4)]
    pooled = format_csv(run_sweep(deltas, parallel=2))
    assert pooled == format_csv(run_sweep(deltas, parallel=1))


def serial_pool(asked):
    """A stand-in for `ProcessPoolExecutor` that maps in this process and
    appends the worker count each pool is asked for to `asked`."""

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return SerialPool


def test_sweep_forks_no_more_workers_than_runs(monkeypatch):
    asked = []
    # `run_sweep` imports the pool when it forks, from its home module
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        serial_pool(asked))
    deltas = [dict(SMALL), dict(SMALL, counters=4)]
    pooled = format_csv(run_sweep(deltas, parallel=10_000))
    assert asked == [4]
    assert pooled == format_csv(run_sweep(deltas, parallel=1))
    assert asked == [4]


def test_sweep_records_errors_and_continues():
    # the second pair's scratch regions overflow 1 MB of memory
    deltas = [dict(SMALL), dict(SMALL, counters=3, mem_mb=1,
                                noncrit_work=100_000)]
    rows = run_sweep(deltas, parallel=1)
    errs = [r for r in rows if r.error]
    ok = [r for r in rows if r.stats is not None]
    assert len(errs) == 2 and len(ok) == 2


def test_sweep_rejects_colliding_config_ids():
    # the id omits the seed, so the second pair would replace the first
    with pytest.raises(UsageError, match="crossbar.4p.c6.bw125.base"):
        run_sweep([dict(SMALL, seed=1), dict(SMALL, seed=2)], parallel=1)


def test_wrong_final_counter_raises(monkeypatch):
    real = Simulator.final_counter_values

    def off_by_one(self):
        values = real(self)
        values[1] -= 1
        return values

    monkeypatch.setattr(Simulator, "final_counter_values", off_by_one)
    # counter 1 sits in block 2; 4 threads x 2 iters = 8
    with pytest.raises(SimulationError,
                       match="counter 0x80 ended at 7, expected 8"):
        run_simulation(small_cfg())
    rows = run_sweep([dict(SMALL)], parallel=1)
    assert len(rows) == 2
    for row in rows:
        assert row.stats is None and "counter 0x80" in row.error


def test_csv_format():
    base = run_simulation(small_cfg())
    cam = run_simulation(small_cfg(cam=True))
    rows = [
        SweepRow(config_id_of(small_cfg()), base),
        SweepRow(config_id_of(small_cfg(cam=True)), cam,
                 compute_speedup(base, cam)),
    ]
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ("config_id,topology,procs,counters,iters,bandwidth,"
                        "cam,seed,cycles,crit_reqs,noncrit_reqs,ratio,"
                        "avg_link_util,avg_contention_cycles,speedup")
    assert len(lines) == 3
    base_cells = lines[1].split(",")
    cam_cells = lines[2].split(",")
    assert base_cells[6] == "off" and cam_cells[6] == "on"
    assert base_cells[-1] == "" and cam_cells[-1] != ""
    assert text.endswith("\n")
    # six decimal places on floats
    assert len(base_cells[11].split(".")[1]) == 6


def test_csv_header_only_for_empty_table():
    text = format_csv([])
    assert text.count("\n") == 1 and text.startswith("config_id,")


def test_csv_error_row_is_blank_after_its_id():
    # a failed run keeps its row, named by its id, with every other cell
    # empty; the error text itself is not a CSV column
    text = format_csv([SweepRow("crossbar.4p.c6.bw125.cam", None,
                                error="SimulationError: deadlock")])
    header, row = text.splitlines()
    assert row.split(",") == ["crossbar.4p.c6.bw125.cam"] + [""] * (
        len(header.split(",")) - 1)


def test_byte_identical_csv_across_runs():
    def format_once():
        base = run_simulation(small_cfg())
        cam = run_simulation(small_cfg(cam=True))
        rows = [SweepRow(config_id_of(small_cfg()), base),
                SweepRow(config_id_of(small_cfg(cam=True)), cam,
                         compute_speedup(base, cam))]
        return format_csv(rows).encode()
    assert format_once() == format_once()


def test_paper_preset_matrix_size():
    deltas = paper_preset()
    assert len(deltas) == 24           # 3 topologies x 2 procs x 2 counters x 2 bw
    seen = {(d["topology"], d["procs"], d["counters"], d["bandwidth"])
            for d in deltas}
    assert len(seen) == 24


def test_trace_log_written():
    trace = io.StringIO()
    Simulator(small_cfg(iters=1)).run(trace)
    lines = trace.getvalue().splitlines()
    assert lines
    # format: cycle node event addr old new crit
    parts = lines[0].split()
    assert len(parts) == 7
    int(parts[0]); int(parts[1]); int(parts[-1])


def test_untagged_trace_logs_nothing_critical():
    # without crit tagging no request is critical, so neither is any cache
    # or directory transition, nor any message sent or received
    trace = io.StringIO()
    Simulator(small_cfg(counters=2, iters=1, noncrit_work=2,
                        crit_tagging=False)).run(trace)
    lines = trace.getvalue().splitlines()
    assert any(" issue_" in ln for ln in lines)
    assert [ln for ln in lines if ln.endswith(" 1")] == []


def test_threads_fewer_than_procs():
    st = run_simulation(small_cfg(procs=4, threads=2))
    assert all(v == 2 * 2 for v in st.final_counters)
