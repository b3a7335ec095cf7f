"""End-to-end simulation behavior, stats, sweeps and CSV emission."""

import os
from dataclasses import replace

import pytest

from camsim.coherence import ST_M, _Block
from camsim.harness import (
    Config,
    RunStats,
    SimulationError,
    Simulator,
    SweepRow,
    UsageError,
    compute_speedup,
    config_id_of,
    emit_csv,
    format_csv,
    paper_preset,
    ratio_of,
    run_simulation,
    run_sweep,
)
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
    ("cycle_budget", 0),
])
def test_configs_that_would_hang_rejected(name, value):
    with pytest.raises(ConfigError, match=name):
        small_cfg(**{name: value}).validate()


def test_zero_latencies_run_to_correct_counters():
    for topology in ("crossbar", "torus2d", "hypercube"):
        st = run_simulation(small_cfg(
            topology=topology, lat_l1=0, lat_l2=0, lat_mem=0, lat_dir=0,
            hop_latency=0, cycle_budget=1_000_000))
        assert all(v == 4 * 2 for v in st.final_counters)
        assert st.injected == st.delivered


def test_home_uses_configured_block_size():
    # 128 B blocks: cache requests and the final-counter read must agree
    # on each block's home directory
    st = run_simulation(Config(
        topology="crossbar", procs=4, counters=20, iters=2, block_bytes=128,
        l1_kb=1, l2_kb=2, l1_assoc=1, l2_assoc=1))
    assert st.final_counters == [4 * 2] * 20


def test_cycle_budget_trips_cleanly():
    with pytest.raises(SimulationError):
        run_simulation(small_cfg(cycle_budget=100))


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


def test_swmr_violation_raises():
    sim = Simulator(small_cfg())
    for cache in sim.caches[:2]:
        cache.blocks[0x40] = _Block(ST_M)
    with pytest.raises(SimulationError, match="SWMR violation .*0x40"):
        sim._check_swmr(0x40)
    assert sim.swmr_checks == 1


def test_trace_file_closed_when_run_fails(tmp_path):
    sim = Simulator(small_cfg(trace_file=str(tmp_path / "trace.log"),
                              cycle_budget=100))
    with pytest.raises(SimulationError):
        sim.run()
    assert sim._trace_out.closed


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


def test_sweep_records_errors_and_continues():
    deltas = [dict(SMALL), dict(SMALL, counters=3, cycle_budget=50)]
    rows = run_sweep(deltas, parallel=1)
    errs = [r for r in rows if r.error]
    ok = [r for r in rows if r.stats is not None]
    assert len(errs) == 2 and len(ok) == 2


def test_csv_format(tmp_path):
    base = run_simulation(small_cfg())
    cam = run_simulation(small_cfg(cam=True))
    rows = [
        SweepRow(config_id_of(small_cfg()), base),
        SweepRow(config_id_of(small_cfg(cam=True)), cam,
                 compute_speedup(base, cam)),
    ]
    out = tmp_path / "sweep.csv"
    emit_csv(rows, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == ("config_id,topology,procs,counters,iters,bandwidth,"
                        "cam,seed,cycles,crit_reqs,noncrit_reqs,ratio,"
                        "avg_link_util,avg_contention_cycles,speedup")
    assert len(lines) == 3
    base_cells = lines[1].split(",")
    cam_cells = lines[2].split(",")
    assert base_cells[6] == "off" and cam_cells[6] == "on"
    assert base_cells[-1] == "" and cam_cells[-1] != ""
    assert out.read_text().endswith("\n")
    # six decimal places on floats
    assert len(base_cells[11].split(".")[1]) == 6


def test_csv_header_only_for_empty_table(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], str(out))
    text = out.read_text()
    assert text.count("\n") == 1 and text.startswith("config_id,")


def test_emit_csv_bad_path():
    with pytest.raises(OSError):
        emit_csv([], "/nonexistent-dir/x.csv")


def test_byte_identical_csv_across_runs(tmp_path):
    def emit_once(path):
        base = run_simulation(small_cfg())
        cam = run_simulation(small_cfg(cam=True))
        rows = [SweepRow(config_id_of(small_cfg()), base),
                SweepRow(config_id_of(small_cfg(cam=True)), cam,
                         compute_speedup(base, cam))]
        emit_csv(rows, str(path))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_once(a)
    emit_once(b)
    assert a.read_bytes() == b.read_bytes()


def test_paper_preset_matrix_size():
    deltas = paper_preset()
    assert len(deltas) == 24           # 3 topologies x 2 procs x 2 counters x 2 bw
    seen = {(d["topology"], d["procs"], d["counters"], d["bandwidth"])
            for d in deltas}
    assert len(seen) == 24


def test_trace_log_written(tmp_path):
    path = tmp_path / "trace.log"
    run_simulation(small_cfg(iters=1, trace_file=str(path)))
    lines = path.read_text().splitlines()
    assert lines
    # format: cycle node event addr old new crit
    parts = lines[0].split()
    assert len(parts) == 7
    int(parts[0]); int(parts[1]); int(parts[-1])


def test_threads_fewer_than_procs():
    st = run_simulation(small_cfg(procs=4, threads=2))
    assert all(v == 2 * 2 for v in st.final_counters)
