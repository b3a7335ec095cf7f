"""Acceptance suite: one test per acceptance criterion.

Criteria 1, 2 (SWMR) and 5-7 and the preset CSV golden check share a
single execution of the `paper` sweep preset (session-scoped fixture;
expect several minutes of wall time on one core). Each criterion test
prints a PASS/FAIL line.
"""

import os
import sys
from collections import deque

import pytest

from camsim.harness import (
    Config,
    compute_speedup,
    format_csv,
    paper_preset,
    ratio_of,
    run_simulation,
    run_sweep,
)
from camsim.modelcheck import run_check
from camsim.topology import build_topology


TOPOS = ("crossbar", "torus2d", "hypercube")
GOLDEN_PRESET = os.path.join(os.path.dirname(__file__), "data",
                             "golden_preset.csv")


def report(criterion, ok, detail=""):
    line = "ACCEPTANCE %-38s %s" % (criterion, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line, file=sys.stderr)
    assert ok, "%s: %s" % (criterion, detail)


@pytest.fixture(scope="session")
def preset_rows():
    rows = run_sweep(paper_preset(), parallel=None)
    assert all(r.error is None for r in rows), \
        [(r.config_id, r.error) for r in rows if r.error]
    return {r.config_id: r for r in rows}


def row(rows, topo, procs, counters, bw, cam):
    cid = "%s.%dp.c%d.bw%d.%s" % (topo, procs, counters, bw,
                                  "cam" if cam else "base")
    return rows[cid]


def test_criterion_1_functional_correctness(preset_rows):
    bad = []
    for cid, r in preset_rows.items():
        expected = r.stats.procs * r.stats.iters
        if any(v != expected for v in r.stats.final_counters):
            bad.append(cid)
    report("1 functional end-to-end", not bad, "bad=%s" % bad)


def test_criterion_2_swmr_and_data_value(preset_rows):
    # Every run checks SWMR: run_simulation raises on any violation, so
    # reaching here means zero violations there.
    checks = sum(r.stats.swmr_checks for r in preset_rows.values())
    report("2 SWMR + data-value (preset)", checks > 0,
           "%d transaction checks" % checks)


def test_criterion_2_jitter_seeds():
    bad = []
    for seed in range(100):
        cfg = Config(topology="crossbar", procs=4, counters=6, iters=2,
                     noncrit_work=8, lat_mem=10, jitter=3, seed=seed)
        st = run_simulation(cfg)
        if any(v != 8 for v in st.final_counters):
            bad.append(seed)
    report("2 jitter-mode seeds (100)", not bad, "bad seeds=%s" % bad)


def test_criterion_3_exhaustive_model_check():
    result = run_check(max_ops=8)
    report("3 exhaustive depth-8 check", result.quiescent > 0,
           "%d states, %d quiescent" % (result.states, result.quiescent))


def test_criterion_4_routing_oracle():
    # the routes the network precomputes and messages follow must be
    # shortest paths between every pair of link-graph nodes, the crossbar's
    # router included
    problems = []
    for kind in TOPOS:
        topo = build_topology(kind, 16)
        # independent BFS oracle over the raw link set
        adj = {}
        for (a, b) in topo.links:
            adj.setdefault(a, []).append(b)
        nodes = sorted(adj)
        for src in nodes:
            dist = {src: 0}
            q = deque([src])
            while q:
                x = q.popleft()
                for y in adj.get(x, ()):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        q.append(y)
            for dst in nodes:
                if len(topo.route(src, dst)) != dist[dst]:
                    problems.append((kind, src, dst, "route"))
        if kind == "hypercube":
            for a in range(16):
                for b in range(16):
                    if len(topo.route(a, b)) != bin(a ^ b).count("1"):
                        problems.append((kind, a, b, "hamming"))
    report("4 routing oracle", not problems, "first=%s" % problems[:3])


def test_preset_csv_matches_golden(preset_rows):
    """The paper preset's CSV must stay byte-identical: determinism is the
    oracle for refactors and speedups. A change that alters simulated
    behaviour on purpose regenerates it with
    `PYTHONPATH=src python -m camsim.cli --sweep paper --out
    tests/data/golden_preset.csv` and says why in CHANGES.md."""
    with open(GOLDEN_PRESET) as fh:
        expected = fh.read()
    assert format_csv(list(preset_rows.values())) == expected


def test_criterion_5_trend_a_speedup(preset_rows):
    sus = {}
    for topo in TOPOS:
        b = row(preset_rows, topo, 16, 300, 125, False).stats
        c = row(preset_rows, topo, 16, 300, 125, True).stats
        sus[topo] = compute_speedup(b, c)
    ok = all(su > 1.00 for su in sus.values()) and max(sus.values()) >= 1.03
    report("5 trend A: CAM speedup", ok,
           " ".join("%s=%.4f" % kv for kv in sus.items()))


def test_criterion_6_trend_b_counters(preset_rows):
    details = []
    ok = True
    for topo in TOPOS:
        b300 = row(preset_rows, topo, 16, 300, 125, False).stats
        c300 = row(preset_rows, topo, 16, 300, 125, True).stats
        b100 = row(preset_rows, topo, 16, 100, 125, False).stats
        c100 = row(preset_rows, topo, 16, 100, 125, True).stats
        su300 = compute_speedup(b300, c300)
        su100 = compute_speedup(b100, c100)
        ratio_drop = b100.ratio < b300.ratio
        su_weak = su100 <= su300
        ok = ok and ratio_drop and su_weak
        details.append("%s: ratio %.3f->%.3f su %.4f->%.4f"
                       % (topo, b300.ratio, b100.ratio, su300, su100))
    report("6 trend B: fewer counters", ok, "; ".join(details))


def test_criterion_7_trend_c_bandwidth(preset_rows):
    details = []
    ok = True
    for topo in TOPOS:
        b125 = row(preset_rows, topo, 16, 300, 125, False).stats
        c125 = row(preset_rows, topo, 16, 300, 125, True).stats
        b250 = row(preset_rows, topo, 16, 300, 250, False).stats
        c250 = row(preset_rows, topo, 16, 300, 250, True).stats
        drop = (b125.avg_contention_cycles
                / max(b250.avg_contention_cycles, 1e-9))
        su125 = compute_speedup(b125, c125)
        su250 = compute_speedup(b250, c250)
        ok = ok and drop >= 3.0 and su250 < su125
        details.append("%s: cont/%.1fx su %.4f->%.4f"
                       % (topo, drop, su125, su250))
    report("7 trend C: doubled bandwidth", ok, "; ".join(details))


def test_criterion_8_baseline_neutrality():
    kw = dict(topology="torus2d", procs=16, counters=50, iters=2,
              noncrit_work=60, lat_mem=4, lat_l2=1, lat_dir=1, cam=False)
    tagged = run_simulation(Config(crit_tagging=True, **kw))
    untagged = run_simulation(Config(crit_tagging=False, **kw))
    report("8 baseline neutrality",
           tagged.total_cycles == untagged.total_cycles,
           "tagged=%d untagged=%d" % (tagged.total_cycles,
                                      untagged.total_cycles))


def test_criterion_9_determinism():
    deltas = [dict(topology="hypercube", procs=4, counters=10, iters=2,
                   noncrit_work=20, lat_mem=10)]
    rows_a = run_sweep(deltas, parallel=1)
    rows_b = run_sweep(deltas, parallel=1)
    csv_a = format_csv(rows_a)
    csv_b = format_csv(rows_b)
    report("9 determinism: identical CSV", csv_a == csv_b)


def test_criterion_10_ratio_definition():
    got = ratio_of(298038, 479900)
    report("10 ratio definition", abs(got - 0.383113) <= 5e-7,
           "%.7f" % got)
