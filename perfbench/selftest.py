"""Fast self-test of the benchmark's own code, on tiny inputs.

Runs a tiny simulator pair and a shallow model check through the output
oracle, the fingerprint, the tracer and the metric naming. Takes a few
seconds:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

camsim = run.import_camsim()

TINY = [dict(topology="torus2d", procs=4, counters=3, iters=2, noncrit_work=2,
             bandwidth=125, lat_mem=30, cam=cam) for cam in (False, True)]
SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def names_ok(names):
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    assert not bad, bad


def test_fingerprint_is_seed_independent_and_enforced():
    first = run.sim_rep(camsim, TINY, 0, {})
    assert first.problems == ["no recorded fingerprint"]
    fp = first.fingerprint
    assert fp["cam_speedup"] == fp["base.cycles"] / fp["cam.cycles"]
    # seed feeds only jitter, which is 0: another seed, the same counts
    assert run.sim_rep(camsim, TINY, 7, fp).problems == []
    off = dict(fp, **{"cam.cycles": fp["cam.cycles"] + 1})
    problems = run.sim_rep(camsim, TINY, 0, off).problems
    assert len(problems) == 1 and problems[0].startswith("cam.cycles:")


def test_oracle_catches_wrong_counters_and_lost_messages():
    cfg = camsim.harness.Config(seed=0, **TINY[0])
    stats = camsim.harness.Simulator(cfg).run()
    assert run.sim_problems(stats, cfg) == []
    wrong = dataclasses.replace(stats, final_counters=[0] + stats.final_counters[1:])
    assert "counters" in run.sim_problems(wrong, cfg)[0]
    lost = dataclasses.replace(stats, delivered=stats.delivered - 1)
    assert "delivered" in run.sim_problems(lost, cfg)[0]


def test_check_failure_is_counted_not_raised():
    mc = camsim.modelcheck

    def failing(max_ops):
        raise mc.CheckFailure("invariant violation: test")

    fake = types.SimpleNamespace(modelcheck=types.SimpleNamespace(
        run_check=failing, CheckFailure=mc.CheckFailure))
    rep = run.check_rep(fake, 2, {})
    assert rep.wall is None and rep.problems[0].startswith("CheckFailure")


def test_traced_counts_equal_untraced_and_wrappers_come_off():
    untraced = run.sim_rep(camsim, TINY, 0, {})
    originals = (camsim.network.Network.step, camsim.harness.build_topology)
    tracer = Tracer(camsim)
    with tracer:
        assert camsim.network.Network.step is not originals[0]
        traced = run.sim_rep(camsim, TINY, 0, untraced.fingerprint)
    assert (camsim.network.Network.step, camsim.harness.build_topology) == originals
    assert traced.problems == [] and not tracer.missing
    layers = run.layer_values(tracer, traced)
    assert layers["network.messages"] == traced.fingerprint["base.messages"] * 2
    assert layers["harness.sim_cycles"] == untraced.work
    assert layers["workload.core_steps"] > 0 and layers["topology.build_s"] > 0
    assert 0 < layers["harness.self_s"] < layers["harness.run_s"]


def test_checker_clone_counts_outermost_deepcopy_only():
    plain = run.check_rep(camsim, 2, {})
    tracer = Tracer(camsim)
    with tracer:
        traced = run.check_rep(camsim, 2, plain.fingerprint)
    assert camsim.modelcheck.copy is copy
    assert traced.problems == []
    layers = run.layer_values(tracer, traced)
    assert layers["modelcheck.clone_calls"] == plain.check.transitions
    assert layers["network.step_calls"] == 0


def test_emitted_names_and_units_match_benchmark_json():
    rep = run.sim_rep(camsim, TINY, 0, {})
    rep.problems = []
    e2e = run.end_to_end([rep], [0.01])
    tracer = Tracer(camsim)
    with tracer:
        traced = run.sim_rep(camsim, TINY, 0, {})
    traced.layers = run.layer_values(tracer, traced)
    layers = run.per_layer([rep], [traced])
    names_ok([*e2e, *layers, *run.WORKLOADS])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {n: m["unit"] for n, m in e2e.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {n: m["unit"] for n, m in layers.items()}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(m["value"] > 0 for m in e2e.values())


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("%d self-tests passed" % len(tests))
