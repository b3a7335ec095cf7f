"""camsim benchmark: run one workload, check its output, print its metrics.

From the repository root:

    python3 perfbench/run.py --workload lock_torus16 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seconds 38 --trace 1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, measured with no wrapping; `--trace 1` alternates
untraced and traced repetitions and reports the per-layer split. `all`
runs every workload in turn, each in a child process of its own so that
peak memory does not carry over, and prefixes each metric with the
workload name. perfbench/README.md says why each workload was chosen and
which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Simulator workloads: the Config fields of each run of one repetition.
# Caches start empty, so every statistic includes the cold-start warm-up.
_TORUS = dict(topology="torus2d", procs=16, counters=300, iters=1,
              noncrit_work=1000, bandwidth=125, lat_mem=30)
SIM_WORKLOADS = {
    # Lock-bound, multi-hop, bandwidth-scarce: links stay queued, so
    # Network.step runs every cycle and the CAM priority branch does work.
    # Baseline then CAM, which also yields the paper's headline speedup.
    "lock_torus16": [dict(_TORUS, cam=False), dict(_TORUS, cam=True)],
    # Cold private misses: a 3,000-block scratch walk per thread against a
    # 1,024-block L2, so every warm miss evicts a dirty victim (PUTX/WB_Ack).
    # One router hop, little queueing, nearly empty critical lanes.
    "private_xbar16": [dict(topology="crossbar", procs=16, counters=100,
                            iters=1, noncrit_work=3000, bandwidth=250,
                            lat_mem=30, l1_kb=16, l2_kb=64, cam=False)],
}
# The model checker at the acceptance depth: coherence handlers and state
# cloning with no network, harness loop or workload.
CHECK_WORKLOAD = "protocol_check"
CHECK_MAX_OPS = 6
WORKLOADS = (*SIM_WORKLOADS, CHECK_WORKLOAD)

# Exact simulated counts of one repetition. `Config.seed` only feeds
# `jitter`, which these workloads leave at 0, so every seed gives these
# counts. A run whose counts differ fails; a change that alters the model
# on purpose records the new counts here in a change of its own.
RECORDED = {
    "lock_torus16": {
        "base.cycles": 466610, "base.crit_reqs": 9300,
        "base.noncrit_reqs": 16362, "base.messages": 81944,
        "base.link_busy_cycles": 393684, "base.contention_cycles": 7,
        "base.swmr_checks": 25662,
        "cam.cycles": 466604, "cam.crit_reqs": 9300,
        "cam.noncrit_reqs": 16362, "cam.messages": 81944,
        "cam.link_busy_cycles": 393684, "cam.contention_cycles": 7,
        "cam.swmr_checks": 25662,
        "cam_speedup": 466610 / 466604,
    },
    "private_xbar16": {
        "base.cycles": 302400, "base.crit_reqs": 3100,
        "base.noncrit_reqs": 81594, "base.messages": 210799,
        "base.link_busy_cycles": 740042, "base.contention_cycles": 1511,
        "base.swmr_checks": 84694,
    },
    "protocol_check": {"states": 22903, "quiescent": 768, "transitions": 47470},
}

# Set-up is repeated at least this often and for at least this long, and
# its median reported: one set-up takes from tens of microseconds (the
# checker's root system) to tens of milliseconds (two 16-node simulators).
SETUP_MIN_REPS = 15
SETUP_MIN_S = 1.0


class Rep:
    """One repetition of a workload: its times, counts and problems."""

    def __init__(self):
        self.wall = None          # seconds, set-up included
        self.run = None           # seconds, set-up excluded
        self.work = 0             # simulated cycles, or checker states
        self.stats = []           # RunStats of each simulator run
        self.check = None         # CheckResult of the checker run
        self.fingerprint = {}
        self.problems = []
        self.layers = None        # per-layer values of a traced repetition


def import_camsim():
    if not (SRC / "camsim" / "__init__.py").is_file():
        sys.exit("perfbench: %s/camsim not found; run from a camsim checkout"
                 % SRC)
    sys.path.insert(0, str(SRC))
    import camsim
    import camsim.harness
    import camsim.modelcheck
    return camsim


# -- output oracle and fingerprint ---------------------------------------------

def sim_problems(stats, cfg):
    """Every final counter equals threads x iters; every message arrived."""
    problems = []
    want = cfg.n_threads() * cfg.iters
    bad = [v for v in stats.final_counters if v != want]
    if bad:
        problems.append("%d counters != %d (first %r)" % (len(bad), want, bad[0]))
    if stats.injected != stats.delivered:
        problems.append("injected %d != delivered %d"
                        % (stats.injected, stats.delivered))
    return problems


def sim_fingerprint(stats_list):
    fp = {}
    for s in stats_list:
        half = "cam" if s.cam else "base"
        fp.update({
            half + ".cycles": s.total_cycles,
            half + ".crit_reqs": s.crit_reqs,
            half + ".noncrit_reqs": s.noncrit_reqs,
            half + ".messages": s.delivered,
            half + ".link_busy_cycles": sum(s.link_busy_cycles),
            half + ".contention_cycles": sum(s.link_contention_cycles),
            half + ".swmr_checks": s.swmr_checks,
        })
    if "base.cycles" in fp and "cam.cycles" in fp:
        fp["cam_speedup"] = fp["base.cycles"] / fp["cam.cycles"]
    return fp


def fingerprint_problems(got, want):
    if not want:
        return ["no recorded fingerprint"]
    return ["%s: %r, recorded %r" % (k, got.get(k), want.get(k))
            for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


# -- repetitions ------------------------------------------------------------------

def make_configs(camsim, runs, seed):
    return [camsim.harness.Config(seed=seed, **kw) for kw in runs]


def sim_rep(camsim, runs, seed, recorded):
    """Build and run each config of `runs`; time, check and fingerprint."""
    rep = Rep()
    try:
        t0 = time.perf_counter()
        sims = [camsim.harness.Simulator(c)
                for c in make_configs(camsim, runs, seed)]
        t1 = time.perf_counter()
        rep.stats = [s.run() for s in sims]
        t2 = time.perf_counter()
    except Exception as exc:   # a failed repetition is counted, not fatal
        rep.problems.append("%s: %s" % (type(exc).__name__, exc))
        return rep
    rep.wall, rep.run = t2 - t0, t2 - t1
    rep.work = sum(s.total_cycles for s in rep.stats)
    for sim, stats in zip(sims, rep.stats):
        rep.problems += sim_problems(stats, sim.cfg)
    rep.fingerprint = sim_fingerprint(rep.stats)
    rep.problems += fingerprint_problems(rep.fingerprint, recorded)
    return rep


def check_rep(camsim, max_ops, recorded):
    """Run the model checker; a CheckFailure is recorded like any error."""
    rep = Rep()
    try:
        t0 = time.perf_counter()
        rep.check = camsim.modelcheck.run_check(max_ops)
        rep.wall = rep.run = time.perf_counter() - t0
    except Exception as exc:   # a failed repetition is counted, not fatal
        rep.problems.append("%s: %s" % (type(exc).__name__, exc))
        return rep
    c = rep.check
    rep.work = c.states
    rep.fingerprint = {"states": c.states, "quiescent": c.quiescent,
                       "transitions": c.transitions}
    rep.problems += fingerprint_problems(rep.fingerprint, recorded)
    return rep


def make_rep_fn(camsim, workload, seed):
    recorded = RECORDED[workload]
    if workload == CHECK_WORKLOAD:
        return lambda: check_rep(camsim, CHECK_MAX_OPS, recorded)
    return lambda: sim_rep(camsim, SIM_WORKLOADS[workload], seed, recorded)


def setup_times(camsim, workload, seed):
    """Set-up alone, repeated: Simulator construction (topology, routes,
    program, caches) or, for the checker, a depth-0 run_check, which builds
    and checks only the root system."""
    times = []
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPS
           or time.perf_counter() - start < SETUP_MIN_S):
        t0 = time.perf_counter()
        if workload == CHECK_WORKLOAD:
            camsim.modelcheck.run_check(0)
        else:
            for c in make_configs(camsim, SIM_WORKLOADS[workload], seed):
                camsim.harness.Simulator(c)
        times.append(time.perf_counter() - t0)
    return times


def repeat(seconds, steps):
    """Run each step function in turn, round after round, for `seconds`.

    A new round starts while the time used plus half a median round stays
    within the budget, so a run ends within about half a round of
    `seconds`; at least one round always runs. Returns, for each
    step, the list of what it returned.
    """
    results = [[] for _ in steps]
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for out, step in zip(results, steps):
            gc.collect()
            out.append(step())
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) / 2 > seconds:
            return results


# -- metrics ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps, setups):
    ok = [r for r in reps if r.wall is not None and not r.problems]
    timed = ok or [r for r in reps if r.wall is not None]
    if not timed:
        return None
    return {
        "wall_s": metric(statistics.median(r.wall for r in timed), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "work_per_s": metric(statistics.median(r.work / r.run for r in timed),
                             "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": metric(len(ok) / len(reps), "ratio"),
    }


def layer_values(tr, rep):
    """Per-layer values of one traced repetition."""
    a = tr
    stats = rep.stats
    crit = sum(s.crit_reqs for s in stats)
    noncrit = sum(s.noncrit_reqs for s in stats)
    messages = sum(s.delivered for s in stats)
    step = a["network.step"]
    access = [a["coherence.load"], a["coherence.store"], a["coherence.rmw"]]
    memhier = [a["memhier." + n] for n in ("lookup", "contains", "install",
                                           "remove")]
    headline = stats[-1] if stats else None     # the CAM half of a pair
    run_check = a["modelcheck.run_check"]
    clone = a["modelcheck.clone"]
    check = rep.check
    return {
        "network.step_s": step.total,
        "network.step_calls": step.calls,
        "network.inject_s": a["network.inject"].total,
        "network.messages": messages,
        "network.steps_per_msg": step.calls / messages if messages else 0,
        "network.link_busy_cycles": sum(sum(s.link_busy_cycles) for s in stats),
        "network.contention_cycles": sum(sum(s.link_contention_cycles)
                                         for s in stats),
        "coherence.cache_handle_s": a["coherence.cache_handle"].total,
        "coherence.cache_handle_calls": a["coherence.cache_handle"].calls,
        "coherence.dir_handle_s": a["coherence.dir_handle"].total,
        "coherence.dir_handle_calls": a["coherence.dir_handle"].calls,
        "coherence.core_access_s": sum(x.total for x in access),
        "coherence.core_access_calls": sum(x.calls for x in access),
        "coherence.evictions": a["coherence.evict"].calls,
        "coherence.self_s": tr.layer_self("coherence"),
        "coherence.crit_reqs": crit,
        "coherence.noncrit_reqs": noncrit,
        "memhier.time_s": sum(x.total for x in memhier),
        "memhier.lookup_calls": memhier[0].calls,
        "memhier.contains_calls": memhier[1].calls,
        "memhier.install_calls": memhier[2].calls,
        "memhier.remove_calls": memhier[3].calls,
        "memhier.victims": memhier[2].non_none,
        "workload.core_step_s": a["workload.core_step"].total,
        "workload.core_steps": a["workload.core_step"].calls,
        "workload.gen_s": a["workload.gen"].total,
        "topology.build_s": a["topology.build"].total,
        "harness.run_s": a["harness.run"].total,
        "harness.self_s": a["harness.run"].self_time,
        "harness.swmr_checks": sum(s.swmr_checks for s in stats),
        "harness.sim_cycles": sum(s.total_cycles for s in stats),
        "harness.cam_speedup": rep.fingerprint.get("cam_speedup", 0),
        "harness.crit_ratio": headline.ratio if headline else 0,
        "modelcheck.states": check.states if check else 0,
        "modelcheck.transitions": check.transitions if check else 0,
        "modelcheck.clone_s": clone.total,
        "modelcheck.clone_calls": clone.calls,
        "modelcheck.coherence_s": (run_check.total - run_check.self_time
                                   - clone.total),
        "modelcheck.self_s": run_check.self_time,
    }


LAYER_UNITS = {"_s": "s", "_cycles": "cycles", "cam_speedup": "ratio",
               "crit_ratio": "ratio", "steps_per_msg": "steps/msg"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(untraced, traced):
    ok_u = [r for r in untraced if r.wall is not None]
    ok_t = [r for r in traced if r.wall is not None]
    if not ok_u or not ok_t:
        return None
    rows = [r.layers for r in ok_t]
    out = {name: metric(statistics.median(row[name] for row in rows),
                        layer_unit(name))
           for name in rows[0]}
    t_wall = statistics.median(r.wall for r in ok_t)
    u_wall = statistics.median(r.wall for r in ok_u)
    out["trace.wall_s"] = metric(t_wall, "s")
    out["trace.untraced_wall_s"] = metric(u_wall, "s")
    out["trace.overhead_s"] = metric(t_wall - u_wall, "s")
    return out


# -- entry point ---------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    camsim = import_camsim()
    rep_fn = make_rep_fn(camsim, workload, seed)
    print("workload %s seed %d (%s)" % (
        workload, seed, "run_check takes no seed" if workload == CHECK_WORKLOAD
        else "Config.seed only feeds jitter, which is 0 here: every seed "
             "runs the same simulation"))
    if not trace:
        setups = setup_times(camsim, workload, seed)
        (reps,) = repeat(seconds, [rep_fn])
        metrics = end_to_end(reps, setups)
        attempted = reps
    else:
        tracer = Tracer(camsim)

        def traced_rep():
            tracer.reset()
            with tracer:
                rep = rep_fn()
            rep.layers = layer_values(tracer, rep) if rep.wall else None
            return rep

        untraced, traced = repeat(seconds, [rep_fn, traced_rep])
        attempted = untraced + traced
        # traced and untraced repetitions must simulate exactly the same thing
        for rep in traced:
            if rep.fingerprint and any(rep.fingerprint != u.fingerprint
                                       for u in untraced if u.fingerprint):
                rep.problems.append("traced counts differ from untraced")
        metrics = per_layer(untraced, traced)

    failed = [r for r in attempted if r.problems]
    for i, rep in enumerate(attempted):
        wall = "failed" if rep.wall is None else "%.4f s" % rep.wall
        print("rep %d%s: %s %s" % (i, " traced" if rep.layers else "", wall,
                                   "; ".join(rep.problems) or "ok"))
    print("fingerprint %s" % json.dumps(attempted[0].fingerprint, sort_keys=True))
    if metrics is None:
        sys.exit("perfbench: no repetition of %s completed" % workload)
    for name, m in metrics.items():
        print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    result = {"correct": not failed, "attempted": len(attempted),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return result


def run_all(args):
    """Every workload in turn, each in its own child process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit("perfbench: %s exited %d without a result"
                     % (workload, proc.returncode))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][workload + "." + name] = m
    print(json.dumps(merged))
    return merged


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
