"""Golden determinism oracle for the network and event loop.

Each line of the data file is the full `RunStats` of one run, as
`json.dumps(asdict(stats), sort_keys=True)`: total cycles, request
counts, injected/delivered, SWMR checks, final counters and the per-link
busy, contention and transmitted vectors. The configs exercise what link
timing and arbitration depend on: zero and long hop latency, delivery
jitter under two seeds, a bandwidth-starved 16-processor CAM run with
real queues and contention, zero directory/L2 latency, CAM without
crit tagging, and direct-mapped 1 KB caches where a request stalls behind
its block's writeback. A change that alters simulated behaviour on purpose
regenerates the file with `PYTHONPATH=src python tests/test_golden_network.py`
and says why in CHANGES.md.
"""

import json
import os
import sys
from dataclasses import asdict

from camsim.coherence import CacheController
from camsim.harness import Config, Simulator, run_simulation

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_network.jsonl")

BASE = dict(counters=6, iters=2, noncrit_work=8, lat_mem=10)

CONFIGS = (
    dict(topology="torus2d", procs=8, hop_latency=0),
    dict(topology="torus2d", procs=8, hop_latency=0, cam=True),
    dict(topology="hypercube", procs=8, hop_latency=0, bandwidth=20, cam=True),
    dict(topology="torus2d", procs=8, hop_latency=3),
    dict(topology="hypercube", procs=8, hop_latency=3, cam=True),
    dict(topology="crossbar", procs=8, hop_latency=3, bandwidth=30, cam=True),
    dict(topology="torus2d", procs=8, jitter=2, seed=1),
    dict(topology="torus2d", procs=8, jitter=2, seed=2, cam=True),
    dict(topology="crossbar", procs=4, jitter=2, seed=2, hop_latency=0),
    dict(topology="torus2d", procs=16, bandwidth=10),
    dict(topology="torus2d", procs=16, bandwidth=10, cam=True),
    dict(topology="crossbar", procs=16, bandwidth=10, cam=True),
    dict(topology="hypercube", procs=8, lat_dir=0, lat_l2=0),
    dict(topology="crossbar", procs=8, lat_dir=0, lat_l2=0, hop_latency=0,
         cam=True),
    dict(topology="torus2d", procs=8, crit_tagging=False, cam=True,
         bandwidth=20),
    # 1 KB direct-mapped caches: a request finds its block mid-writeback
    # and stalls until the WB_Ack
    dict(topology="crossbar", procs=2, threads=1, counters=2, noncrit_work=7,
         l1_kb=1, l2_kb=1, l1_assoc=1, l2_assoc=1),
)


def golden_lines():
    lines = []
    for delta in CONFIGS:
        stats = run_simulation(Config(**dict(BASE, **delta)))
        lines.append(json.dumps(asdict(stats), sort_keys=True))
    return lines


def test_last_config_stalls_behind_a_writeback(monkeypatch):
    # keeps the golden file covering the re-issue of a stalled request,
    # which no other golden run and no benchmark workload reaches
    stalls = []
    for name in ("load", "store", "rmw"):
        def op(self, *args, inner=getattr(CacheController, name)):
            (tier, value), msgs = inner(self, *args)
            if tier == "wb_pending":
                stalls.append((self.node, args[0]))
            return (tier, value), msgs
        monkeypatch.setattr(CacheController, name, op)
    Simulator(Config(**dict(BASE, **CONFIGS[-1]))).run()
    assert len(stalls) >= 1


def test_network_runs_match_golden():
    with open(GOLDEN) as fh:
        expected = fh.read().splitlines()
    got = golden_lines()
    assert len(got) == len(expected)
    for delta, line, want in zip(CONFIGS, got, expected):
        assert line == want, delta


if __name__ == "__main__":
    sys.stdout.write("regenerating %s\n" % GOLDEN)
    with open(GOLDEN, "w") as fh:
        fh.write("\n".join(golden_lines()) + "\n")
