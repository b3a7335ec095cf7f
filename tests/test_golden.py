"""Golden determinism oracle: simulated results must not change.

The CSV below covers every topology at 4 and 8 processors (baseline and
CAM), plus jitter, CAM without crit tagging, and 128 B blocks with tiny
direct-mapped caches (dirty-victim writebacks). A refactor must leave it
byte-identical. A change that alters simulated behaviour on purpose
regenerates it with `PYTHONPATH=src python tests/test_golden.py` and says
why in CHANGES.md.
"""

import os
import sys

from camsim.harness import Config, format_csv, run_sweep
from camsim.topology import TOPOLOGY_KINDS

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_sweep.csv")

BASE = Config(counters=6, iters=2, noncrit_work=8, lat_mem=10)

EXTRA = (
    dict(topology="torus2d", procs=8, jitter=3, seed=5),
    dict(topology="crossbar", procs=4, crit_tagging=False),
    dict(topology="torus2d", procs=4, block_bytes=128, l1_kb=1, l2_kb=2,
         l1_assoc=1, l2_assoc=1, counters=20),
)


def golden_csv():
    # run_sweep rejects two runs with one config id, so each extra config
    # is its own sweep
    deltas = [dict(topology=t, procs=p) for t in TOPOLOGY_KINDS for p in (4, 8)]
    rows = run_sweep(deltas, base=BASE, parallel=1)
    for delta in EXTRA:
        rows += run_sweep([delta], base=BASE, parallel=1)
    return format_csv(rows)


def test_sweep_csv_matches_golden():
    with open(GOLDEN) as fh:
        expected = fh.read()
    assert golden_csv() == expected


if __name__ == "__main__":
    sys.stdout.write("regenerating %s\n" % GOLDEN)
    with open(GOLDEN, "w") as fh:
        fh.write(golden_csv())
