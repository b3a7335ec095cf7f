"""Golden oracle for protocol trace content.

One traced run with 1 KB direct-mapped caches, so its trace holds every
kind of controller transition the simulator logs: forwards to owners that
hold the block in place or under writeback, invalidations, queued requests
(a PUTX among them), stale writebacks and writeback acks, plus every send
and receive.
A refactor must leave the trace byte-identical. A change that alters
simulated behaviour or the trace format on purpose regenerates it with
`PYTHONPATH=src python tests/test_golden_trace.py` and says why in
CHANGES.md.
"""

import os
import sys

from camsim.coherence import ST_II, ST_IM, ST_IS, ST_MI, ST_OI, ST_OM, ST_SM
from camsim.harness import Config, Simulator
from test_coherence import block_record_problems

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_trace.log")

CONFIG = dict(topology="crossbar", procs=4, counters=2, iters=2,
              noncrit_work=4, lat_mem=10, l1_kb=1, l2_kb=1, l1_assoc=1,
              l2_assoc=1)


def write_trace(path):
    with open(path, "w") as trace:
        Simulator(Config(**CONFIG)).run(trace)


def test_trace_matches_golden(tmp_path):
    path = str(tmp_path / "trace.log")
    write_trace(path)
    with open(path) as fh, open(GOLDEN) as golden:
        assert fh.read() == golden.read()


def test_golden_trace_covers_the_controller_transitions():
    with open(GOLDEN) as fh:
        events = {line.split()[2] for line in fh}
    assert {"fwd_gets", "fwd_getx", "inv", "putx", "putx_stale", "queue_GETS",
            "queue_GETX", "queue_PUTX", "wb_ack", "evict_putx",
            "store_upgrade", "rmw_upgrade"} <= events


def test_block_records_after_every_message():
    sim = Simulator(Config(**CONFIG))
    process = sim._process_msg
    seen = set()

    def process_and_check(msg):
        process(msg)
        for cache in sim.caches:
            assert block_record_problems(cache) == [], (sim.cycle, msg.mtype)
            seen.update(blk.state for blk in cache.blocks.values())

    sim._process_msg = process_and_check
    sim.run()
    # every writeback and transaction state was there to check
    assert {ST_MI, ST_OI, ST_II, ST_IS, ST_IM, ST_SM, ST_OM} <= seen


if __name__ == "__main__":
    sys.stdout.write("regenerating %s\n" % GOLDEN)
    write_trace(GOLDEN)
