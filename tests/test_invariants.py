"""Cross-module invariants: crit propagation, tagging neutrality,
request-count monotonicity and traffic conservation."""

from camsim.coherence import GETS, GETX, MSG_NAMES, PUTX, READABLE
from camsim.harness import Config, Simulator, run_simulation


SMALL = dict(topology="torus2d", procs=4, counters=6, iters=2,
             noncrit_work=8, lat_mem=10)


def transaction_key(msg):
    """The transaction a message belongs to, (requester, block), as the
    `camsim.coherence` docstring defines it. Replies carry no requester:
    they are addressed to it."""
    return (msg.requester if msg.requester is not None else msg.dst,
            msg.addr)


class LoggingSim(Simulator):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.log = []

    def _send(self, msgs, cycle):
        for m in msgs:
            self.log.append((transaction_key(m), m.mtype, m.crit))
        super()._send(msgs, cycle)


def test_crit_propagates_across_whole_transactions():
    sim = LoggingSim(Config(**SMALL))
    sim.run()
    origin = {}         # key -> crit bit of the request that opened it
    opened = []
    mismatched = []
    for key, mtype, crit in sim.log:
        if mtype in (GETS, GETX, PUTX):
            origin[key] = crit
            opened.append(crit)
        elif origin[key] != crit:
            mismatched.append((key, MSG_NAMES[mtype], crit))
    assert opened, "no transactions logged"
    assert not mismatched, \
        "messages with their request's crit bit flipped: %s" % mismatched[:5]
    # some critical transactions must exist at all
    assert any(opened)


def test_writeback_transactions_never_critical():
    sim = LoggingSim(Config(**SMALL))
    sim.run()
    for _, mtype, crit in sim.log:
        if mtype == PUTX:
            assert not crit


def test_crit_request_count_monotone_in_counters():
    counts = []
    for n in (3, 6, 12):
        st = run_simulation(Config(**dict(SMALL, counters=n)))
        counts.append(st.crit_reqs)
    assert counts[0] <= counts[1] <= counts[2]


def test_baseline_ignores_crit_labelling_end_to_end():
    # same run with tagging on/off: identical cycle count and per-link
    # busy profile; only the lane occupancy (and thus contention stats)
    # may differ
    on = run_simulation(Config(**SMALL, cam=False, crit_tagging=True))
    off = run_simulation(Config(**SMALL, cam=False, crit_tagging=False))
    assert on.total_cycles == off.total_cycles
    assert on.link_busy_cycles == off.link_busy_cycles
    assert on.link_transmitted == off.link_transmitted


def test_lock_mutual_exclusion_holds():
    # audits each core's actions and the responses they get: a core
    # acquires when its rmw on the lock word returns 0, and releases when
    # its store of 0 to that word retires
    class LockAudit(Simulator):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.holder = None
            self.acquisitions = 0
            for core in self.cores:
                core.step = self.audited(core.tid, core.step)

        def audited(self, tid, step):
            asked = ("start",)           # the action the response answers

            def audited_step(response=None):
                nonlocal asked
                if asked[0] == "mem" and asked[2] == self.program.lock_addr:
                    if asked[1] == "rmw" and response == 0:
                        assert self.holder is None, \
                            "second acquisition while %s holds" % self.holder
                        self.holder = tid
                        self.acquisitions += 1
                    elif asked[1] == "store" and asked[3] == 0:
                        assert self.holder == tid
                        self.holder = None
                asked = step(response)
                return asked
            return audited_step

    cfg = Config(**SMALL)
    sim = LockAudit(cfg)
    st = sim.run()
    assert all(v == 8 for v in st.final_counters)
    assert sim.acquisitions == cfg.n_threads() * cfg.iters
    assert sim.holder is None


def test_inclusion_audit_after_run():
    # every L1-resident block is readable in `blocks` and resident in L2
    sim = Simulator(Config(**SMALL))
    sim.run()
    for cache in sim.caches:
        g = cache.l1.geometry
        for idx, ways in cache.l1.sets.items():
            for addr in ways:
                assert addr % g.block_bytes == 0
                assert addr // g.block_bytes % g.n_sets == idx
                blk = cache.blocks.get(addr)
                assert blk is not None and blk.state in READABLE, hex(addr)
                assert cache.l2.contains(addr), hex(addr)
