"""Simulation harness: config, the cycle loop, stats, sweeps and CSV.

The cycle loop follows a fixed phase order -- contention sampling, core
steps, controller message processing (which injects new messages), then
link arbitration and advance -- and is event-driven between phases: idle
stretches with no queued link traffic are skipped wholesale, which is
what makes desk-scale runs of a 16-processor system practical.

Determinism: a configuration (including its seed) fully determines the
run. All scheduling is through one heap keyed (cycle, phase, sequence
number); no wall-clock, hashing order or float arithmetic feeds back into
simulated time.
"""

from __future__ import annotations

import heapq
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

from .coherence import (
    CacheController,
    DATA_BEARING,
    DIR_BOUND,
    DirectoryController,
    FWD_GETS,
    FWD_GETX,
    GETS,
    GETX,
    INV,
    MSG_NAMES,
    OWNERSHIP,
    PUTX,
    check_swmr,
    home_node,
)
from .memhier import CacheGeometry
from .network import Network
from .topology import ConfigError, TOPOLOGY_KINDS, build_topology
from .workload import CoreState, gen_microbenchmark


class SimulationError(RuntimeError):
    """Deadlock/livelock watchdog or cycle budget tripped."""


class UsageError(ValueError):
    """Mismatched arguments to a harness-level operation."""


@dataclass
class Config:
    topology: str = "crossbar"
    procs: int = 16
    threads: int | None = None          # defaults to procs
    counters: int = 300
    iters: int = 50
    noncrit_work: int = 100
    bandwidth: int = 125
    cam: bool = False
    seed: int = 0
    hop_latency: int = 1
    msg_bytes_control: int = 8
    msg_bytes_data: int = 72
    l1_kb: int = 256
    l1_assoc: int = 4
    l2_kb: int = 16384
    l2_assoc: int = 4
    block_bytes: int = 64
    mem_mb: int = 512
    lat_l1: int = 1
    lat_l2: int = 10
    lat_mem: int = 160
    lat_dir: int = 2
    cycle_budget: int = 500_000_000
    jitter: int = 0
    crit_tagging: bool = True
    crit_forwards: bool = True
    trace_file: str | None = None

    def n_threads(self):
        return self.procs if self.threads is None else self.threads

    def validate(self):
        if self.topology not in TOPOLOGY_KINDS:
            raise ConfigError("unknown topology %r" % self.topology)
        if self.procs < 2:
            raise ConfigError("procs must be >= 2, got %d" % self.procs)
        if not 1 <= self.n_threads() <= self.procs:
            raise ConfigError("threads must be in 1..procs")
        for name in ("bandwidth", "iters", "counters", "msg_bytes_control",
                     "msg_bytes_data", "mem_mb", "cycle_budget"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1, got %d"
                                  % (name, getattr(self, name)))
        # a negative latency schedules events in the past, which the run
        # loop never reaches: the run would spin until the cycle budget
        for name in ("noncrit_work", "hop_latency", "jitter", "lat_l1",
                     "lat_l2", "lat_mem", "lat_dir"):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be >= 0, got %d"
                                  % (name, getattr(self, name)))
        # construction validates the topology/geometry constraints
        build_topology(self.topology, self.procs)
        self.l1_geometry()
        self.l2_geometry()
        return self

    def l1_geometry(self):
        return CacheGeometry(self.l1_kb * 1024, self.l1_assoc, self.block_bytes)

    def l2_geometry(self):
        return CacheGeometry(self.l2_kb * 1024, self.l2_assoc, self.block_bytes)

    def mem_bytes(self):
        return self.mem_mb * 1024 * 1024


def ratio_of(crit_reqs, noncrit_reqs):
    """Reported request ratio: critical over total requests."""
    total = crit_reqs + noncrit_reqs
    return crit_reqs / total if total else 0.0


@dataclass
class RunStats:
    topology: str
    procs: int
    counters: int
    iters: int
    noncrit_work: int
    bandwidth: int
    cam: bool
    seed: int
    total_cycles: int
    crit_reqs: int
    noncrit_reqs: int
    link_busy_cycles: list
    link_contention_cycles: list
    link_transmitted: list
    final_counters: list
    injected: int
    delivered: int
    swmr_checks: int

    @property
    def ratio(self):
        return ratio_of(self.crit_reqs, self.noncrit_reqs)

    @property
    def avg_link_utilization(self):
        if not self.total_cycles or not self.link_busy_cycles:
            return 0.0
        n = len(self.link_busy_cycles)
        return sum(self.link_busy_cycles) / (n * self.total_cycles)

    @property
    def avg_contention_cycles(self):
        if not self.link_contention_cycles:
            return 0.0
        return sum(self.link_contention_cycles) / len(self.link_contention_cycles)


# Event phase ranks within a cycle (spec order: cores, then controllers).
_R_CORE = 0
_R_MSG = 1
_R_SEND = 2

_EV_CORE = 0     # (tid, response)
_EV_MSG = 1      # (msg, None)
_EV_SEND = 2     # (msg, None)
_EV_ISSUE = 3    # (tid, (op, addr, value, crit)) re-issue a parked spin
                 # load or a request stalled behind a writeback
_EV_DIR_POP = 4  # (msg, None) replay a request popped from a pending queue


class Simulator:
    """One self-contained run; single-threaded, transferable between threads."""

    def __init__(self, cfg):
        cfg.validate()
        self.cfg = cfg
        self.topo = build_topology(cfg.topology, cfg.procs)
        self.net = Network(self.topo, cfg.bandwidth, cfg.hop_latency,
                           cam_enabled=cfg.cam)
        self.program = gen_microbenchmark(
            cfg.n_threads(), cfg.counters, cfg.iters, cfg.noncrit_work,
            cfg.block_bytes, cfg.mem_bytes())
        l1g, l2g = cfg.l1_geometry(), cfg.l2_geometry()
        self.caches = [CacheController(n, l1g, l2g, cfg.procs,
                                       crit_forwards=cfg.crit_forwards)
                       for n in range(cfg.procs)]
        self.dirs = [DirectoryController(n, cfg.procs,
                                         crit_forwards=cfg.crit_forwards)
                     for n in range(cfg.procs)]
        self.cores = [CoreState(t, self.program.threads[t])
                      for t in range(cfg.n_threads())]
        self.rng = random.Random(cfg.seed)

        self.cycle = 0
        self.evq = []
        self._seq = 0
        self.crit_reqs = 0
        self.noncrit_reqs = 0
        self.swmr_checks = 0
        self.core_op = [None] * len(self.cores)   # (op, addr) while blocked
        self.parked = {}                          # (node, addr) -> tid
        self.wb_stalled = {}                      # (node, addr) -> (op, value, crit)
        # INV fan-out pacing: beyond any wake round-trip spread (each hop
        # costs serialization plus hop latency in both directions)
        diameter = max(self.topo.min_hops(0, m) for m in range(cfg.procs))
        self.inv_pace = 2 * diameter * (2 + cfg.hop_latency) + 4
        self.cores_left = len(self.cores)
        self._progress = [0] * len(self.cores)
        self._progress_cycle = [0] * len(self.cores)
        self._trace_out = None
        if cfg.trace_file:
            self._trace_out = open(cfg.trace_file, "w")
            for ctl in self.caches + self.dirs:
                ctl.trace = self._mk_trace()

    def _mk_trace(self):
        out = self._trace_out

        def trace(node, event, addr, old, new, crit):
            out.write("%d %d %s %#x %s %s %d\n"
                      % (self.cycle, node, event, addr, old, new, int(crit)))
        return trace

    # -- scheduling ----------------------------------------------------------

    def _push(self, cycle, rank, kind, a, b=None):
        self._seq += 1
        heapq.heappush(self.evq, (cycle, rank, self._seq, kind, a, b))

    def _send(self, msgs, cycle):
        """Inject controller output messages at `cycle`.

        Invalidation fan-out is paced one INV per `inv_pace` cycles: the
        pace exceeds the wake round-trip spread, so emission (ring) order
        alone decides which invalidated spinner re-reads a contended word
        first. Un-paced fan-out would let network distance pick the same
        winners every handoff and starve distant spinners.
        """
        cfg = self.cfg
        remote = None
        inv_rank = 0
        for msg in msgs:
            if not cfg.crit_tagging and msg.crit:
                msg.crit = False
                msg.vnet = msg.cls
            mt = msg.mtype
            if mt == GETS or mt == GETX or mt == PUTX:
                if msg.crit:
                    self.crit_reqs += 1
                else:
                    self.noncrit_reqs += 1
            msg.size = (cfg.msg_bytes_data if mt in DATA_BEARING
                        else cfg.msg_bytes_control)
            if self._trace_out is not None:
                self._trace_out.write("%d %d send_%s %#x - - %d\n"
                                      % (cycle, msg.src, MSG_NAMES[mt],
                                         msg.addr, int(msg.crit)))
            if mt == INV:
                at = cycle + inv_rank * self.inv_pace
                inv_rank += 1
                if msg.src == msg.dst:
                    self._push(at + 1, _R_MSG, _EV_MSG, msg)
                else:
                    self._push(at, _R_SEND, _EV_SEND, (msg,))
            elif msg.src == msg.dst:
                # co-located cache and directory slice: no network traversal
                self._push(cycle + 1, _R_MSG, _EV_MSG, msg)
            elif remote is None:
                remote = [msg]
            else:
                remote.append(msg)
        if remote is not None:
            self._push(cycle, _R_SEND, _EV_SEND, remote)

    # -- core/memory interface -------------------------------------------------

    def _resume_core(self, tid, response, cycle):
        self._push(cycle, _R_CORE, _EV_CORE, tid, response)

    def _step_core(self, tid, response):
        core = self.cores[tid]
        action = core.step(response)
        kind = action[0]
        if kind == "mem":
            _, op, addr, value, crit = action
            self.core_op[tid] = (op, addr)
            self._issue_mem(tid, op, addr, value, crit)
        elif kind == "local":
            self._resume_core(tid, None, self.cycle + action[1])
        else:  # done
            self.cores_left -= 1

    def _issue_mem(self, tid, op, addr, value, crit):
        cache = self.caches[tid]
        cfg = self.cfg
        cycle = self.cycle
        if op == "load":
            (tier, val), msgs = cache.load(addr, crit)
        elif op == "store":
            (tier, val), msgs = cache.store(addr, crit, value)
        elif op == "rmw":
            (tier, val), msgs = cache.rmw(addr, crit)
        else:  # spin: a load that only completes on reading 0
            (tier, val), msgs = cache.load(addr, False)
        if tier == "l1":
            done_at = cycle + cfg.lat_l1
        elif tier == "l2":
            done_at = cycle + cfg.lat_l1 + cfg.lat_l2
        elif tier == "wb_pending":
            # writeback-buffer conflict: replay once the WB_Ack lands
            self.wb_stalled[(tid, addr)] = (op, value, crit)
            return
        else:
            # miss: request leaves after the L1+L2 lookups
            self._send(msgs, cycle + cfg.lat_l1 + cfg.lat_l2)
            return
        if msgs:
            self._send(msgs, done_at)
        if op == "spin" and val != 0:
            self.parked[(tid, addr)] = tid   # wait for invalidation
        else:
            self.core_op[tid] = None
            self._resume_core(tid, val, done_at)

    # -- message processing -------------------------------------------------------

    def _process_msg(self, msg):
        if self._trace_out is not None:
            self._trace_out.write("%d %d recv_%s %#x - - %d\n"
                                  % (self.cycle, msg.dst,
                                     MSG_NAMES[msg.mtype], msg.addr,
                                     int(msg.crit)))
        if msg.mtype in DIR_BOUND:
            self._process_dir(msg)
        else:
            self._process_cache(msg)

    def _process_dir(self, msg, from_queue=False):
        cfg = self.cfg
        node = msg.dst
        events, out, used_mem = self.dirs[node].handle(msg, from_queue)
        delay = cfg.lat_dir + (cfg.lat_mem if used_mem else 0)
        if out:
            self._send(out, self.cycle + delay)
        unblocked = False
        for ev in events:
            if ev[0] == "unblocked":
                unblocked = True
                self._check_swmr(ev[1])
        if msg.mtype == PUTX:
            self._check_swmr(msg.addr)
        # A finished or immediately-served request may leave queued work.
        if unblocked or (from_queue and msg.mtype == PUTX):
            nxt = self.dirs[node].pop_pending(msg.addr)
            if nxt is not None:
                self._push(self.cycle + cfg.lat_dir, _R_MSG, _EV_DIR_POP, nxt)

    def _process_cache(self, msg):
        cfg = self.cfg
        node = msg.dst
        events, out = self.caches[node].handle(msg)
        if out:
            # forwards read the L2 data array; acks and fills are quick
            delay = cfg.lat_l2 if msg.mtype in (FWD_GETS, FWD_GETX) else 1
            self._send(out, self.cycle + delay)
        for ev in events:
            tag = ev[0]
            if tag == "core_done":
                _, addr, kind, result, rmw = ev
                self._finish_core_op(node, addr, result)
            elif tag == "invalidated":
                tid = self.parked.pop((node, ev[1]), None)
                if tid is not None:
                    self._push(self.cycle + 1, _R_CORE, _EV_ISSUE,
                               tid, ("spin", ev[1], None, False))
            elif tag == "wb_done":
                stalled = self.wb_stalled.pop((node, ev[1]), None)
                if stalled is not None:
                    op, value, crit = stalled
                    self._push(self.cycle + 1, _R_CORE, _EV_ISSUE,
                               node, (op, ev[1], value, crit))

    def _finish_core_op(self, node, addr, result):
        if node >= len(self.cores):
            return
        op = self.core_op[node]
        if op is None or op[1] != addr:
            return
        if op[0] == "spin" and result != 0:
            # lock still held: stay parked on the (now resident) copy
            self.parked[(node, addr)] = node
            return
        self.core_op[node] = None
        self._resume_core(node, result, self.cycle + 1)

    def _check_swmr(self, addr):
        self.swmr_checks += 1
        problems = check_swmr(self.caches, addr)
        if problems:
            raise SimulationError(
                "SWMR violation at cycle %d addr %#x: %s"
                % (self.cycle, addr, "; ".join(problems)))

    # -- main loop -----------------------------------------------------------------

    def run(self):
        try:
            cycle = self._loop()
        finally:
            if self._trace_out is not None:
                self._trace_out.close()
        self.cycle = cycle
        self.net.finalize(cycle)
        return self._stats(cycle)

    def _loop(self):
        """Drive events and the network to completion; returns the end cycle."""
        cfg = self.cfg
        net = self.net
        evq = self.evq
        for tid in range(len(self.cores)):
            self._resume_core(tid, None, 0)

        jitter = cfg.jitter
        budget = cfg.cycle_budget
        heappop = heapq.heappop
        net_step = net.step
        cycle = 0
        watch_at = 0    # next watchdog boundary (a multiple of 65,536)
        while True:
            self.cycle = cycle
            while evq and evq[0][0] == cycle:
                _, _, _, kind, a, b = heappop(evq)
                if kind == _EV_CORE:
                    self._step_core(a, b)
                elif kind == _EV_MSG:
                    self._process_msg(a)
                elif kind == _EV_SEND:
                    for m in a:
                        net.inject(m, cycle)
                elif kind == _EV_DIR_POP:
                    self._process_dir(a, from_queue=True)
                else:  # _EV_ISSUE
                    op, addr, value, crit = b
                    self.core_op[a] = (op, addr)
                    self._issue_mem(a, op, addr, value, crit)

            deliveries = net_step(cycle)
            if deliveries:
                for msg in deliveries:
                    delay = 1 + (self.rng.randrange(jitter + 1) if jitter else 0)
                    self._push(cycle + delay, _R_MSG, _EV_MSG, msg)

            if not evq and net.idle():
                if self.cores_left == 0:
                    break
                self._report_stall(cycle)

            if cycle > budget:
                raise SimulationError(
                    "cycle budget %d exceeded; probable deadlock/livelock. %s"
                    % (budget, self._stuck_cores(cycle)))
            if cycle >= watch_at:
                # event-driven skips jump over boundaries: fire on crossing
                self._watchdog(cycle)
                watch_at = (cycle | 0xFFFF) + 1

            if net.active:
                # queued link traffic: contention accrues, step every cycle
                cycle += 1
            else:
                nxt = evq[0][0] if evq else None
                arr = net.next_arrival()
                if arr is not None and (nxt is None or arr < nxt):
                    nxt = arr
                cycle = max(nxt, cycle + 1)
        return cycle

    def _watchdog(self, cycle):
        stuck = []
        for tid, core in enumerate(self.cores):
            if core.done:
                continue
            if core.retired != self._progress[tid]:
                self._progress[tid] = core.retired
                self._progress_cycle[tid] = cycle
            elif cycle - self._progress_cycle[tid] > 1_000_000:
                stuck.append(tid)
        if stuck:
            raise SimulationError(
                "cores stuck for over 1M cycles: %s" % self._stuck_cores(cycle))

    def _stuck_cores(self, cycle):
        parts = []
        for tid, core in enumerate(self.cores):
            if not core.done:
                parts.append("T%d pc=%d phase=%r op=%r"
                             % (tid, core.pc, core.lock_phase,
                                self.core_op[tid]))
        return "cycle %d: %s" % (cycle, "; ".join(parts) or "none")

    def _report_stall(self, cycle):
        raise SimulationError(
            "no scheduled work but %d cores unfinished (deadlock). %s"
            % (self.cores_left, self._stuck_cores(cycle)))

    # -- reporting -------------------------------------------------------------------

    def final_counter_values(self):
        values = []
        for addr in self.program.counter_addrs:
            val = None
            for cache in self.caches:
                blk = cache.blocks.get(addr)
                if blk is not None and blk.state in OWNERSHIP:
                    val = blk.data
                    break
            if val is None:
                home = home_node(addr, self.cfg.procs, self.cfg.block_bytes)
                val = self.dirs[home].memory.get(addr, 0)
            values.append(val)
        return values

    def _stats(self, end_cycle):
        cfg = self.cfg
        return RunStats(
            topology=cfg.topology,
            procs=cfg.procs,
            counters=cfg.counters,
            iters=cfg.iters,
            noncrit_work=cfg.noncrit_work,
            bandwidth=cfg.bandwidth,
            cam=cfg.cam,
            seed=cfg.seed,
            total_cycles=end_cycle,
            crit_reqs=self.crit_reqs,
            noncrit_reqs=self.noncrit_reqs,
            link_busy_cycles=list(self.net.busy_cycles),
            link_contention_cycles=list(self.net.contention_cycles),
            link_transmitted=list(self.net.transmitted),
            final_counters=self.final_counter_values(),
            injected=self.net.injected,
            delivered=self.net.delivered,
            swmr_checks=self.swmr_checks,
        )


def run_simulation(cfg):
    """Run one configuration to completion and return its RunStats."""
    return Simulator(cfg).run()


def compute_speedup(base, cam):
    """Cycles(baseline) / Cycles(CAM) for a matched pair of runs."""
    if base.cam or not cam.cam:
        raise UsageError("expected a baseline stats then a CAM stats")
    for name in ("topology", "procs", "counters", "iters", "noncrit_work",
                 "bandwidth", "seed"):
        if getattr(base, name) != getattr(cam, name):
            raise UsageError("runs differ in %s: %r vs %r"
                             % (name, getattr(base, name), getattr(cam, name)))
    return base.total_cycles / cam.total_cycles


# -- sweeps ---------------------------------------------------------------------

@dataclass
class SweepRow:
    config_id: str
    stats: RunStats | None
    speedup: float | None = None
    error: str | None = None


def config_id_of(cfg):
    return "%s.%dp.c%d.bw%d.%s" % (cfg.topology, cfg.procs, cfg.counters,
                                   cfg.bandwidth, "cam" if cfg.cam else "base")


def _run_for_pool(cfg_dict):
    cfg = Config(**cfg_dict)
    try:
        return config_id_of(cfg), run_simulation(cfg), None
    except Exception as exc:  # recorded in the row; the sweep continues
        return config_id_of(cfg), None, "%s: %s" % (type(exc).__name__, exc)


def run_sweep(deltas, base=None, parallel=None):
    """Run baseline+CAM pairs for every config delta; rows sorted by id.

    `deltas` is a list of dicts of Config field overrides. The CAM flag is
    controlled by the sweep itself: each delta produces a cam=off and a
    cam=on run. Runs execute in parallel processes when `parallel` > 1.
    """
    base = base or Config()
    cfgs = []
    for delta in deltas:
        for cam in (False, True):
            cfg = replace(base, **delta)
            cfg.cam = cam
            cfg.validate()
            cfgs.append(cfg)
    if parallel is None:
        parallel = min(8, os.cpu_count() or 1)
    payloads = [asdict(c) for c in cfgs]
    if parallel > 1 and len(cfgs) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_for_pool, payloads))
    else:
        results = [_run_for_pool(p) for p in payloads]

    by_id = {cid: (stats, err) for cid, stats, err in results}
    rows = []
    for cid in sorted(by_id):
        stats, err = by_id[cid]
        rows.append(SweepRow(cid, stats, None, err))
    # attach speedups to cam rows with a matching healthy baseline
    for row in rows:
        if row.stats is not None and row.stats.cam:
            base_id = row.config_id[:-3] + "base"
            mate = by_id.get(base_id)
            if mate and mate[0] is not None:
                row.speedup = compute_speedup(mate[0], row.stats)
    return rows


CSV_COLUMNS = ("config_id", "topology", "procs", "counters", "iters",
               "bandwidth", "cam", "seed", "cycles", "crit_reqs",
               "noncrit_reqs", "ratio", "avg_link_util",
               "avg_contention_cycles", "speedup")


def format_csv(rows):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        s = row.stats
        if s is None:
            cells = [row.config_id] + [""] * (len(CSV_COLUMNS) - 1)
        else:
            cells = [
                row.config_id, s.topology, str(s.procs), str(s.counters),
                str(s.iters), str(s.bandwidth), "on" if s.cam else "off",
                str(s.seed), str(s.total_cycles), str(s.crit_reqs),
                str(s.noncrit_reqs), "%.6f" % s.ratio,
                "%.6f" % s.avg_link_utilization,
                "%.6f" % s.avg_contention_cycles,
                "" if row.speedup is None else "%.6f" % row.speedup,
            ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_csv(rows, destination):
    """Write the sweep table; one row per run, newline-terminated."""
    text = format_csv(rows)
    try:
        with open(destination, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError("cannot write CSV to %r: %s" % (destination, exc)) from exc


# -- the paper sweep preset ---------------------------------------------------------

# Workload shape for preset runs. Chosen so that at 300 counters the lock
# is saturated (runtime tracks critical-section length, where link
# contention hits critical traffic) while at 100 counters the threads are
# mostly doing private work (the lock stops being the bottleneck). Memory
# latency is set low because preset runs model the bandwidth-starved
# regime: transaction cost must be dominated by link serialization, not
# DRAM waits.
PRESET_ITERS = 3
PRESET_NONCRIT_WORK = 5000
PRESET_LAT_MEM = 30


def paper_preset(base=None):
    """Config deltas for the speedup + sensitivity matrix."""
    deltas = []
    for topo in TOPOLOGY_KINDS:
        for procs in (16, 4):
            for counters in (300, 100):
                for bw in (125, 250):
                    deltas.append(dict(
                        topology=topo, procs=procs, counters=counters,
                        bandwidth=bw, iters=PRESET_ITERS,
                        noncrit_work=PRESET_NONCRIT_WORK,
                        lat_mem=PRESET_LAT_MEM, seed=0))
    return deltas


SWEEP_PRESETS = {"paper": paper_preset}
