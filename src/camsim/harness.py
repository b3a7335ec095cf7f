"""Simulation harness: config, the cycle loop, stats, sweeps and CSV.

Each visited cycle runs a fixed phase order: link hops that land this
cycle (`Network.land`; arrived messages are scheduled for processing,
plus any delivery jitter), then the cycle's events -- core steps and
controller message processing, which inject new messages -- then link
arbitration (`Network.step`, only while links are queued). The loop then
jumps straight to the next cycle at which anything can happen: the
earliest of the next event, the next hop landing and the next release of
a queued link. Stretches with no traffic and stretches where every
queued link is still serializing are skipped wholesale. This is what
makes desk-scale runs of a 16-processor system practical.

Determinism: a configuration (including its seed) fully determines the
run. All scheduling is through one heap keyed (cycle, phase, sequence
number); no wall-clock, hashing order or float arithmetic feeds back into
simulated time.
"""

from __future__ import annotations

import heapq
import os
import random
from dataclasses import dataclass, replace

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
    PUTX,
    UNBLOCK,
    block_value,
    check_swmr,
    home_node,
)
from .memhier import CacheGeometry
from .network import Network, serialization_cycles
from .topology import ConfigError, TOPOLOGY_KINDS, build_topology
from .workload import CoreState, gen_microbenchmark


class SimulationError(RuntimeError):
    """A run went wrong: deadlock, livelock, an event scheduled in the
    past, an SWMR violation or a wrong final counter."""


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
    jitter: int = 0
    crit_tagging: bool = True

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
                     "msg_bytes_data", "mem_mb"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1, got %d"
                                  % (name, getattr(self, name)))
        # a negative latency schedules events in the past, which the run
        # loop would only report once it met one, mid-run
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
_EV_SEND = 2     # ([msgs], None) inject into the network
_EV_ISSUE = 3    # (tid, None) re-issue core_op[tid] of a waiting core
_EV_DIR_POP = 4  # (msg, None) replay the head of a directory's pending
                 # queue
_EV_NAMES = ("core", "msg", "send", "issue", "dir_pop")


class Simulator:
    """One self-contained run; single-threaded, transferable between threads."""

    def __init__(self, cfg):
        cfg.validate()
        self.cfg = cfg
        topo = build_topology(cfg.topology, cfg.procs)
        self.net = Network(topo, cfg.bandwidth, cfg.hop_latency,
                           cam_enabled=cfg.cam)
        self.program = gen_microbenchmark(
            cfg.n_threads(), cfg.counters, cfg.iters, cfg.noncrit_work,
            cfg.block_bytes, cfg.mem_bytes())
        l1g, l2g = cfg.l1_geometry(), cfg.l2_geometry()
        self.caches = [CacheController(n, l1g, l2g, cfg.procs)
                       for n in range(cfg.procs)]
        self.dirs = [DirectoryController(n, cfg.procs)
                     for n in range(cfg.procs)]
        self.cores = [CoreState(t, self.program.threads[t])
                      for t in range(cfg.n_threads())]
        self.rng = random.Random(cfg.seed)
        self._crit_tagging = cfg.crit_tagging
        # message bytes by message type; _send is their one owner
        self._size_of = [cfg.msg_bytes_data if mt in DATA_BEARING
                         else cfg.msg_bytes_control
                         for mt in range(len(MSG_NAMES))]

        self.cycle = 0
        self.evq = []
        self._seq = 0
        self.crit_reqs = 0
        self.noncrit_reqs = 0
        self.swmr_checks = 0
        # (op, addr, value, crit) while blocked
        self.core_op = [None] * len(self.cores)
        # waiting[node]: the address the node's core waits on, else None.
        # A core waits while its spin load reads nonzero, or while its
        # request finds the block mid-writeback. It re-issues once its
        # cache holds neither a readable copy nor a writeback of the
        # address. Checking that after each message for the address is
        # exact: a waiting core has no open transaction, so no fill or
        # eviction happens at its node, and only an INV, Fwd_GETX or
        # WB_Ack for that address can take its block.
        self.waiting = [None] * cfg.procs
        # INV fan-out pacing: beyond any wake round-trip spread (each hop
        # costs serialization plus hop latency in both directions). The
        # diameter is the longest route out of node 0, routes[1:procs]:
        # every topology kind looks the same from each of its nodes.
        diameter = max(map(len, self.net.routes[1:cfg.procs]))
        self.inv_pace = 2 * diameter * (2 + cfg.hop_latency) + 4
        # Watchdog window: twice an upper estimate of the longest a
        # progressing run goes with no core advancing its program. A
        # request waits at its home behind at most two transactions per
        # node, each a round trip of lookups, directory and memory latency,
        # the paced INV fan-out and four traversals (request, forward,
        # data, unblock) that each queue on every link behind at most one
        # data message per node, plus jitter. Never under 1M cycles.
        ser = serialization_cycles(cfg.msg_bytes_data, cfg.bandwidth)
        trip = (cfg.lat_l1 + 2 * cfg.lat_l2 + 2 * cfg.lat_dir + cfg.lat_mem
                + cfg.procs * self.inv_pace + 4 * (
                    cfg.jitter + diameter * (cfg.procs * ser + cfg.hop_latency)))
        self.watch_window = max(1_000_000, 4 * cfg.procs * trip)
        # (sum of the cores' pcs, the watchdog sample that first saw it)
        self._progress = (0, 0)
        self._trace_out = None      # the trace stream given to `run`

    def _trace(self, node, event, addr, old, new, crit):
        """The controllers' trace hook: one line per state transition."""
        self._trace_out.write("%d %d %s %#x %s %s %d\n"
                              % (self.cycle, node, event, addr, old, new,
                                 int(crit)))

    # -- scheduling ----------------------------------------------------------

    def _push(self, cycle, rank, kind, a, b=None):
        self._seq += 1
        heapq.heappush(self.evq, (cycle, rank, self._seq, kind, a, b))

    def _send(self, msgs, cycle):
        """Inject controller output messages at `cycle`.

        Invalidation fan-out is paced one INV per `inv_pace` cycles. The
        pace exceeds the wake round-trip spread, so emission (ring) order,
        not network distance, decides which invalidated spinner re-reads a
        contended word first. It does not prevent starvation: at the
        paper preset, some threads are still shut out of the lock for most
        of a run (ROADMAP items 8 and 9).
        """
        size_of = self._size_of
        remote = None
        inv_rank = 0
        for msg in msgs:
            mt = msg.mtype
            if mt == GETS or mt == GETX or mt == PUTX:
                if msg.crit:
                    self.crit_reqs += 1
                else:
                    self.noncrit_reqs += 1
            msg.size = size_of[mt]
            if self._trace_out is not None:
                self._trace_out.write("%d %d send_%s %#x - - %d\n"
                                      % (cycle, msg.src, MSG_NAMES[mt],
                                         msg.addr, int(msg.crit)))
            if mt == INV:
                at = cycle + inv_rank * self.inv_pace
                inv_rank += 1
                self._seq += 1
                if msg.src == msg.dst:
                    heapq.heappush(self.evq, (at + 1, _R_MSG, self._seq,
                                              _EV_MSG, msg, None))
                else:
                    heapq.heappush(self.evq, (at, _R_SEND, self._seq,
                                              _EV_SEND, (msg,), None))
            elif msg.src == msg.dst:
                # co-located cache and directory slice: no network traversal
                self._seq += 1
                heapq.heappush(self.evq, (cycle + 1, _R_MSG, self._seq,
                                          _EV_MSG, msg, None))
            elif remote is None:
                remote = [msg]
            else:
                remote.append(msg)
        if remote is not None:
            self._seq += 1
            heapq.heappush(self.evq, (cycle, _R_SEND, self._seq, _EV_SEND,
                                      remote, None))

    # -- core/memory interface -------------------------------------------------

    def _resume_core(self, tid, response, cycle):
        self._push(cycle, _R_CORE, _EV_CORE, tid, response)

    def _step_core(self, tid, response):
        core = self.cores[tid]
        action = core.step(response)
        kind = action[0]
        if kind == "mem":
            _, op, addr, value, crit = action
            # crit tagging is decided here, once: every message of the
            # request's transaction inherits this bit
            self.core_op[tid] = (op, addr, value, crit and self._crit_tagging)
            self._issue_mem(tid)
        elif kind == "local":
            self._resume_core(tid, None, self.cycle + action[1])

    def _issue_mem(self, tid):
        op, addr, value, crit = self.core_op[tid]
        cache = self.caches[tid]
        cfg = self.cfg
        cycle = self.cycle
        if op == "store":
            (tier, val), msgs = cache.store(addr, crit, value)
        elif op == "rmw":
            (tier, val), msgs = cache.rmw(addr, crit)
        else:  # load or spin
            (tier, val), msgs = cache.load(addr, crit)
        if tier == "l1":
            self._complete(tid, val, cycle + cfg.lat_l1)
        elif tier == "l2":
            self._complete(tid, val, cycle + cfg.lat_l1 + cfg.lat_l2)
        elif tier == "wb_pending":
            self.waiting[tid] = addr         # the block is mid-writeback
        else:
            # miss: request leaves after the L1+L2 lookups
            self._send(msgs, cycle + cfg.lat_l1 + cfg.lat_l2)

    def _complete(self, tid, value, at):
        """The core's request read `value`: resume the core at `at`. A spin
        is a load that completes only on reading 0: while it reads nonzero,
        the core keeps waiting."""
        op, addr = self.core_op[tid][:2]
        if op == "spin" and value != 0:
            self.waiting[tid] = addr         # lock still held
        else:
            self.core_op[tid] = None
            self._resume_core(tid, value, at)

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
        out, used_mem, replay = self.dirs[msg.dst].handle(msg, from_queue)
        if out:
            self._send(out, self.cycle + cfg.lat_dir
                       + (cfg.lat_mem if used_mem else 0))
        if msg.mtype == UNBLOCK or msg.mtype == PUTX:
            self._check_swmr(msg.addr)
        if replay is not None:
            self._push(self.cycle + cfg.lat_dir, _R_MSG, _EV_DIR_POP, replay)

    def _process_cache(self, msg):
        cfg = self.cfg
        node = msg.dst
        cache = self.caches[node]
        out, done = cache.handle(msg)
        if out:
            # forwards read the L2 data array; acks and fills are quick
            delay = cfg.lat_l2 if msg.mtype in (FWD_GETS, FWD_GETX) else 1
            self._send(out, self.cycle + delay)
        if done is not None:
            self._finish_core_op(node, *done)
        elif self.waiting[node] == msg.addr and not cache.holds(msg.addr):
            self.waiting[node] = None
            self._push(self.cycle + 1, _R_CORE, _EV_ISSUE, node)

    def _finish_core_op(self, node, addr, result):
        op = self.core_op[node]
        if op is None or op[1] != addr:
            # a request finishes only in the transaction _issue_mem opened
            # for core_op[node], which stays held until it completes
            raise SimulationError(
                "node %d: core_done for %#x at cycle %d, but the core holds "
                "%r" % (node, addr, self.cycle, op))
        self._complete(node, result, self.cycle + 1)

    def _check_swmr(self, addr):
        self.swmr_checks += 1
        problems = check_swmr(self.caches, addr)
        if problems:
            raise SimulationError(
                "SWMR violation at cycle %d addr %#x: %s"
                % (self.cycle, addr, "; ".join(problems)))

    # -- main loop -----------------------------------------------------------------

    def run(self, trace=None):
        """Run to completion and return the RunStats. `trace`, an open text
        stream that the caller closes, gets one line per message sent or
        received and per controller transition."""
        if trace is not None:
            self._trace_out = trace
            for ctl in self.caches + self.dirs:
                ctl.trace = self._trace
        cycle = self._loop()
        self.cycle = cycle
        stats = self._stats(cycle)
        # every thread increments every counter once per iteration
        want = self.cfg.n_threads() * self.cfg.iters
        for addr, val in zip(self.program.counter_addrs, stats.final_counters):
            if val != want:
                raise SimulationError(
                    "wrong answer: counter %#x ended at %r, expected %d"
                    % (addr, val, want))
        return stats

    def _loop(self):
        """Drive events and the network to completion; returns the end cycle."""
        cfg = self.cfg
        net = self.net
        evq = self.evq
        for tid in range(len(self.cores)):
            self._resume_core(tid, None, 0)

        jitter = cfg.jitter
        randrange = self.rng.randrange
        heappop = heapq.heappop
        heappush = heapq.heappush
        net_land = net.land
        net_step = net.step
        active = net.active
        cycle = 0
        watch_at = 0    # next watchdog boundary (a multiple of 65,536)
        while True:
            self.cycle = cycle
            landed = net_land(cycle)
            if landed:
                # jitter draws follow landing order
                for msg in landed:
                    self._seq += 1
                    heappush(evq, (cycle + randrange(jitter + 1) if jitter
                                   else cycle, _R_MSG, self._seq, _EV_MSG,
                                   msg, None))
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
                    self._issue_mem(a)

            if active:
                net_step(cycle)
            elif not evq and net.idle():
                if all(core.done for core in self.cores):
                    break
                self._report_stall(cycle)

            if cycle >= watch_at:
                # event-driven skips jump over boundaries: fire on crossing
                self._watchdog(cycle)
                watch_at = (cycle | 0xFFFF) + 1

            # next cycle: the next event, landing or link release
            nxt = net.wake
            if evq and evq[0][0] < nxt:
                nxt = evq[0][0]
                if nxt <= cycle:
                    raise SimulationError(
                        "%s event scheduled for cycle %d, before the "
                        "current cycle %d" % (_EV_NAMES[evq[0][3]], nxt,
                                              cycle))
            cycle = nxt
        return cycle

    def _watchdog(self, cycle):
        """Raise once no core has advanced its program (the sum of the
        cores' pcs has not moved) for over `watch_window` cycles. Requests
        that complete without moving a pc, such as a spin read or a lost
        test-and-set, are no progress. A core stuck while the others run is
        named once the others finish."""
        progress = sum(core.pc for core in self.cores)
        if progress != self._progress[0]:
            self._progress = (progress, cycle)
        elif cycle - self._progress[1] > self.watch_window:
            raise SimulationError(
                "no core advanced its program for over %d cycles "
                "(livelock): %s" % (self.watch_window,
                                    self._stuck_cores(cycle)))

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
            % (sum(not core.done for core in self.cores),
               self._stuck_cores(cycle)))

    # -- reporting -------------------------------------------------------------------

    def final_counter_values(self):
        cfg = self.cfg
        values = []
        for addr in self.program.counter_addrs:
            home = self.dirs[home_node(addr, cfg.procs, cfg.block_bytes)]
            values.append(block_value(self.caches, home.memory, addr))
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


def _run_for_pool(cfg):
    try:
        return config_id_of(cfg), run_simulation(cfg), None
    except Exception as exc:  # recorded in the row; the sweep continues
        return config_id_of(cfg), None, "%s: %s" % (type(exc).__name__, exc)


def run_sweep(deltas, base=None, parallel=None):
    """Run baseline+CAM pairs for every config delta; rows sorted by id.

    `deltas` is a list of dicts of Config field overrides. The CAM flag is
    controlled by the sweep itself: each delta produces a cam=off and a
    cam=on run. Runs execute in up to `parallel` processes when it is
    over 1. Raises UsageError before any run if two runs would share a
    config id (the id names a CSV row).
    """
    base = base or Config()
    cfgs = []
    ids = set()
    for delta in deltas:
        for cam in (False, True):
            cfg = replace(base, **delta)
            cfg.cam = cam
            cfg.validate()
            cid = config_id_of(cfg)
            if cid in ids:
                raise UsageError("two sweep runs share config id %r" % cid)
            ids.add(cid)
            cfgs.append(cfg)
    if parallel is None:
        parallel = min(8, os.cpu_count() or 1)
    # more workers than runs would only fork idle processes
    workers = min(parallel, len(cfgs))
    if workers > 1:
        # imported here, so a process that never forks loads no
        # multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_for_pool, cfgs))
    else:
        results = [_run_for_pool(c) for c in cfgs]

    rows = []
    # results keep the order of cfgs: a baseline run, then its CAM mate;
    # the CAM row gets a speedup when both runs are healthy
    pairs = iter(results)
    for (base_id, base, base_err), (cam_id, cam, cam_err) in zip(pairs, pairs):
        speedup = (compute_speedup(base, cam)
                   if base is not None and cam is not None else None)
        rows.append(SweepRow(base_id, base, None, base_err))
        rows.append(SweepRow(cam_id, cam, speedup, cam_err))
    rows.sort(key=lambda row: row.config_id)
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


# -- the paper sweep preset ---------------------------------------------------------

# Workload shape for preset runs. It aims for a saturated lock at 300
# counters (runtime tracking critical-section length, where link contention
# hits critical traffic) and mostly private work at 100 counters. Memory
# latency is low so that link serialization, not DRAM, dominates
# transaction cost. Neither aim is met on the 16-processor torus2d and
# crossbar cells measured (seed 0): the lock is held for 0.57-0.71 of the
# baseline's cycles at 300 counters, and mean link utilization is 2-7%
# (ROADMAP, "The probes").
PRESET_ITERS = 3
PRESET_NONCRIT_WORK = 5000
PRESET_LAT_MEM = 30


def paper_preset():
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
