"""Message transport over links with two arbitration lanes per link.

The network sees two lanes, and a message's crit bit picks its lane. Its
virtual network is its protocol class (request / forward / response)
crossed with the crit bit (`coherence.vnet_of`: 0-2 non-critical, 3-5
critical); vnets key the model checker's channels, and links arbitrate
two lanes exactly as they would six vnet buffers (below).

Links are store-and-forward at whole-message granularity: a link
serializes one message at a time, for ceil(size_bytes * 10 / bandwidth)
cycles, then the message propagates for `hop_latency` cycles and lands in
the next link's input buffer (or at the destination endpoint). Routers
add no queueing of their own: links are the only contention points.

Each link's input buffer is two FIFOs in arrival order: the non-critical
lane (vnets 0-2) and the critical lane (vnets 3-5). Every enqueue stamps
the message with a rising arrival number. Within one vnet FIFO order is
stamp order, so the oldest head across vnets 3-5 is the head of their
merged FIFO, and likewise for vnets 0-2; the two lanes therefore
arbitrate exactly as six per-vnet buffers would:

* cam disabled -- the older of the two lane heads (by stamp) wins,
  regardless of vnet. This makes the crit bit performance-neutral in
  baseline mode (splitting one class queue across vnets 0-2/3-5 cannot
  reorder service).
* cam enabled  -- the critical lane's head wins whenever that lane is
  non-empty; otherwise the non-critical head.

Timing is event-driven at hop granularity. A hop arbitrated at cycle `c`
lands at `c + ser + hop_latency`: the first cycle at which it can compete
at its next link or be processed at its destination. `land(cycle)` runs
at the start of that cycle, requeues the landed messages that have hops
left and returns the ones that have arrived. `step(cycle)` arbitrates
every free queued link and leaves `wake` at the next cycle at which
anything can change here: the next landing or the earliest cycle a
queued link frees up. Cycles in between, where every queued link is
still serializing, need no visit.

A contention cycle for a link is a cycle in which its lanes hold at least
one critical and one non-critical message when it is arbitrated. Lanes
change only when a message joins one (`inject`, `land`) or wins a link
(`step`), so each link counts whole stretches: a stretch starts at the
cycle a message joins an empty lane while the other lane holds traffic,
and ends at the cycle a winner leaves one lane empty, which it includes.
Skipped cycles thus need no visit to be counted. A reading taken mid-run
lags by each link's open stretch; once the network is idle every stretch
is closed.
"""

from __future__ import annotations

import heapq
from collections import deque

# `wake` when nothing in the network is scheduled.
NEVER = 1 << 62


def serialization_cycles(size_bytes, bandwidth):
    """Cycles a link is occupied by one message: ceil(bytes*10/bw), min 1."""
    return -(-size_bytes * 10 // bandwidth) or 1


class Message:
    """One protocol message in flight.

    `mtype` is a camsim.coherence message-type constant; `crit` a bool.
    `value`/`acks`/`excl`/`requester` are protocol payload. `size` is set
    when the message is sent (`Simulator._send`); the rest is routing state.
    """

    __slots__ = (
        "mtype", "crit", "size", "src", "dst", "addr",
        "requester", "acks", "value", "excl",
        "route", "hop", "stamp",
    )

    def __init__(self, mtype, src, dst, addr, crit, requester=None, acks=0,
                 value=None, excl=False):
        self.mtype = mtype
        self.crit = crit
        self.size = 0
        self.src = src
        self.dst = dst
        self.addr = addr
        self.requester = requester
        self.acks = acks
        self.value = value
        self.excl = excl
        self.route = None
        self.hop = 0
        self.stamp = 0

    def __repr__(self):
        return "Message(t%d %s->%s addr=%#x crit=%d)" % (
            self.mtype, self.src, self.dst, self.addr, self.crit)


class Network:
    """All link state for one simulation instance.

    Link state is held in dense per-link arrays indexed by the topology's
    link index. The instance is single-owner: one simulation drives it.
    """

    def __init__(self, topo, bandwidth, hop_latency=1, cam_enabled=False):
        self.bandwidth = bandwidth
        self.hop_latency = hop_latency
        self.cam_enabled = cam_enabled

        n = topo.n_links
        self.n_links = n
        # (non-critical, critical) lanes, indexed by msg.crit
        self.bufs = [(deque(), deque()) for _ in range(n)]
        self.busy_until = [0] * n
        self.busy_cycles = [0] * n
        self.contention_cycles = [0] * n
        self._contended_since = [0] * n   # start of each open stretch
        self.transmitted = [0] * n
        self._stamp = 0                # arrival counter, shared by all links
        self._ser = {}                 # size -> serialization cycles

        # Links with queued messages, insertion-ordered for determinism.
        self.active = {}
        # landing cycle -> [messages landing then, in arbitration order]
        self._landings = {}
        self._land_at = []             # heap of the keys of _landings
        self.wake = NEVER

        self.injected = 0
        self.delivered = 0

        # Precomputed routes as tuples of dense link indices, at src*n+dst.
        links = topo.links
        self._n_nodes = ne = topo.n_endpoints
        self.routes = [None] * (ne * ne)
        for s in range(ne):
            for d in range(ne):
                if s != d:
                    self.routes[s * ne + d] = tuple(
                        links[l] for l in topo.route(s, d))

    # -- injection ---------------------------------------------------------

    def inject(self, msg, cycle):
        """Queue msg on the first link of its route at `cycle`."""
        src, dst = msg.src, msg.dst
        if src == dst:
            raise ValueError("inject with src == dst (%d)" % src)
        route = msg.route = self.routes[src * self._n_nodes + dst]
        msg.hop = 0
        self.injected += 1
        self._join(msg, route[0], cycle)

    def _join(self, msg, li, cycle):
        """Stamp msg and append it to its lane of link `li` at `cycle`."""
        self._stamp = msg.stamp = self._stamp + 1
        lanes = self.bufs[li]
        lane = lanes[msg.crit]
        if not lane and lanes[not msg.crit]:
            self._contended_since[li] = cycle
        lane.append(msg)
        self.active[li] = True

    # -- hop events ----------------------------------------------------------

    def land(self, cycle):
        """Complete the hops landing at `cycle`; returns the arrived messages.

        Runs at the start of the cycle, before any other work. Messages with
        hops left join their next link's lane and compete in this cycle's
        `step`.
        """
        msgs = self._landings.pop(cycle, None)
        if msgs is None:
            return ()
        land_at = self._land_at
        heapq.heappop(land_at)
        self.wake = land_at[0] if land_at else NEVER
        arrived = []
        join = self._join
        for msg in msgs:
            route = msg.route
            hop = msg.hop + 1
            if hop == len(route):
                arrived.append(msg)
            else:
                msg.hop = hop
                join(msg, route[hop], cycle)
        self.delivered += len(arrived)
        return arrived

    def step(self, cycle):
        """Arbitrate every free queued link at `cycle`.

        Each winner occupies its link for its serialization time and is
        scheduled to land `hop_latency` cycles after. A winner that empties
        its lane while the other lane holds traffic closes the link's
        contention stretch. Leaves `wake` at the next landing or link
        release.
        """
        busy_until = self.busy_until
        bufs = self.bufs
        cam = self.cam_enabled
        contention = self.contention_cycles
        since = self._contended_since
        busy_cycles = self.busy_cycles
        transmitted = self.transmitted
        landings = self._landings
        land_at = self._land_at
        sers = self._ser
        hl = self.hop_latency
        drained = []
        wake = NEVER
        for li in self.active:
            free = busy_until[li]
            if free <= cycle:
                lo, hi = bufs[li]
                lane = (hi if hi and (cam or not lo or hi[0].stamp < lo[0].stamp)
                        else lo)
                msg = lane.popleft()
                size = msg.size
                ser = sers.get(size)
                if ser is None:
                    ser = sers[size] = serialization_cycles(size,
                                                            self.bandwidth)
                free = busy_until[li] = cycle + ser
                busy_cycles[li] += ser
                transmitted[li] += 1
                at = free + hl
                got = landings.get(at)
                if got is None:
                    landings[at] = [msg]
                    heapq.heappush(land_at, at)
                else:
                    got.append(msg)
                if not lane:
                    if not (lo or hi):
                        drained.append(li)
                        continue
                    contention[li] += cycle + 1 - since[li]
            if free < wake:
                wake = free
        for li in drained:
            del self.active[li]
        if land_at and land_at[0] < wake:
            wake = land_at[0]
        self.wake = wake

    def idle(self):
        return not self.active and not self._landings
