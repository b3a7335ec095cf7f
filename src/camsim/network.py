"""Message transport over links with six virtual networks.

Messages of the three protocol classes (request / forward / response)
travel on vnets 0-2 when non-critical and 3-5 when critical. Links are
store-and-forward at whole-message granularity: a link serializes one
message at a time, for ceil(size_bytes * 10 / bandwidth) cycles, then the
message propagates for `hop_latency` cycles and lands in the next link's
input buffer (or at the destination endpoint). Routers add no queueing of
their own: links are the only contention points.

Arbitration at a link input buffer:

* cam disabled -- the oldest queued message by arrival at this link wins,
  regardless of vnet. This makes the crit bit performance-neutral in
  baseline mode (splitting one class queue across vnets 0-2/3-5 cannot
  reorder service).
* cam enabled  -- if any critical buffer (vnet 3-5) is non-empty, the
  oldest critical message wins; otherwise as above.

A contention cycle for a link is a cycle in which its buffers hold at
least one critical and one non-critical message simultaneously.
"""

from __future__ import annotations

from collections import deque

# Message classes.
REQUEST, FORWARD, RESPONSE = 0, 1, 2
CLASS_NAMES = ("Request", "Forward", "Response")

N_VNETS = 6


def vnet_of(msg_class, crit):
    """Map (class, crit) to a virtual network id: 0-2 normal, 3-5 critical."""
    return msg_class + 3 if crit else msg_class


def serialization_cycles(size_bytes, bandwidth):
    """Cycles a link is occupied by one message: ceil(bytes*10/bw), min 1."""
    return -(-size_bytes * 10 // bandwidth) or 1


class Message:
    """One protocol message in flight.

    `mtype` is a camsim.coherence message-type constant; `cls` its class.
    `value`/`acks`/`excl`/`requester` are protocol payload. `txn`
    identifies the transaction for audit logging.
    """

    __slots__ = (
        "mtype", "cls", "crit", "size", "src", "dst", "addr",
        "requester", "acks", "value", "excl", "txn",
        "vnet", "seqno", "inject_cycle", "route", "hop", "stamp",
    )

    def __init__(self, mtype, cls, crit, size, src, dst, addr,
                 requester=None, acks=0, value=None, excl=False, txn=None):
        self.mtype = mtype
        self.cls = cls
        self.crit = crit
        self.size = size
        self.src = src
        self.dst = dst
        self.addr = addr
        self.requester = requester
        self.acks = acks
        self.value = value
        self.excl = excl
        self.txn = txn
        self.vnet = cls + 3 if crit else cls
        self.seqno = -1
        self.inject_cycle = -1
        self.route = None
        self.hop = 0
        self.stamp = 0

    def __deepcopy__(self, memo):
        # every slot holds an int, bool, None or a tuple of those
        twin = Message.__new__(Message)
        twin.mtype = self.mtype
        twin.cls = self.cls
        twin.crit = self.crit
        twin.size = self.size
        twin.src = self.src
        twin.dst = self.dst
        twin.addr = self.addr
        twin.requester = self.requester
        twin.acks = self.acks
        twin.value = self.value
        twin.excl = self.excl
        twin.txn = self.txn
        twin.vnet = self.vnet
        twin.seqno = self.seqno
        twin.inject_cycle = self.inject_cycle
        twin.route = self.route
        twin.hop = self.hop
        twin.stamp = self.stamp
        return twin

    def __repr__(self):
        return "Message(t%d %s->%s addr=%#x vnet=%d seq=%d)" % (
            self.mtype, self.src, self.dst, self.addr, self.vnet, self.seqno)


class Network:
    """All link state for one simulation instance.

    Link state is held in dense per-link arrays indexed by the topology's
    link index. The instance is single-owner: one simulation drives it.
    """

    def __init__(self, topo, bandwidth, hop_latency=1, cam_enabled=False):
        self.topo = topo
        self.bandwidth = bandwidth
        self.hop_latency = hop_latency
        self.cam_enabled = cam_enabled

        n = topo.n_links
        self.n_links = n
        self.bufs = [tuple(deque() for _ in range(N_VNETS)) for _ in range(n)]
        self.lo_cnt = [0] * n          # queued messages on vnets 0-2
        self.hi_cnt = [0] * n          # queued messages on vnets 3-5
        self.busy_until = [0] * n
        self.busy_cycles = [0] * n
        self.contention_cycles = [0] * n
        self.transmitted = [0] * n
        self._stamp = [0] * n          # per-link arrival counter

        # Links with queued messages, insertion-ordered for determinism.
        self.active = {}
        # arrival cycle -> [messages completing a hop that cycle]
        self._arrivals = {}

        self.next_seqno = 0
        self.injected = 0
        self.delivered = 0

        # Precomputed routes as tuples of dense link indices.
        links = topo.links
        self.routes = {}
        nodes = range(topo.n_endpoints)
        for s in nodes:
            for d in nodes:
                if s != d:
                    self.routes[(s, d)] = tuple(links[l] for l in topo.route(s, d))

    # -- injection ---------------------------------------------------------

    def inject(self, msg, cycle):
        """Assign the next seqno and queue msg on the first link of its route."""
        if msg.src == msg.dst:
            raise ValueError("inject with src == dst (%d)" % msg.src)
        msg.seqno = self.next_seqno
        self.next_seqno += 1
        msg.inject_cycle = cycle
        msg.route = self.routes[(msg.src, msg.dst)]
        msg.hop = 0
        self.injected += 1
        self._enqueue(msg.route[0], msg)

    def _enqueue(self, li, msg):
        self._stamp[li] += 1
        msg.stamp = self._stamp[li]
        self.bufs[li][msg.vnet].append(msg)
        if msg.vnet < 3:
            self.lo_cnt[li] += 1
        else:
            self.hi_cnt[li] += 1
        self.active[li] = True

    # -- per-cycle operations ----------------------------------------------

    def step(self, cycle):
        """Arbitrate all queued links, then complete hops due this cycle.

        Each queued link first counts a contention cycle if its buffers
        hold both critical and non-critical traffic, then arbitrates.
        Returns the list of messages delivered to their destination
        endpoint this cycle. Messages finishing an intermediate hop are
        requeued and become arbitration candidates next cycle.
        """
        if self.active:
            busy_until = self.busy_until
            lo, hi = self.lo_cnt, self.hi_cnt
            bufs = self.bufs
            cam = self.cam_enabled
            bw = self.bandwidth
            hl1 = self.hop_latency - 1
            arrivals_map = self._arrivals
            busy_cycles = self.busy_cycles
            contention = self.contention_cycles
            drained = []
            for li in self.active:
                if lo[li] and hi[li]:
                    contention[li] += 1
                if busy_until[li] <= cycle:
                    lanes = bufs[li]
                    if cam and hi[li]:
                        best = None
                        for v in (3, 4, 5):
                            q = lanes[v]
                            if q and (best is None or q[0].stamp < best.stamp):
                                best = q[0]
                    else:
                        best = None
                        for q in lanes:
                            if q and (best is None or q[0].stamp < best.stamp):
                                best = q[0]
                    if best is not None:
                        lanes[best.vnet].popleft()
                        if best.vnet < 3:
                            lo[li] -= 1
                        else:
                            hi[li] -= 1
                        ser = serialization_cycles(best.size, bw)
                        busy_until[li] = cycle + ser
                        busy_cycles[li] += ser
                        arrive = cycle + ser + hl1
                        got = arrivals_map.get(arrive)
                        if got is None:
                            arrivals_map[arrive] = [best]
                        else:
                            got.append(best)
                if not (lo[li] or hi[li]):
                    drained.append(li)
            for li in drained:
                del self.active[li]

        arrivals = self._arrivals.pop(cycle, None)
        if not arrivals:
            return ()
        deliveries = []
        transmitted = self.transmitted
        for msg in arrivals:
            li = msg.route[msg.hop]
            transmitted[li] += 1
            if msg.hop == len(msg.route) - 1:
                self.delivered += 1
                deliveries.append(msg)
            else:
                msg.hop += 1
                self._enqueue(msg.route[msg.hop], msg)
        return deliveries

    def next_arrival(self):
        return min(self._arrivals) if self._arrivals else None

    def idle(self):
        return not self.active and not self._arrivals

    # -- reporting -----------------------------------------------------------

    def finalize(self, end_cycle):
        """Trim busy-cycle credit that extends past the end of the run."""
        for li in range(self.n_links):
            overhang = self.busy_until[li] - 1 - end_cycle
            if overhang > 0:
                self.busy_cycles[li] -= overhang
