"""Virtual networks, serialization arithmetic and link arbitration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from camsim.coherence import (
    CLASS_OF,
    DATA_DIR,
    FORWARD,
    GETS,
    REQUEST,
    RESPONSE,
    vnet_of,
)
from camsim.network import Message, Network, serialization_cycles
from camsim.topology import TOPOLOGY_KINDS, build_topology


def mk_msg(mtype=GETS, crit=False, size=8, src=0, dst=1, addr=0):
    m = Message(mtype, src, dst, addr, crit)
    m.size = size
    return m


def test_vnet_table():
    assert vnet_of(REQUEST, False) == 0
    assert vnet_of(FORWARD, False) == 1
    assert vnet_of(RESPONSE, False) == 2
    assert vnet_of(REQUEST, True) == 3
    assert vnet_of(FORWARD, True) == 4
    assert vnet_of(RESPONSE, True) == 5


@given(st.sampled_from([REQUEST, FORWARD, RESPONSE]), st.booleans())
def test_vnet_partition(cls, crit):
    v = vnet_of(cls, crit)
    assert (v >= 3) == crit
    assert v % 3 == cls


def test_serialization_formula():
    assert serialization_cycles(8, 125) == 1     # control at baseline bw
    assert serialization_cycles(72, 125) == 6    # data at baseline bw
    assert serialization_cycles(72, 250) == 3    # doubled bandwidth
    assert serialization_cycles(8, 1000) == 1    # never below one cycle


@given(st.integers(1, 4096), st.integers(1, 10000))
def test_serialization_bounds(size, bw):
    s = serialization_cycles(size, bw)
    assert s >= 1
    assert (s - 1) * bw < size * 10 <= s * bw or s == 1


def crossbar_net(cam=False, bandwidth=125):
    topo = build_topology("crossbar", 8)
    return topo, Network(topo, bandwidth, cam_enabled=cam)


def first_link(topo):
    # crossbar routes 0 -> 5 and 0 -> 6 share their first link, 0 -> router
    return topo.links[topo.next_hop(0, 5)]


def cycle(net, cyc):
    """One simulator cycle of the network alone: land hops, then arbitrate."""
    arrived = list(net.land(cyc))
    if net.active:
        net.step(cyc)
    return arrived


def drive(net, cyc=0, jump=True):
    """Run the network to idle as Simulator._loop does; {cycle: arrivals}.

    With `jump`, cycles where every queued link is serializing are jumped
    over to `wake`; without, every cycle is stepped.
    """
    got = {}
    while True:
        arrived = cycle(net, cyc)
        if arrived:
            got[cyc] = arrived
        if net.idle():
            return got
        cyc = net.wake if jump else cyc + 1


def test_inject_routes_and_vnet():
    topo, net = crossbar_net()
    m = mk_msg(src=0, dst=5)
    net.inject(m, 0)
    li = first_link(topo)
    assert m.route == tuple(topo.links[l] for l in topo.route(0, 5))
    assert vnet_of(CLASS_OF[m.mtype], m.crit) == 0
    assert net.bufs[li][0][0] is m                 # non-critical lane
    mc = mk_msg(DATA_DIR, crit=True, size=72, src=0, dst=5)
    vnet = vnet_of(CLASS_OF[mc.mtype], mc.crit)
    assert vnet == vnet_of(RESPONSE, True) == 5
    with pytest.raises(AttributeError):
        mc.vnet = 2                                # derived, never stored
    net.inject(mc, 0)
    assert net.bufs[li][1][0] is mc                # critical lane


def test_same_cycle_injections_keep_order():
    topo, net = crossbar_net()
    a, b = mk_msg(src=0, dst=5), mk_msg(src=0, dst=6)
    net.inject(a, 0)
    net.inject(b, 0)
    assert a.stamp < b.stamp
    li = first_link(topo)
    assert list(net.bufs[li][0]) == [a, b]


def test_priority_selects_critical_when_cam_on():
    topo, net = crossbar_net(cam=True)
    a = mk_msg(src=0, dst=5)                       # noncrit, queued first
    b = mk_msg(src=0, dst=6, crit=True)
    net.inject(a, 0)
    net.inject(b, 0)
    li = first_link(topo)
    cycle(net, 0)
    assert not net.bufs[li][1]                     # b won the link
    assert list(net.bufs[li][0]) == [a]


def test_baseline_selects_oldest_regardless_of_vnet():
    topo, net = crossbar_net(cam=False)
    a = mk_msg(src=0, dst=5)
    b = mk_msg(src=0, dst=6, crit=True)
    net.inject(a, 0)
    net.inject(b, 0)
    li = first_link(topo)
    cycle(net, 0)
    assert not net.bufs[li][0]                     # a won the link
    assert list(net.bufs[li][1]) == [b]


def test_arbitrate_empty_returns_none():
    topo, net = crossbar_net()
    assert net.land(0) == ()
    net.step(0)
    assert net.busy_until == [0] * net.n_links
    assert net.idle()
    net.inject(mk_msg(src=0, dst=5), 1)
    cycle(net, 1)
    li = first_link(topo)
    # only the link that had a message queued was arbitrated
    assert [i for i in range(net.n_links) if net.busy_until[i]] == [li]
    assert net.busy_cycles[li] == sum(net.busy_cycles) == 1
    assert net.transmitted[li] == sum(net.transmitted) == 1
    assert net.wake == 3                           # lands after ser + hop


def test_link_busy_during_serialization():
    topo, net = crossbar_net()
    big = mk_msg(size=72, src=0, dst=5)
    small = mk_msg(src=0, dst=6)
    net.inject(big, 0)
    net.inject(small, 0)
    li = first_link(topo)
    cycle(net, 0)                                  # big wins
    assert net.busy_until[li] == 6
    assert net.wake == 6                           # nothing happens before
    for cyc in range(1, 6):                        # mid-serialization
        cycle(net, cyc)
        assert list(net.bufs[li][0]) == [small]
    cycle(net, 6)                                  # small wins
    assert not net.bufs[li][0]
    assert net.busy_cycles[li] == 7


def test_contention_sample():
    # the stretch opens when the second lane gets traffic and closes,
    # counting its last cycle, when a winner empties one lane
    topo, net = crossbar_net()
    li = first_link(topo)
    net.inject(mk_msg(src=0, dst=5), 0)
    cycle(net, 0)
    assert net.contention_cycles[li] == 0          # one side only
    b = mk_msg(src=0, dst=6, crit=True)
    net.inject(mk_msg(src=0, dst=5), 1)
    net.inject(b, 1)
    cycle(net, 1)
    assert net.contention_cycles[li] == 1
    cycle(net, 2)                                  # only b is left queued
    assert net.contention_cycles[li] == 1


def test_skipped_busy_cycles_accrue_contention():
    # a 6-cycle data message serializes while both lanes hold a message,
    # and the non-critical one wins at cycle 6: cycles 0-6 are contended
    # whether cycles 1-5 are visited or jumped over
    for jump in (True, False):
        topo, net = crossbar_net()
        li = first_link(topo)
        net.inject(mk_msg(size=72, src=0, dst=5), 0)
        net.inject(mk_msg(src=0, dst=6), 0)
        net.inject(mk_msg(src=0, dst=6, crit=True), 0)
        cycle(net, 0)
        assert net.wake == 6
        drive(net, 6 if jump else 1, jump)
        assert net.contention_cycles[li] == 7 == sum(net.contention_cycles)


def test_skipping_matches_per_cycle_stepping():
    # same traffic, driven with and without jumps: identical arrivals,
    # contention, busy cycles and transmissions on every link
    results = []
    for jump in (True, False):
        topo = build_topology("torus2d", 16)
        net = Network(topo, 20, hop_latency=2, cam_enabled=True)
        rng = random.Random(3)
        rank = {}
        for i in range(120):
            src, dst = rng.sample(range(16), 2)
            m = mk_msg(src=src, dst=dst, size=rng.choice((8, 72)),
                       crit=rng.random() < 0.4)
            rank[id(m)] = i
            net.inject(m, 0)
        got = drive(net, 0, jump)
        results.append(({c: [rank[id(m)] for m in ms]
                         for c, ms in got.items()},
                        net.contention_cycles, net.busy_cycles,
                        net.transmitted))
    assert sum(results[0][1]) > 0
    assert results[0] == results[1]


def test_two_hop_delivery_timing():
    # crossbar 0 -> 5: ser 1 + hop 1 per link; the hop that lands at
    # cycle 2 competes at the second link in cycle 2, and the message is
    # returned by land(4), the cycle the simulator processes it.
    topo, net = crossbar_net()
    m = mk_msg(src=0, dst=5)
    net.inject(m, 0)
    delivered = {}
    for cyc in range(0, 10):
        for msg in cycle(net, cyc):
            delivered[cyc] = msg
    assert list(delivered) == [4]
    assert delivered[4] is m
    assert net.injected == net.delivered == 1


def test_messages_on_disjoint_links_progress_together():
    topo, net = crossbar_net()
    a, b = mk_msg(src=0, dst=5), mk_msg(src=1, dst=6)
    net.inject(a, 0)
    net.inject(b, 0)
    seen = []
    for cyc in range(0, 10):
        seen.extend(cycle(net, cyc))
    assert set(id(x) for x in seen) == {id(a), id(b)}


def test_conservation_and_fifo_per_vnet():
    topo = build_topology("torus2d", 16)
    net = Network(topo, 125)
    rng = random.Random(7)
    sent = []
    for i in range(200):
        src, dst = rng.sample(range(16), 2)
        m = mk_msg(src=src, dst=dst, size=rng.choice((8, 72)))
        net.inject(m, 0)
        sent.append(m)
    got = [m for ms in drive(net).values() for m in ms]
    assert len(got) == len(sent)
    # per (src,dst) flows stay in injection order (same route, same vnet)
    rank = {id(m): i for i, m in enumerate(sent)}
    order = {}
    for m in got:
        order.setdefault((m.src, m.dst), []).append(rank[id(m)])
    for flow in order.values():
        assert flow == sorted(flow)


def test_utilization_bounded():
    topo, net = crossbar_net()
    for i in range(10):
        net.inject(mk_msg(size=72, src=0, dst=5), 0)
    got = drive(net)
    end = max(got)
    # the last landing is at or after every link's release, so no busy
    # credit extends past the end
    for li in range(net.n_links):
        assert net.busy_until[li] <= end
        assert 0 <= net.busy_cycles[li] <= end


@settings(max_examples=60, deadline=None)
@given(topology=st.sampled_from(TOPOLOGY_KINDS),
       bandwidth=st.sampled_from((20, 60, 125, 250)),
       hop_latency=st.integers(0, 3), cam=st.booleans(),
       traffic=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 7),
                                  st.integers(0, 7), st.sampled_from((8, 72)),
                                  st.booleans()),
                        min_size=1, max_size=60))
def test_contention_stretches_match_per_cycle_sampling(topology, bandwidth,
                                                       hop_latency, cam,
                                                       traffic):
    # oracle: step every cycle and count, before each step, every link
    # whose two lanes both hold a message
    topo = build_topology(topology, 8)
    net = Network(topo, bandwidth, hop_latency, cam_enabled=cam)
    due = {}
    for at, src, dst, size, crit in traffic:
        if src != dst:
            due.setdefault(at, []).append(
                mk_msg(src=src, dst=dst, size=size, crit=crit))
    sampled = [0] * net.n_links
    cyc = 0
    while due or not net.idle():
        net.land(cyc)
        for m in due.pop(cyc, ()):
            net.inject(m, cyc)
        for li in net.active:
            lo, hi = net.bufs[li]
            if lo and hi:
                sampled[li] += 1
        if net.active:
            net.step(cyc)
        cyc += 1
    assert net.contention_cycles == sampled
