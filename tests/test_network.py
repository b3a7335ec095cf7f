"""Virtual networks, serialization arithmetic and link arbitration."""

import pytest
from hypothesis import given, strategies as st

from camsim.coherence import CLASS_OF, DATA_DIR, GETS
from camsim.network import (
    FORWARD,
    Message,
    Network,
    REQUEST,
    RESPONSE,
    serialization_cycles,
    vnet_of,
)
from camsim.topology import build_topology


def mk_msg(mtype=GETS, crit=False, size=8, src=0, dst=1, addr=0):
    return Message(mtype, CLASS_OF[mtype], crit, size, src, dst, addr)


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


def test_inject_routes_and_vnet():
    topo, net = crossbar_net()
    m = mk_msg(src=0, dst=5)
    net.inject(m, 0)
    li = topo.links[topo.next_hop(0, 5)]
    assert net.bufs[li][0][0] is m
    mc = mk_msg(crit=True, size=72, src=0, dst=5)
    mc.vnet = 5
    mc.cls = RESPONSE
    net.inject(mc, 0)
    assert net.bufs[li][5][0] is mc


def test_same_cycle_injections_keep_order():
    topo, net = crossbar_net()
    a, b = mk_msg(src=0, dst=5), mk_msg(src=0, dst=6)
    net.inject(a, 0)
    net.inject(b, 0)
    assert a.seqno < b.seqno
    li = topo.links[topo.next_hop(0, 5)]
    assert list(net.bufs[li][0]) == [a, b]


def first_link(topo):
    # crossbar routes 0 -> 5 and 0 -> 6 share their first link, 0 -> router
    return topo.links[topo.next_hop(0, 5)]


def test_priority_selects_critical_when_cam_on():
    topo, net = crossbar_net(cam=True)
    a = mk_msg(src=0, dst=5)                       # noncrit, queued first
    b = mk_msg(src=0, dst=6, crit=True)
    b.vnet = 3
    net.inject(a, 0)
    net.inject(b, 0)
    li = first_link(topo)
    net.step(0)
    assert not net.bufs[li][3]                     # b won the link
    assert list(net.bufs[li][0]) == [a]


def test_baseline_selects_oldest_regardless_of_vnet():
    topo, net = crossbar_net(cam=False)
    a = mk_msg(src=0, dst=5)
    b = mk_msg(src=0, dst=6, crit=True)
    b.vnet = 3
    net.inject(a, 0)
    net.inject(b, 0)
    li = first_link(topo)
    net.step(0)
    assert not net.bufs[li][0]                     # a won the link
    assert list(net.bufs[li][3]) == [b]


def test_arbitrate_empty_returns_none():
    topo, net = crossbar_net()
    assert net.step(0) == ()
    assert net.busy_until == [0] * net.n_links
    net.inject(mk_msg(src=0, dst=5), 1)
    net.step(1)
    li = first_link(topo)
    # only the link that had a message queued was arbitrated
    assert [i for i in range(net.n_links) if net.busy_until[i]] == [li]
    assert net.busy_cycles[li] == sum(net.busy_cycles) == 1


def test_link_busy_during_serialization():
    topo, net = crossbar_net()
    big = mk_msg(size=72, src=0, dst=5)
    small = mk_msg(src=0, dst=6)
    net.inject(big, 0)
    net.inject(small, 0)
    li = first_link(topo)
    net.step(0)                                    # big wins
    assert net.busy_until[li] == 6
    for cyc in range(1, 6):                        # mid-serialization
        net.step(cyc)
        assert list(net.bufs[li][0]) == [small]
    net.step(6)                                    # small wins
    assert not net.bufs[li][0]
    assert net.busy_cycles[li] == 7


def test_contention_sample():
    # step samples contention before it arbitrates
    topo, net = crossbar_net()
    li = first_link(topo)
    net.inject(mk_msg(src=0, dst=5), 0)
    net.step(0)
    assert net.contention_cycles[li] == 0          # one side only
    b = mk_msg(src=0, dst=6, crit=True)
    b.vnet = 3
    net.inject(mk_msg(src=0, dst=5), 1)
    net.inject(b, 1)
    net.step(1)
    assert net.contention_cycles[li] == 1
    net.step(2)                                    # only b is left queued
    assert net.contention_cycles[li] == 1


def test_two_hop_delivery_timing():
    # crossbar 0 -> 5: ser 1 + hop 1 per link; arbitration of hop 2
    # happens the cycle after arrival.
    topo, net = crossbar_net()
    m = mk_msg(src=0, dst=5)
    net.inject(m, 0)
    delivered = {}
    for cyc in range(0, 10):
        for msg in net.step(cyc):
            delivered[cyc] = msg
    assert delivered and list(delivered) == [3]
    assert delivered[3] is m
    assert net.injected == net.delivered == 1


def test_messages_on_disjoint_links_progress_together():
    topo, net = crossbar_net()
    a, b = mk_msg(src=0, dst=5), mk_msg(src=1, dst=6)
    net.inject(a, 0)
    net.inject(b, 0)
    seen = []
    for cyc in range(0, 10):
        seen.extend(net.step(cyc))
    assert set(id(x) for x in seen) == {id(a), id(b)}


def test_conservation_and_fifo_per_vnet():
    topo = build_topology("torus2d", 16)
    net = Network(topo, 125)
    import random
    rng = random.Random(7)
    sent = []
    for i in range(200):
        src, dst = rng.sample(range(16), 2)
        m = mk_msg(src=src, dst=dst, size=rng.choice((8, 72)))
        net.inject(m, 0)
        sent.append(m)
    got = []
    cyc = 0
    while not net.idle():
        got.extend(net.step(cyc))
        cyc += 1
    assert len(got) == len(sent)
    # per (src,dst) flows stay in order (same route, same vnet)
    order = {}
    for m in got:
        order.setdefault((m.src, m.dst), []).append(m.seqno)
    for flow in order.values():
        assert flow == sorted(flow)


def test_utilization_bounded():
    topo, net = crossbar_net()
    for i in range(10):
        net.inject(mk_msg(size=72, src=0, dst=5), 0)
    cyc = 0
    while not net.idle():
        net.step(cyc)
        cyc += 1
    net.finalize(cyc)
    for li in range(net.n_links):
        assert 0 <= net.busy_cycles[li] <= cyc
