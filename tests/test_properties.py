"""Property test: any Config that validate() accepts runs correctly."""

from hypothesis import assume, given, settings, strategies as st

from camsim.harness import Config, run_simulation
from camsim.topology import ConfigError, TOPOLOGY_KINDS

latency = st.integers(0, 40)
msg_bytes = st.integers(1, 400)


@st.composite
def configs(draw):
    procs = draw(st.sampled_from((2, 4, 6, 8)))
    return Config(
        topology=draw(st.sampled_from(TOPOLOGY_KINDS)),
        procs=procs,
        threads=draw(st.none() | st.integers(1, procs)),
        counters=draw(st.integers(1, 5)),
        iters=draw(st.integers(1, 2)),
        noncrit_work=draw(st.integers(0, 4)),
        bandwidth=draw(st.sampled_from((1, 3, 10, 20, 40, 125, 250, 1000))),
        cam=draw(st.booleans()),
        crit_tagging=draw(st.booleans()),
        msg_bytes_control=draw(msg_bytes),
        msg_bytes_data=draw(msg_bytes),
        block_bytes=draw(st.sampled_from((32, 64, 128))),
        l1_kb=draw(st.sampled_from((1, 2, 4))),
        l1_assoc=draw(st.sampled_from((1, 2, 4))),
        l2_kb=draw(st.sampled_from((1, 2, 4, 8))),
        l2_assoc=draw(st.sampled_from((1, 2, 4))),
        lat_l1=draw(latency),
        lat_l2=draw(latency),
        lat_mem=draw(latency),
        lat_dir=draw(latency),
        hop_latency=draw(st.integers(0, 2)),
        jitter=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=100, deadline=None)
@given(configs())
def test_valid_config_runs_to_correct_counters(cfg):
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    st = run_simulation(cfg)
    assert st.final_counters == [cfg.n_threads() * cfg.iters] * cfg.counters
    assert st.injected == st.delivered
