"""Property-based equivalence: trace replay vs the scalar reference.

The registered ``conventional`` engine fast-forwards verified steady-state
periods through a cycle-pattern cache, and claims *bit-identity* with the
scalar reference on every digest field -- beat streams, transition and
prediction statistics, per-cycle modelled times down to the last float ulp,
channel counters.  These properties throw randomised workloads (periodic
streaming and arbitrary traffic alike), LOB depths, topology sizes and
channel-fault schedules at that claim, and pin the refusal envelope: replay
must never silently engage outside the configurations it was verified for.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.faults import ChannelFaultConfig
from repro.core import OperatingMode
from repro.workloads.catalog import accelerator_farm_4x_soc, sim_only_baseline_soc
from repro.workloads.soc import als_streaming_soc

from ..reference import run_outcome
from .test_property_equivalence import make_spec


def assert_trace_bit_identical(spec_factory, **config_kwargs):
    """The traced run's result, or ``None`` when both runs degraded alike."""
    _, scalar = run_outcome(spec_factory(), False, **config_kwargs)
    traced, digest = run_outcome(spec_factory(), True, **config_kwargs)
    assert digest == scalar
    return traced


@given(
    n_bursts=st.integers(min_value=1, max_value=60),
    issue_gap=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    lob_depth=st.sampled_from([2, 8, 64]),
    total_cycles=st.integers(min_value=50, max_value=400),
)
@settings(max_examples=20, deadline=None)
def test_trace_replay_is_bit_identical_on_random_periodic_streams(
    n_bursts, issue_gap, seed, lob_depth, total_cycles
):
    """The workload family replay targets: steady streaming bursts whose
    period depends on burst count, issue gap and seed."""
    assert_trace_bit_identical(
        lambda: als_streaming_soc(n_bursts=n_bursts, issue_gap=issue_gap, seed=seed),
        mode=OperatingMode.CONSERVATIVE,
        total_cycles=total_cycles,
        lob_depth=lob_depth,
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(
        [
            OperatingMode.CONSERVATIVE,
            OperatingMode.ALS,
            OperatingMode.SLA,
            OperatingMode.AUTO,
        ]
    ),
    lob_depth=st.sampled_from([2, 8, 64]),
    accuracy=st.one_of(st.none(), st.floats(min_value=0.3, max_value=0.99)),
    acc_writes_to_sim=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_trace_replay_is_bit_identical_on_random_workloads(
    seed, mode, lob_depth, accuracy, acc_writes_to_sim
):
    """Arbitrary (not necessarily periodic) traffic: replay either engages
    correctly or refuses -- the digest must not notice either way."""
    assert_trace_bit_identical(
        lambda: make_spec(seed, acc_writes_to_sim),
        mode=mode,
        total_cycles=180,
        lob_depth=lob_depth,
        forced_accuracy=accuracy,
        forced_accuracy_seed=seed,
    )


@given(
    n_domains=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from([OperatingMode.CONSERVATIVE, OperatingMode.ALS]),
)
@settings(max_examples=15, deadline=None)
def test_trace_replay_refuses_non_canonical_topologies(n_domains, seed, mode):
    """Replay is only verified for the canonical two-domain layout; any other
    topology must disable it with the structured reason -- and stay
    bit-identical scalar."""
    if n_domains == 1:
        factory = lambda: sim_only_baseline_soc(seed=seed)
    else:
        factory = lambda: accelerator_farm_4x_soc(
            n_accelerators=n_domains - 1, n_bursts=4, seed=seed
        )
    traced = assert_trace_bit_identical(factory, mode=mode, total_cycles=200)
    if n_domains != 2 and mode is OperatingMode.CONSERVATIVE:
        assert not traced.trace_replay["enabled"]
        assert traced.trace_replay["bailouts"] == {"topology": 1}
    elif mode is OperatingMode.ALS:
        assert traced.trace_replay == {}  # the optimistic engine never replays


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss_rate=st.floats(min_value=0.0, max_value=0.2),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.1),
    reorder_rate=st.floats(min_value=0.0, max_value=0.1),
    mode=st.sampled_from([OperatingMode.CONSERVATIVE, OperatingMode.ALS]),
    acc_writes_to_sim=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_trace_replay_refuses_faulty_channels(
    seed, loss_rate, duplicate_rate, reorder_rate, mode, acc_writes_to_sim
):
    """Fault injection perturbs per-cycle channel timing, which the per-period
    closed-form bookkeeping cannot reproduce -- replay must sit out entirely
    rather than approximate."""

    def factory():
        spec = make_spec(seed, acc_writes_to_sim)
        spec.channel_faults = ChannelFaultConfig(
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            reorder_rate=reorder_rate,
            jitter_mean=0.3e-6,
            jitter_spread=0.5e-6,
            seed=seed + 13,
        )
        return spec

    traced = assert_trace_bit_identical(factory, mode=mode, total_cycles=180)
    if traced is None:
        return  # the channel gave up identically on both engines
    if mode is OperatingMode.CONSERVATIVE:
        assert not traced.trace_replay["enabled"]
        assert traced.trace_replay["bailouts"] == {"channel_faults": 1}
    else:
        assert traced.trace_replay == {}  # the optimistic engine never replays
