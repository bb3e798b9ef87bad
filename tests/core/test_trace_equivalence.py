"""Equivalence and behaviour tests for periodic trace replay.

The registered ``conventional`` engine replays verified steady-state periods
and claims *bit-identity* with the scalar reference on every digest field --
beat streams, statistics, per-cycle modelled times down to the last float
ulp, channel counters.  These tests sweep every catalog scenario (ideal and
faulty channels, two-domain and multi-domain topologies) and pin down the
controller's refusal/bailout envelope.
"""

from __future__ import annotations

import pytest

from repro.core import OperatingMode
from repro.core.trace import MIN_PERIOD, PERIOD_CAP
from repro.workloads.catalog import build_scenario, scenario_names

from ..reference import full_digest, run_spec


def run_scenario(name, mode, registered, total_cycles=300):
    return run_spec(build_scenario(name), registered, mode=mode, total_cycles=total_cycles)


@pytest.mark.parametrize("total_cycles", [120, 300])
@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("mode", [OperatingMode.CONSERVATIVE, OperatingMode.ALS])
def test_registered_engines_are_bit_identical_on_every_scenario(name, mode, total_cycles):
    """Registered engine vs reference must agree bit for bit on every catalog
    scenario, ideal-channel and faulty alike, at a short and a replaying run
    length."""
    scalar = run_scenario(name, mode, False, total_cycles)
    traced = run_scenario(name, mode, True, total_cycles)
    assert full_digest(traced) == full_digest(scalar)
    # only the conventional engine carries the replay controller
    assert bool(traced.trace_replay) == (mode is OperatingMode.CONSERVATIVE)


def test_replay_fires_on_dense_streaming():
    """The headline case: steady streaming bursts replay almost entirely."""
    result = run_spec(
        build_scenario("als_streaming", n_bursts=100),
        True,
        mode=OperatingMode.CONSERVATIVE,
        total_cycles=600,
    )
    stats = result.trace_replay
    assert stats["enabled"]
    assert stats["verified_periods"] >= 1
    assert stats["replay_hits"] >= 1
    # search + one verification period are the only scalar stretches
    assert stats["replayed_cycles"] > 600 * 0.6


def test_scalar_engines_report_no_trace_stats():
    result = run_scenario("als_streaming", OperatingMode.CONSERVATIVE, False)
    assert result.trace_replay == {}


@pytest.mark.parametrize(
    "name,reason",
    [
        ("lossy_streaming", "channel_faults"),
        ("dual_accelerator_pipeline", "topology"),
        ("rmw_fifo", "ticking_components"),
    ],
)
def test_envelope_refusals_are_structured(name, reason):
    """Out-of-envelope runs disable replay with one machine-readable reason."""
    result = run_scenario(name, OperatingMode.CONSERVATIVE, True)
    stats = result.trace_replay
    assert not stats["enabled"]
    assert stats["replayed_cycles"] == 0
    assert stats["bailouts"] == {reason: 1}


def test_horizon_bailout_is_noted_once():
    """A run tail shorter than the period falls back to scalar, counted once."""
    result = run_scenario("als_streaming", OperatingMode.CONSERVATIVE, True, 5000)
    bailouts = result.trace_replay["bailouts"]
    assert bailouts.get("horizon", 0) <= 1


def test_replay_respects_total_cycles_exactly():
    for cycles in (97, 250, 301):
        scalar = run_scenario("sla_streaming", OperatingMode.CONSERVATIVE, False, cycles)
        traced = run_scenario("sla_streaming", OperatingMode.CONSERVATIVE, True, cycles)
        assert traced.committed_cycles == scalar.committed_cycles
        assert full_digest(traced) == full_digest(scalar)


def test_period_bounds_are_sane():
    assert 2 <= MIN_PERIOD < PERIOD_CAP
