"""Tests for the engine registry and the analytical pseudo-engine."""

from __future__ import annotations

import pytest

from repro.core import (
    AnalyticalPseudoEngine,
    CoEmulationConfig,
    ConventionalCoEmulation,
    Engine,
    EngineRegistryError,
    OperatingMode,
    OptimisticCoEmulation,
    available_engines,
    create_engine,
    engine_for_mode,
)
from repro.core.analytical import AnalyticalConfig, conventional_performance, estimate_performance
from repro.core.batch import OptimisticBatchCoEmulation
from repro.core.engine import register_engine
from repro.core.trace import ConventionalTraceCoEmulation
from repro.workloads import als_streaming_soc


@pytest.fixture()
def split():
    return als_streaming_soc(n_bursts=4).build_split()[:2]


def test_builtin_engines_are_registered():
    engines = available_engines()
    assert set(engines) == {"conventional", "optimistic", "analytical"}
    assert engines["conventional"].modes == (OperatingMode.CONSERVATIVE,)
    assert set(engines["optimistic"].modes) == {
        OperatingMode.SLA,
        OperatingMode.ALS,
        OperatingMode.AUTO,
    }
    # the pseudo-engine claims no mode: explicit opt-in only
    assert engines["analytical"].modes == ()
    assert not engines["analytical"].requires_split


def test_every_operating_mode_resolves_to_an_engine():
    assert engine_for_mode(OperatingMode.CONSERVATIVE) == "conventional"
    for mode in (OperatingMode.SLA, OperatingMode.ALS, OperatingMode.AUTO):
        assert engine_for_mode(mode) == "optimistic"


def test_create_engine_dispatches_on_mode(split):
    sim_hbm, acc_hbm = split
    conservative = create_engine(
        CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=10),
        sim_hbm,
        acc_hbm,
    )
    assert isinstance(conservative, ConventionalTraceCoEmulation)
    sim_hbm2, acc_hbm2 = als_streaming_soc(n_bursts=4).build_split()[:2]
    optimistic = create_engine(
        CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10), sim_hbm2, acc_hbm2
    )
    assert isinstance(optimistic, OptimisticBatchCoEmulation)
    assert isinstance(conservative, Engine)
    assert isinstance(optimistic, Engine)


def test_create_engine_explicit_override(split):
    sim_hbm, acc_hbm = split
    engine = create_engine(
        CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10),
        sim_hbm,
        acc_hbm,
        engine="analytical",
    )
    assert isinstance(engine, AnalyticalPseudoEngine)


def test_create_engine_unknown_engine_raises(split):
    sim_hbm, acc_hbm = split
    with pytest.raises(EngineRegistryError, match="unknown engine"):
        create_engine(
            CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10),
            sim_hbm,
            acc_hbm,
            engine="definitely-not-registered",
        )


def test_unknown_engine_error_suggests_nearest_name(split):
    sim_hbm, acc_hbm = split
    with pytest.raises(EngineRegistryError, match="did you mean 'optimistic'"):
        create_engine(
            CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10),
            sim_hbm,
            acc_hbm,
            engine="optimstic",
        )


def test_create_engine_requires_split_models():
    with pytest.raises(EngineRegistryError, match="half bus models"):
        create_engine(CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10))


def test_duplicate_registration_rejected():
    with pytest.raises(EngineRegistryError, match="already registered"):
        register_engine("conventional")(ConventionalCoEmulation)
    with pytest.raises(EngineRegistryError, match="already handled"):
        register_engine("another", modes=(OperatingMode.ALS,))(OptimisticCoEmulation)


def test_analytical_engine_matches_closed_form():
    config = CoEmulationConfig(
        mode=OperatingMode.ALS, total_cycles=1000, forced_accuracy=0.95
    )
    result = create_engine(config, engine="analytical").run()
    estimate = estimate_performance(
        AnalyticalConfig(mode=OperatingMode.ALS, prediction_accuracy=0.95)
    )
    assert result.performance_cycles_per_second == pytest.approx(estimate.performance)
    assert result.tsim == pytest.approx(estimate.t_sim)
    assert result.tchannel == pytest.approx(estimate.t_channel)
    assert result.committed_cycles == 1000
    assert result.sim_beat_keys == []  # no mechanism ran


def test_analytical_engine_conservative_matches_baseline():
    config = CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=500)
    result = create_engine(config, engine="analytical").run()
    assert result.performance_cycles_per_second == pytest.approx(
        conventional_performance(AnalyticalConfig())
    )


def test_analytical_engine_total_time_is_consistent():
    config = CoEmulationConfig(mode=OperatingMode.SLA, total_cycles=200)
    result = create_engine(config, engine="analytical").run()
    assert result.total_modelled_time == pytest.approx(
        result.committed_cycles / result.performance_cycles_per_second
    )
