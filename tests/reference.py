"""The scalar reference the registered engines are compared against.

The registered ``conventional`` / ``optimistic`` engines skip work they can
prove redundant (idle fast-forward, trace replay, batched run-ahead and
follow-up) and must stay bit-identical to the plain per-cycle loops, which
are reachable only by constructing their classes directly.
"""

from __future__ import annotations

from repro.channel.faults import ChannelDegradedError
from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    OperatingMode,
    OptimisticCoEmulation,
    create_engine,
)


def reference_engine(config, partition):
    """The unregistered scalar engine for ``config.mode``."""
    if config.mode is OperatingMode.CONSERVATIVE:
        return ConventionalCoEmulation(partition, config=config)
    return OptimisticCoEmulation(partition, config=config)


def run_spec(spec, registered, **config_kwargs):
    """Run ``spec`` on the mode's registered engine or on the reference."""
    config, partition = spec.prepare_run(CoEmulationConfig(**config_kwargs))
    if registered:
        return create_engine(config, partition=partition).run()
    return reference_engine(config, partition).run()


def run_outcome(spec, registered, **config_kwargs):
    """``(result, digest)`` of :func:`run_spec`.  A deterministic channel
    degradation is an outcome too: ``(None, its message)``."""
    try:
        result = run_spec(spec, registered, **config_kwargs)
    except ChannelDegradedError as exc:
        return None, f"degraded: {exc}"
    return result, full_digest(result)


def full_digest(result) -> str:
    """Every field the golden digests hash, rendered bit-exactly."""
    return repr(
        (
            sorted(result.domain_beat_keys.items()),
            result.committed_cycles,
            result.transitions,
            result.prediction,
            {k: repr(v) for k, v in result.per_cycle_times.items()},
            repr(result.total_modelled_time),
            result.channel.get("accesses"),
            result.channel.get("words"),
            repr(result.channel.get("total_time")),
            result.wasted_leader_cycles,
            result.monitors_ok,
        )
    )
