"""Deterministic chaos harness: seeded kill / hang / disk-full schedules.

Crash-tolerance code is only trustworthy if its failure paths run on every
CI pass, not just when production misbehaves.  This module injects the three
failure classes the durable-execution layer must survive, *deterministically*:

* **kill** -- the executing process SIGKILLs itself at a mid-run safe point
  (the fleet's steal path and crash retry must recover);
* **hang** -- the run sleeps past its deadline / lease TTL at a safe point
  (the worker's deadline and the lease steal must fire);
* **disk_full** -- the next durable snapshot write raises ``ENOSPC`` (the
  run must continue; snapshots are an optimisation, never a correctness
  requirement).

Whether a given run is sabotaged, with which action, and at which committed
cycle, is a pure function of ``(config.seed, request_id)`` -- no wall clock,
no RNG state -- so a chaos sweep is exactly reproducible and its assertion
("the store is byte-identical to a serial run") is meaningful.

Fired actions leave **marker files** in a shared state directory: a retried
or stolen run sees the marker and does not re-fire (``once=True``), which is
what lets CI assert that a killed point is *retried to success* rather than
killed forever.  ``once=False`` keeps firing on every attempt -- the recipe
for forcing retry exhaustion and poison-point quarantine in tests.
"""

from __future__ import annotations

import hashlib
import logging
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Set, Tuple, Union

logger = logging.getLogger(__name__)

#: Everything the harness can do to a run, in schedule-derivation order.
CHAOS_ACTIONS = ("kill", "hang", "disk_full")


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos schedule: per-action probabilities plus the firing window.

    Attributes:
        seed: schedule seed; distinct seeds sabotage distinct request
            subsets.
        kill_probability: share of requests whose process SIGKILLs itself.
        hang_probability: share of requests that sleep ``hang_seconds`` at a
            safe point.
        disk_full_probability: share of requests whose snapshot writes fail
            with ``ENOSPC``.
        hang_seconds: how long a hang sleeps (set it beyond the deadline or
            lease TTL being exercised).
        window_start / window_end: the firing cycle as a fraction of the
            run's total cycles -- chaos strikes mid-run, after snapshots had
            a chance to exist, not at cycle 0.
        once: fire each (request, action) at most once across retries and
            steals (marker files); ``False`` re-fires on every attempt.
    """

    seed: int = 0
    kill_probability: float = 0.0
    hang_probability: float = 0.0
    disk_full_probability: float = 0.0
    hang_seconds: float = 120.0
    window_start: float = 0.25
    window_end: float = 0.75
    once: bool = True

    def __post_init__(self) -> None:
        total = self.kill_probability + self.hang_probability + self.disk_full_probability
        if not 0.0 <= total <= 1.0:
            raise ValueError(
                f"chaos action probabilities must sum into [0, 1], got {total:g}"
            )
        if not 0.0 <= self.window_start <= self.window_end <= 1.0:
            raise ValueError(
                "chaos window must satisfy 0 <= window_start <= window_end <= 1"
            )

    @property
    def is_idle(self) -> bool:
        """True when no action can ever fire."""
        return (
            self.kill_probability == 0.0
            and self.hang_probability == 0.0
            and self.disk_full_probability == 0.0
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "kill_probability": self.kill_probability,
            "hang_probability": self.hang_probability,
            "disk_full_probability": self.disk_full_probability,
            "hang_seconds": self.hang_seconds,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "once": self.once,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChaosConfig":
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise ValueError(
                f"payload does not fit the chaos-config schema: {exc}"
            ) from None


@dataclass(frozen=True)
class ChaosPlan:
    """What (if anything) happens to one request: the action and its cycle."""

    action: Optional[str]
    trigger_cycle: int

    @property
    def armed(self) -> bool:
        return self.action is not None


def plan_for(config: ChaosConfig, request_id: str, total_cycles: int) -> ChaosPlan:
    """The deterministic schedule for one request.

    Derivation mirrors the request-id scheme: a SHA-256 over the seed and
    the request id supplies both the action draw and the trigger fraction,
    so the plan is stable across processes, hosts and retries.
    """
    if config.is_idle:
        return ChaosPlan(action=None, trigger_cycle=0)
    digest = hashlib.sha256(f"chaos:{config.seed}:{request_id}".encode()).hexdigest()
    draw = int(digest[:8], 16) / 16 ** 8
    action: Optional[str] = None
    threshold = 0.0
    for name, probability in (
        ("kill", config.kill_probability),
        ("hang", config.hang_probability),
        ("disk_full", config.disk_full_probability),
    ):
        threshold += probability
        if draw < threshold:
            action = name
            break
    if action is None:
        return ChaosPlan(action=None, trigger_cycle=0)
    fraction = int(digest[8:16], 16) / 16 ** 8
    window = config.window_start + fraction * (config.window_end - config.window_start)
    trigger = max(1, int(window * total_cycles))
    return ChaosPlan(action=action, trigger_cycle=trigger)


class ChaosMonkey:
    """Applies a :class:`ChaosConfig` to runs at their safe points.

    One monkey serves many requests; plans are derived lazily per request
    and cached.  ``state_dir`` (shared between retries / workers) holds the
    fired markers; ``None`` keeps them in memory only, which is fine for
    single-process tests but defeats ``once`` across process boundaries.
    """

    def __init__(
        self,
        config: ChaosConfig,
        state_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = config
        self.state_dir = None if state_dir is None else Path(state_dir)
        self._plans: Dict[Tuple[str, int], ChaosPlan] = {}
        self._fired: Set[Tuple[str, str]] = set()

    # -- plan / marker bookkeeping ------------------------------------------
    def plan(self, request_id: str, total_cycles: int) -> ChaosPlan:
        key = (request_id, total_cycles)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = plan_for(self.config, request_id, total_cycles)
        return plan

    def _marker_path(self, request_id: str, action: str) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / f"{request_id}.{action}.fired"

    def has_fired(self, request_id: str, action: str) -> bool:
        if (request_id, action) in self._fired:
            return True
        marker = self._marker_path(request_id, action)
        return marker is not None and marker.exists()

    def _mark_fired(self, request_id: str, action: str) -> None:
        self._fired.add((request_id, action))
        marker = self._marker_path(request_id, action)
        if marker is None:
            return
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()
        except OSError:  # chaos must never crash the run it sabotages
            logger.warning("chaos: could not write fired marker %s", marker)

    def _should_fire(self, request_id: str, committed: int, total: int, action: str) -> bool:
        plan = self.plan(request_id, total)
        if plan.action != action or committed < plan.trigger_cycle:
            return False
        if self.config.once and self.has_fired(request_id, action):
            return False
        return True

    # -- injection points ----------------------------------------------------
    def at_safe_point(self, request_id: str, engine: Any) -> None:
        """Fire kill/hang when the run crosses its trigger cycle.

        The marker is written *before* acting so a SIGKILLed process cannot
        lose it -- exactly the once-only guarantee retries rely on.
        """
        committed = engine.ledger.committed_cycles
        total = engine.config.total_cycles
        if self._should_fire(request_id, committed, total, "kill"):
            self._mark_fired(request_id, "kill")
            logger.warning(
                "chaos: SIGKILL self at committed cycle %d of %s", committed, request_id
            )
            os.kill(os.getpid(), signal.SIGKILL)
        if self._should_fire(request_id, committed, total, "hang"):
            self._mark_fired(request_id, "hang")
            logger.warning(
                "chaos: hanging %gs at committed cycle %d of %s",
                self.config.hang_seconds,
                committed,
                request_id,
            )
            time.sleep(self.config.hang_seconds)

    def sabotage_snapshot(self, request_id: str, engine: Any) -> bool:
        """Whether the next snapshot write should fail with ``ENOSPC``."""
        committed = engine.ledger.committed_cycles
        total = engine.config.total_cycles
        if not self._should_fire(request_id, committed, total, "disk_full"):
            return False
        self._mark_fired(request_id, "disk_full")
        return True
