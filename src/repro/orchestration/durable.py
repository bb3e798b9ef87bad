"""Durable request execution: periodic snapshots, heartbeats, resume.

:func:`execute_request_durable` is :func:`~repro.orchestration.request.
execute_request` with a persistence loop attached through the engine's
``run_hook``:

* a durable snapshot (:mod:`repro.core.snapshot`) of the whole engine is
  written every ``K`` committed cycles and/or every ``N`` wall-seconds,
  atomically, under ``<snapshot_dir>/<request_id>.snap``;
* if that file already exists when execution starts, the run **resumes**
  from it instead of starting at cycle 0 -- and because the snapshot is the
  engine's complete state at a safe point, the finished record is
  bit-identical to an uninterrupted run (corrupt snapshots are quarantined
  to ``.snap.corrupt`` and the run starts cold instead);
* a ``heartbeat`` callable is invoked at every safe point with the committed
  cycle count -- fleet workers stop renewing a lease when it stalls;
* a :class:`~repro.orchestration.chaos.ChaosMonkey` (if any) gets its shot
  at every safe point, and may veto snapshot writes (simulated disk-full);
* a ``drain`` predicate turns ``True`` into "persist a final snapshot and
  raise :class:`~repro.core.snapshot.AbortRun`" -- the graceful-shutdown
  path fleet workers use on SIGTERM.

Snapshot writes are **best-effort by design**: an ``OSError`` (disk full,
permissions, vanished directory) is counted and logged once, never raised --
losing a snapshot costs re-execution time, while failing the run would cost
the result.
"""

from __future__ import annotations

import errno
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..core.coemulation import CoEmulationEngineBase
from ..core.snapshot import AbortRun, SnapshotError, read_snapshot, write_snapshot
from .chaos import ChaosMonkey
from .request import RunRecord, RunRequest, build_request_engine, record_from_result

logger = logging.getLogger(__name__)

#: Suffix appended to a snapshot that failed its integrity checks; kept for
#: post-mortems, ignored by every reader.
CORRUPT_SUFFIX = ".corrupt"


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to write durable snapshots.

    ``every_cycles`` counts *committed* cycles (deterministic, test-friendly);
    ``every_seconds`` is wall-clock (what long production runs want).  Both
    may be set; a snapshot is written when either is due.  The default writes
    none -- durability is strictly opt-in.
    """

    every_cycles: Optional[int] = None
    every_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_cycles is not None and self.every_cycles <= 0:
            raise ValueError("checkpoint every_cycles must be positive")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValueError("checkpoint every_seconds must be positive")

    @property
    def enabled(self) -> bool:
        return self.every_cycles is not None or self.every_seconds is not None


@dataclass
class DurableRunEvents:
    """Operational counters for one durable execution (never in records)."""

    resumed_from_cycle: Optional[int] = None
    snapshots_written: int = 0
    snapshot_write_errors: int = 0
    corrupt_snapshots: int = 0
    last_committed: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "resumed_from_cycle": self.resumed_from_cycle,
            "snapshots_written": self.snapshots_written,
            "snapshot_write_errors": self.snapshot_write_errors,
            "corrupt_snapshots": self.corrupt_snapshots,
            "last_committed": self.last_committed,
        }


def snapshot_path(snapshot_dir: Union[str, Path], request_id: str) -> Path:
    """Where one request's durable snapshot lives."""
    return Path(snapshot_dir) / f"{request_id}.snap"


class _DurableHook:
    """The ``run_hook`` driving heartbeats, chaos, drain and snapshots."""

    def __init__(
        self,
        path: Path,
        request_id: str,
        policy: CheckpointPolicy,
        heartbeat: Optional[Callable[[int], None]],
        chaos: Optional[ChaosMonkey],
        drain: Optional[Callable[[], bool]],
        events: DurableRunEvents,
        start_committed: int,
    ) -> None:
        self.path = path
        self.request_id = request_id
        self.policy = policy
        self.heartbeat = heartbeat
        self.chaos = chaos
        self.drain = drain
        self.events = events
        self._last_snapshot_cycle = start_committed
        self._last_snapshot_time = time.monotonic()
        self._warned = False

    def __call__(self, engine: Any) -> None:
        committed = engine.ledger.committed_cycles
        self.events.last_committed = committed
        if self.heartbeat is not None:
            self.heartbeat(committed)
        # Scheduled write strictly before chaos: a due checkpoint is part of
        # this safe point's normal operation, a crash strikes *between*
        # safe points -- so a kill/hang injected here must still find the
        # snapshot this safe point owed.
        if self._due(committed):
            self._write(engine)
        if self.chaos is not None:
            self.chaos.at_safe_point(self.request_id, engine)
        if self.drain is not None and self.drain():
            if self.policy.enabled:
                self._write(engine)
            raise AbortRun("drain requested; progress snapshotted")

    def _due(self, committed: int) -> bool:
        policy = self.policy
        if (
            policy.every_cycles is not None
            and committed - self._last_snapshot_cycle >= policy.every_cycles
        ):
            return True
        if (
            policy.every_seconds is not None
            and time.monotonic() - self._last_snapshot_time >= policy.every_seconds
        ):
            return True
        return False

    def _write(self, engine: Any) -> None:
        try:
            if self.chaos is not None and self.chaos.sabotage_snapshot(
                self.request_id, engine
            ):
                raise OSError(errno.ENOSPC, "chaos: simulated full disk")
            write_snapshot(self.path, engine, request_id=self.request_id)
        except OSError as exc:
            # Best-effort by design: a lost snapshot costs re-execution
            # time on the next resume, failing the run would cost the
            # result.  Log the first failure, count the rest.
            self.events.snapshot_write_errors += 1
            if not self._warned:
                self._warned = True
                logger.warning(
                    "durable: snapshot write to %s failed (%s); run continues "
                    "without further warnings",
                    self.path,
                    exc,
                )
        else:
            self.events.snapshots_written += 1
        # Either way the schedule advances: retrying a failing disk at
        # every safe point would turn one ENOSPC into a hot loop.
        self._last_snapshot_cycle = engine.ledger.committed_cycles
        self._last_snapshot_time = time.monotonic()


def _load_resumable_engine(
    path: Path, request: RunRequest, events: DurableRunEvents
) -> Optional[Any]:
    """The engine stored at ``path`` if it is a valid snapshot of ``request``.

    Corrupt snapshots are renamed to ``.snap.corrupt`` (kept for
    post-mortems) so the cold start that follows is not re-poisoned; a
    snapshot recorded for a *different* request id is treated the same way
    (it can only mean an addressing bug or filesystem tampering).
    """
    try:
        meta, engine = read_snapshot(path)
    except SnapshotError as exc:
        events.corrupt_snapshots += 1
        logger.warning("durable: quarantining corrupt snapshot %s (%s)", path, exc)
        _quarantine(path)
        return None
    if meta.request_id is not None and meta.request_id != request.request_id:
        events.corrupt_snapshots += 1
        logger.warning(
            "durable: snapshot %s belongs to request %s, not %s; quarantining",
            path,
            meta.request_id,
            request.request_id,
        )
        _quarantine(path)
        return None
    engine.run_hook = None
    events.resumed_from_cycle = meta.committed_cycles
    return engine


def _quarantine(path: Path) -> None:
    try:
        os.replace(path, path.with_name(path.name + CORRUPT_SUFFIX))
    except OSError:  # racing unlink / read-only fs: nothing left to protect
        pass


def execute_request_durable(
    request: RunRequest,
    snapshot_dir: Union[str, Path],
    policy: Optional[CheckpointPolicy] = None,
    heartbeat: Optional[Callable[[int], None]] = None,
    chaos: Optional[ChaosMonkey] = None,
    drain: Optional[Callable[[], bool]] = None,
    events: Optional[DurableRunEvents] = None,
) -> RunRecord:
    """Execute ``request`` with durable snapshots under ``snapshot_dir``.

    Resumes from an existing valid snapshot, writes new ones per ``policy``,
    and deletes the snapshot on success (the record is the durable artefact
    from then on).  The returned record is bit-identical to
    :func:`~repro.orchestration.request.execute_request`'s, resumed or not.

    Raises :class:`~repro.core.snapshot.AbortRun` when ``drain`` fired; the
    final snapshot was persisted first, so the caller can release its claim
    knowing a successor resumes where this run stopped.
    """
    if policy is None:
        policy = CheckpointPolicy()
    if events is None:
        events = DurableRunEvents()
    path = snapshot_path(snapshot_dir, request.request_id)
    engine = None
    if path.exists():
        engine = _load_resumable_engine(path, request, events)
    if engine is None:
        engine = build_request_engine(request)
    engine_name = request.engine_name()
    if not isinstance(engine, CoEmulationEngineBase):
        # Pseudo-engines (e.g. the analytical model) have no run loop and
        # finish in microseconds; durability machinery would be pure noise.
        return record_from_result(request, engine_name, engine.run())
    engine.run_hook = _DurableHook(
        path=path,
        request_id=request.request_id,
        policy=policy,
        heartbeat=heartbeat,
        chaos=chaos,
        drain=drain,
        events=events,
        start_committed=engine.ledger.committed_cycles,
    )
    try:
        result = engine.run()
    finally:
        engine.run_hook = None
    record = record_from_result(request, engine_name, result)
    try:
        path.unlink()
    except OSError:
        pass
    return record
