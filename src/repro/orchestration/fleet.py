"""Distributed, work-stealing sweep execution over a shared cache directory.

The content-addressed :class:`~repro.orchestration.cache.ResultCache` already
makes results location-independent: a record stored under its ``request_id``
by *any* process is byte-identical to the record any other process would
produce.  This module adds the two missing pieces for running one sweep
across many workers -- on one host or on many hosts sharing the cache
directory -- without a coordinator process:

* a **grid manifest** (``<cache>/fleet/grid.json``): the sweep's request
  list in canonical encoding, published once so workers started on any host
  (``repro worker --cache DIR``) know what to execute;
* a **claim protocol** (:mod:`.claims`): workers claim points by
  ``request_id`` via atomic lease files, heartbeat while executing, and
  steal leases whose heartbeats have stopped (a SIGKILLed worker's in-flight
  points are re-executed by survivors after one TTL).

Workers are stateless and interchangeable: each loops over the grid, skips
points already in the cache, claims and executes misses, and exits when the
grid is fully cached or quarantined.  Supervision lives in the worker too: a
per-attempt deadline, retries that resume from the latest snapshot, and a
shared **attempt ledger** from which the failure record of a quarantined
point (timeout, crash, poison or degraded) is built.

:func:`run_fleet` is the driver behind ``repro sweep --fleet N`` and behind
every supervised ``repro run`` / ``repro sweep`` (``--deadline``,
``--max-retries``, chaos): it publishes the manifest, spawns N local worker
processes, restarts dead ones, and finishes with :func:`reconcile` -- the
same operation as ``sweep --resume`` -- so a sweep interrupted at any point
(mid-shard write, mid-claim, mid-store rewrite) converges to an output store
byte-identical to a ``--jobs 1`` run of the same grid.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..channel.faults import ChannelDegradedError
from ..core.snapshot import AbortRun, SnapshotError, read_snapshot_meta
from .cache import ResultCache, ResumePlan, plan_resume
from .chaos import ChaosConfig, ChaosMonkey
from .claims import DEFAULT_LEASE_TTL, ClaimBoard, default_owner
from .durable import (
    CheckpointPolicy,
    DurableRunEvents,
    execute_request_durable,
    snapshot_path,
)
from .request import RunRecord, RunRequest, canonical_json, _sha256
from .runner import BatchRunner
from .store import RunStore, atomic_write_text
from .supervisor import RunFailure

#: Seconds an idle worker sleeps before re-scanning the grid for newly
#: expired leases or newly cached results.
DEFAULT_POLL_INTERVAL = 0.2

#: Subdirectory of the cache root holding all fleet coordination state
#: (grid manifest, claim leases, per-worker stats).  Result shards stay at
#: the cache root, untouched, so a fleet cache is also a plain cache.
FLEET_DIRNAME = "fleet"


def fleet_dir(cache_root: Union[str, Path]) -> Path:
    return Path(cache_root) / FLEET_DIRNAME


def claims_dir(cache_root: Union[str, Path]) -> Path:
    return fleet_dir(cache_root) / "claims"


def manifest_path(cache_root: Union[str, Path]) -> Path:
    return fleet_dir(cache_root) / "grid.json"


def stats_dir(cache_root: Union[str, Path], sweep_id: str) -> Path:
    return fleet_dir(cache_root) / "stats" / sweep_id


def snapshots_dir(cache_root: Union[str, Path]) -> Path:
    """Shared durable-snapshot directory, keyed by ``request_id``.

    Shared (not per-worker) on purpose: a worker stealing an expired lease
    finds the victim's last snapshot at the same path its own checkpoints
    would use, so the stolen point **resumes mid-run** instead of restarting
    at cycle 0.
    """
    return fleet_dir(cache_root) / "snapshots"


def chaos_state_dir(cache_root: Union[str, Path]) -> Path:
    """Shared fired-marker directory for the chaos harness (survives kills)."""
    return fleet_dir(cache_root) / "chaos"


def attempts_dir(cache_root: Union[str, Path], sweep_id: str) -> Path:
    """Cross-worker attempt ledger: per point, one ``NNNN.attempt`` entry per
    execution attempt, numbered in start order, naming its owner and, once
    closed, how it ended."""
    return fleet_dir(cache_root) / "attempts" / sweep_id


def quarantine_dir(cache_root: Union[str, Path], sweep_id: str) -> Path:
    return fleet_dir(cache_root) / "quarantine" / sweep_id


def quarantine_path(
    cache_root: Union[str, Path], sweep_id: str, request_id: str
) -> Path:
    return quarantine_dir(cache_root, sweep_id) / f"{request_id}.json"


def write_quarantine(
    cache_root: Union[str, Path], sweep_id: str, failure: RunFailure
) -> None:
    """Quarantine one poison point: its failure record, atomically published.

    The file's existence is the signal -- every worker (and the fleet driver)
    treats a quarantined point as done, which is what stops a poisonous
    request from eating the whole fleet's restart budget.
    """
    atomic_write_text(
        quarantine_path(cache_root, sweep_id, failure.request_id),
        canonical_json(failure.as_dict()) + "\n",
    )


def load_quarantine(
    cache_root: Union[str, Path], sweep_id: str
) -> List[RunFailure]:
    """Every quarantined point of one sweep, sorted by request id."""
    directory = quarantine_dir(cache_root, sweep_id)
    failures = []
    if directory.is_dir():
        for path in sorted(directory.glob("*.json")):
            try:
                failures.append(RunFailure.from_dict(json.loads(path.read_text())))
            except (ValueError, KeyError, TypeError):
                continue  # torn quarantine file from a crash mid-write
    return failures


def _snapshot_cycle(snapshot_root: Path, request_id: str) -> Optional[int]:
    """Committed cycle of the point's latest durable snapshot, if any.

    Deterministic under a cycle-based checkpoint policy, unlike anything a
    worker could report on its own clock.  Reads only the snapshot header,
    never the pickled engine.
    """
    try:
        meta = read_snapshot_meta(snapshot_path(snapshot_root, request_id))
    except (OSError, SnapshotError):
        return None
    return meta.committed_cycles


def _begin_attempt(directory: Path, number: int, owner: str) -> Path:
    """Durably mark "``owner`` starts execution attempt ``number`` of this
    point".

    Written *before* executing, so an attempt that SIGKILLs its worker stays
    on the books as an open entry; the fleet driver, which sees its worker
    die, closes it as a ``crash`` (:func:`_close_dead_attempts`).  That
    persistence is what lets the fleet recognise a poison point (failed
    attempts pile up without a cached record) and quarantine it instead of
    dying one worker at a time forever.
    """
    directory.mkdir(parents=True, exist_ok=True)
    while True:
        path = directory / f"{number:04d}.attempt"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:  # a concurrent (stolen) attempt took it
            number += 1
            continue
        with os.fdopen(fd, "w") as handle:
            handle.write(canonical_json({"owner": owner}) + "\n")
        return path


def _end_attempt(
    path: Path,
    status: str,
    snapshot_root: Path,
    request_id: str,
    error: Optional[str] = None,
) -> Dict[str, object]:
    """Record how an attempt ended: its status and how far it got."""
    entry: Dict[str, object] = {
        "status": status,
        "last_committed": _snapshot_cycle(snapshot_root, request_id),
    }
    if error is not None:
        entry["error"] = error
    atomic_write_text(path, canonical_json(entry) + "\n")
    return entry


def _read_entry(path: Path) -> Dict[str, object]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):  # torn by a crash between create and write
        return {}


def _read_attempts(directory: Path) -> List[Dict[str, object]]:
    """Every failed attempt at one point, in start order, as failure-record
    detail.

    Only *closed* entries count.  An open one belongs to a worker that is
    still running -- perhaps stalled, its lease stolen -- or that died where
    no driver saw it; neither is charged, since a live attempt may yet
    succeed.
    """
    history = []
    for path in sorted(directory.glob("*.attempt")):
        entry = _read_entry(path)
        if "status" in entry:
            history.append({"attempt": len(history), **entry})
    return history


def _close_dead_attempts(
    cache_root: Union[str, Path], sweep_id: str, owner: str
) -> int:
    """Close, as ``crash``, the attempts a dead worker left open.

    Called by the fleet driver for a worker process it saw exit abnormally
    (a SIGKILL, a chaos kill), so the owner is known dead, never guessed.
    The attempts are found through the leases the worker still holds, and
    ``last_committed`` is read from the snapshot each one left.  Returns the
    number of attempts closed.
    """
    closed = 0
    leases = ClaimBoard(claims_dir(cache_root), owner=owner).outstanding()
    for request_id, lease in leases.items():
        if lease.owner != owner:
            continue
        ledger = attempts_dir(cache_root, sweep_id) / request_id
        for path in sorted(ledger.glob("*.attempt")):
            if _read_entry(path) == {"owner": owner}:
                _end_attempt(path, "crash", snapshots_dir(cache_root), request_id)
                closed += 1
    return closed


def _failure(
    request: RunRequest, history: List[Dict[str, object]], max_retries: int
) -> RunFailure:
    """The quarantine record of a point whose attempts all failed.

    ``degraded`` is deterministic and never retried, so it keeps its kind;
    with ``max_retries == 0`` the single attempt keeps its own kind
    (``timeout`` or ``crash``); burned retries make the point ``poison``.
    """
    last = str(history[-1]["status"])
    kind = last if last == "degraded" or max_retries == 0 else "poison"
    message = next(
        (str(entry["error"]) for entry in reversed(history) if entry.get("error")),
        f"{last} after {len(history)} attempt(s)",
    )
    return RunFailure(
        request_id=request.request_id,
        label=request.display_label(),
        scenario=request.scenario,
        mode=request.mode,
        kind=kind,
        attempts=len(history),
        message=message,
        detail=history,
    )


def sweep_id_for(requests: Sequence[RunRequest]) -> str:
    """Stable identity of one grid: the hash of its ordered request ids."""
    return _sha256(canonical_json([request.request_id for request in requests]))[:12]


def publish_grid(cache_root: Union[str, Path], requests: Sequence[RunRequest]) -> str:
    """Write the grid manifest workers resolve their work-list from.

    Publishing is atomic and idempotent; re-publishing a *different* grid
    simply replaces the manifest (workers snapshot it at startup, and points
    of an older grid are addressed by ``request_id``, so stale workers can
    only ever contribute valid cache entries).
    """
    sweep_id = sweep_id_for(requests)
    payload = {
        "schema": 1,
        "sweep_id": sweep_id,
        "requests": [request.as_dict() for request in requests],
    }
    atomic_write_text(manifest_path(cache_root), canonical_json(payload) + "\n")
    return sweep_id


def load_grid(cache_root: Union[str, Path]) -> Tuple[str, List[RunRequest]]:
    """Read the published manifest back into (sweep_id, requests)."""
    path = manifest_path(cache_root)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no fleet manifest at {path}; publish one with "
            "`repro sweep ... --fleet N --cache DIR` before joining workers"
        ) from None
    requests = [RunRequest.from_dict(entry) for entry in payload["requests"]]
    return str(payload["sweep_id"]), requests


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


@dataclass
class FleetWorkerStats:
    """What one worker did during a sweep (wall-clock included: these are
    operational diagnostics, never part of the deterministic result store)."""

    owner: str
    claimed: int = 0
    stolen: int = 0
    executed: int = 0
    deduped: int = 0
    released: int = 0
    lost: int = 0
    resumed: int = 0  # executions resumed from a durable snapshot
    retried: int = 0  # executions of points with a prior failed attempt
    quarantined: int = 0  # poison/degraded points this worker quarantined
    drained: int = 0  # leases released on a drain signal (SIGTERM/SIGINT)
    elapsed_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        """Executed grid points per second of worker wall-clock."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "owner": self.owner,
            "claimed": self.claimed,
            "stolen": self.stolen,
            "executed": self.executed,
            "deduped": self.deduped,
            "released": self.released,
            "lost": self.lost,
            "resumed": self.resumed,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "drained": self.drained,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FleetWorkerStats":
        return cls(
            owner=str(payload["owner"]),
            claimed=int(payload["claimed"]),
            stolen=int(payload["stolen"]),
            executed=int(payload["executed"]),
            deduped=int(payload["deduped"]),
            released=int(payload["released"]),
            lost=int(payload["lost"]),
            # Durability counters arrived after the first stats schema; reports
            # written by older workers simply lack them.
            resumed=int(payload.get("resumed", 0)),
            retried=int(payload.get("retried", 0)),
            quarantined=int(payload.get("quarantined", 0)),
            drained=int(payload.get("drained", 0)),
            elapsed_seconds=float(payload["elapsed_seconds"]),
        )


class _HeartbeatPump:
    """Daemon thread renewing every lease the board currently owns.

    Runs independently of the worker's main loop so a long engine run cannot
    starve its own lease into stealability; a SIGKILL stops the pump with
    the process, which is exactly what lets survivors steal.

    ``progress`` + ``stall_after`` make the pump *progress-aware*: when the
    supplied monotonic progress stamp has not advanced for ``stall_after``
    seconds, the pump stops renewing -- a worker that is alive but **stuck**
    (hung engine, chaos hang, deadlocked I/O) then looks exactly like a dead
    one, and survivors steal its lease.  Legitimate long runs keep beating
    because the engine loop stamps progress at every safe point.  A steal
    provoked by a merely-slow cycle stays benign: runs are deterministic,
    both executions publish byte-identical records.

    ``deadline`` makes the pump the worker's watchdog too: :meth:`watch`
    starts the clock on an attempt, and once it runs ``deadline`` seconds
    the pump calls ``on_deadline(*attempt)`` (which records the timeout and
    SIGKILLs the worker).  The pump then wakes every ``deadline / 10``
    seconds and still beats once per ``interval``.
    """

    def __init__(
        self,
        board: ClaimBoard,
        interval: float,
        progress: Optional[Callable[[], float]] = None,
        stall_after: Optional[float] = None,
        deadline: Optional[float] = None,
        on_deadline: Optional[Callable[..., None]] = None,
    ) -> None:
        self._board = board
        self._interval = interval
        self._progress = progress
        self._stall_after = stall_after
        self._deadline = deadline
        self._on_deadline = on_deadline
        # (monotonic expiry, attempt) of the watched attempt, if any.
        self._attempt: Optional[Tuple[float, Tuple[object, ...]]] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    @contextmanager
    def watch(self, *attempt: object) -> Iterator[None]:
        """Hold the attempt executing inside the block to the deadline."""
        if self._deadline is not None:
            self._attempt = (time.monotonic() + self._deadline, attempt)
        try:
            yield
        finally:
            self._attempt = None

    def _run(self) -> None:
        tick = self._interval
        if self._deadline is not None:
            tick = min(tick, self._deadline / 10.0)
        beat_every = max(1, round(self._interval / tick))
        ticks = 0
        while not self._stop.wait(tick):
            watched = self._attempt
            if watched is not None and time.monotonic() >= watched[0]:
                assert self._on_deadline is not None
                self._on_deadline(*watched[1])
            ticks += 1
            if ticks % beat_every:
                continue
            if (
                self._progress is not None
                and self._stall_after is not None
                and time.monotonic() - self._progress() > self._stall_after
            ):
                continue  # stuck: let the lease age into stealability
            for request_id in list(self._board.owned):
                if request_id not in self._board.owned:
                    continue  # released while we iterated
                try:
                    self._board.heartbeat(request_id)
                except OSError:
                    pass  # transient shared-fs hiccup; retry next beat

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _rotation(owner: str, count: int) -> int:
    """Deterministic per-owner scan offset so workers start on different
    points instead of stampeding the same lease."""
    if count == 0:
        return 0
    return int(_sha256(owner)[:8], 16) % count


def _install_drain_handlers(drain: threading.Event) -> Optional[Dict[int, object]]:
    """Route SIGTERM/SIGINT into the drain event; ``None`` off the main thread.

    Signal handlers are a main-thread-only facility in CPython; a worker
    embedded in a test thread simply runs without them (its ``drain`` event
    can still be set programmatically).
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous: Dict[int, object] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(
            signum, lambda _signum, _frame: drain.set()
        )
    return previous


def _restore_handlers(previous: Optional[Dict[int, object]]) -> None:
    if previous is None:
        return
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except (TypeError, ValueError):  # pragma: no cover - exotic handler
            pass


def run_worker(
    cache_dir: Union[str, Path],
    owner: Optional[str] = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    heartbeat_interval: Optional[float] = None,
    kill_after: Optional[int] = None,
    requests: Optional[Sequence[RunRequest]] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    max_retries: int = 2,
    drain_on_signal: bool = False,
    drain: Optional[threading.Event] = None,
    deadline: Optional[float] = None,
) -> FleetWorkerStats:
    """Join the sweep published in ``cache_dir`` and work until it is done.

    The loop is: skip points already cached (counted as *deduped*), claim or
    steal a miss, re-check the cache (the claim may have raced a completion),
    execute, store through the atomic cache shards, release.  The worker
    exits when every grid point is cached or quarantined -- its own work
    plus everyone else's.

    Execution is durable (:func:`~repro.orchestration.durable.
    execute_request_durable`): with a ``checkpoint`` policy the worker
    snapshots under its lease into the sweep's shared snapshot directory, so
    a worker stealing this point after a crash **resumes from the victim's
    last snapshot** instead of cycle 0.  Every attempt lands in the sweep's
    attempt ledger (shared by all workers) with its outcome -- ``crash``,
    ``timeout`` or ``degraded`` -- and the committed cycle of its latest
    snapshot.  A point whose ledger already holds ``1 + max_retries``
    failed attempts is quarantined (:func:`_failure` picks the kind) rather
    than executed again; deterministic channel degradations are quarantined
    at once, with no retry burned.

    ``deadline`` bounds each attempt's wall-clock seconds: past it the
    heartbeat pump records a ``timeout``, releases the lease and SIGKILLs
    this process (so run it in a process of its own, as :func:`run_fleet`
    does); the fleet driver restarts the worker and the retry resumes from
    the latest snapshot.  Without a deadline a stuck attempt is instead
    stolen once its heartbeat stops; the steal re-runs the point and charges
    the stuck attempt nothing, since it may still finish.

    ``drain_on_signal`` turns SIGTERM/SIGINT into a *graceful drain*: the
    engine loop stops at the next safe point (persisting a final snapshot
    when checkpointing is on), the interrupted attempt is withdrawn from the
    ledger, every owned lease is released, the heartbeat pump is joined and
    the stats report is written -- nothing is left for survivors to steal or
    re-execute beyond the snapshot handoff.  ``drain`` exposes the same
    event programmatically.

    ``kill_after`` is the crash-tolerance test hook used by CI: after that
    many successful executions the worker SIGKILLs itself *while holding its
    next claim*, leaving exactly the dangling lease the steal path must
    recover.  ``None`` (the default) disables it.

    ``requests`` overrides the manifest (used by in-process tests); normal
    workers load the published grid.
    """
    _check_supervision(deadline, max_retries)
    start = time.perf_counter()
    if requests is None:
        sweep_id, request_list = load_grid(cache_dir)
    else:
        request_list = list(requests)
        sweep_id = sweep_id_for(request_list)
    cache = ResultCache(cache_dir)
    board = ClaimBoard(
        claims_dir(cache_dir), owner=owner, ttl=ttl, steal_jitter=0.25
    )
    if heartbeat_interval is None:
        heartbeat_interval = max(ttl / 4.0, 0.02)
    if drain is None:
        drain = threading.Event()
    previous_handlers = _install_drain_handlers(drain) if drain_on_signal else None
    snapshot_root = snapshots_dir(cache_dir)
    snapshot_root.mkdir(parents=True, exist_ok=True)
    monkey = (
        None
        if chaos is None
        else ChaosMonkey(chaos, state_dir=chaos_state_dir(cache_dir))
    )
    # The progress stamp feeds the stall-aware heartbeat pump: bumped by the
    # loop between points and by the engine at every safe point.  If it stops
    # moving the pump stops renewing and this worker's leases become
    # stealable -- a hung run must not be kept alive by its own heartbeat.
    progress_stamp = [time.monotonic()]

    def touch_progress(_committed: int = 0) -> None:
        progress_stamp[0] = time.monotonic()

    def time_out(request_id: str, entry: Path) -> None:
        _end_attempt(entry, "timeout", snapshot_root, request_id)
        board.release(request_id)
        _sigkill_self()

    # Under a deadline the deadline is the watchdog: a stuck attempt keeps
    # its lease until it times out, rather than being stolen and re-run
    # beside it.
    stall_after = None if deadline is not None else max(ttl, 4.0 * heartbeat_interval)
    pump = _HeartbeatPump(
        board,
        heartbeat_interval,
        progress=lambda: progress_stamp[0],
        stall_after=stall_after,
        deadline=deadline,
        on_deadline=time_out,
    )
    pump.start()
    pending: Dict[str, RunRequest] = {
        request.request_id: request for request in request_list
    }
    executed_ids: set = set()
    stats = FleetWorkerStats(owner=board.owner)

    def quarantine(request: RunRequest, history: List[Dict[str, object]]) -> None:
        write_quarantine(cache_dir, sweep_id, _failure(request, history, max_retries))
        stats.quarantined += 1
        pending.pop(request.request_id)

    try:
        while pending and not drain.is_set():
            progress = False
            order = list(pending)
            offset = _rotation(board.owner, len(order))
            for request_id in order[offset:] + order[:offset]:
                if drain.is_set():
                    break
                if request_id not in pending:
                    continue  # completed earlier in this same pass
                touch_progress()
                if quarantine_path(cache_dir, sweep_id, request_id).exists():
                    pending.pop(request_id)
                    progress = True
                    continue
                cache.refresh(request_id)
                if request_id in cache:
                    pending.pop(request_id)
                    stats.deduped += 1
                    progress = True
                    continue
                if board.try_acquire(request_id) is None:
                    continue
                if kill_after is not None and len(executed_ids) >= kill_after:
                    _sigkill_self()
                # The lease may have raced a completion (claimer finished
                # and published between our cache probe and our steal).
                cache.refresh(request_id)
                progress = True
                if request_id in cache:
                    board.release(request_id)
                    pending.pop(request_id)
                    stats.deduped += 1
                    continue
                request = pending[request_id]
                ledger = attempts_dir(cache_dir, sweep_id) / request_id
                history = _read_attempts(ledger)
                if len(history) > max_retries:
                    # Every allowed attempt ended without a record.
                    quarantine(request, history)
                    board.release(request_id)
                    continue
                entry = _begin_attempt(ledger, len(history), board.owner)
                if history:
                    stats.retried += 1
                events = DurableRunEvents()
                try:
                    with pump.watch(request_id, entry):
                        record = execute_request_durable(
                            request,
                            snapshot_root,
                            policy=checkpoint or CheckpointPolicy(),
                            heartbeat=touch_progress,
                            chaos=monkey,
                            drain=drain.is_set,
                            events=events,
                        )
                except AbortRun:
                    # Drain fired mid-run; the final snapshot (if
                    # checkpointing) is already on disk for a successor,
                    # and a drained attempt is not a failed one.
                    entry.unlink()
                    break
                except ChannelDegradedError as exc:
                    history.append({
                        "attempt": len(history),
                        **_end_attempt(
                            entry, "degraded", snapshot_root, request_id, str(exc)
                        ),
                    })
                    quarantine(request, history)
                    board.release(request_id)
                    continue
                except Exception as exc:
                    history.append({
                        "attempt": len(history),
                        **_end_attempt(
                            entry, "crash", snapshot_root, request_id,
                            f"{type(exc).__name__}: {exc}",
                        ),
                    })
                    if len(history) > max_retries:
                        quarantine(request, history)
                    board.release(request_id)
                    continue
                if events.resumed_from_cycle is not None:
                    stats.resumed += 1
                cache.put(record)
                board.release(request_id)
                executed_ids.add(request_id)
                pending.pop(request_id)
            if pending and not progress and not drain.is_set():
                time.sleep(poll_interval)
    finally:
        # Graceful shutdown for drain, KeyboardInterrupt and plain
        # completion alike: nothing may stay claimed, and the pump thread
        # must be joined before the process exits.
        for request_id in list(board.owned):
            board.release(request_id)
            if drain.is_set():
                stats.drained += 1
        pump.stop()
        _restore_handlers(previous_handlers)
    stats.claimed = board.stats.claimed
    stats.stolen = board.stats.stolen
    stats.executed = len(executed_ids)
    stats.released = board.stats.released
    stats.lost = board.stats.lost
    stats.elapsed_seconds = time.perf_counter() - start
    _write_worker_stats(cache_dir, sweep_id, stats)
    return stats


def _check_supervision(deadline: Optional[float], max_retries: int) -> None:
    if deadline is not None and deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")


def _sigkill_self() -> None:  # pragma: no cover - the point is not to return
    os.kill(os.getpid(), signal.SIGKILL)


def _write_worker_stats(
    cache_dir: Union[str, Path], sweep_id: str, stats: FleetWorkerStats
) -> None:
    atomic_write_text(
        stats_dir(cache_dir, sweep_id) / f"{stats.owner}.json",
        json.dumps(stats.as_dict(), sort_keys=True) + "\n",
    )


def load_worker_stats(
    cache_dir: Union[str, Path], sweep_id: str
) -> List[FleetWorkerStats]:
    """Every surviving worker's stats report for one sweep, by owner name.

    A SIGKILLed worker never writes its report; its contribution is visible
    only through the survivors' ``stolen`` counts, which is precisely the
    signal the crash-tolerance smoke asserts on.
    """
    directory = stats_dir(cache_dir, sweep_id)
    reports = []
    if directory.is_dir():
        for path in sorted(directory.glob("*.json")):
            try:
                reports.append(FleetWorkerStats.from_dict(json.loads(path.read_text())))
            except (ValueError, KeyError, TypeError):
                continue  # torn stats file from a crash mid-report
    return reports


def _worker_entry(
    cache_dir: str,
    owner: Optional[str],
    ttl: float,
    poll_interval: float,
    kill_after: Optional[int],
    checkpoint: Optional[Tuple[Optional[int], Optional[float]]] = None,
    chaos_payload: Optional[Dict[str, object]] = None,
    max_retries: int = 2,
    drain_on_signal: bool = True,
    deadline: Optional[float] = None,
) -> None:
    """Module-level process target (must stay picklable for spawn contexts)."""
    policy = None
    if checkpoint is not None:
        policy = CheckpointPolicy(
            every_cycles=checkpoint[0], every_seconds=checkpoint[1]
        )
    chaos = None if chaos_payload is None else ChaosConfig.from_dict(chaos_payload)
    run_worker(
        cache_dir,
        owner=owner,
        ttl=ttl,
        poll_interval=poll_interval,
        kill_after=kill_after,
        checkpoint=policy,
        chaos=chaos,
        max_retries=max_retries,
        drain_on_signal=drain_on_signal,
        deadline=deadline,
    )


# ---------------------------------------------------------------------------
# Fleet driver: local spawn, supervision, reconciliation.
# ---------------------------------------------------------------------------


@dataclass
class FleetStats:
    """Summary of one fleet sweep: per-worker reports plus driver-side
    supervision and reconciliation counters."""

    sweep_id: str
    grid_points: int
    workers: List[FleetWorkerStats] = field(default_factory=list)
    restarts: int = 0
    reconcile_passes: int = 0
    reused_records: int = 0  # intact records recovered from a prior store
    executed_locally: int = 0  # reconciliation fallback executions
    torn_records: int = 0  # damaged store lines seen while reconciling
    reaped_leases: int = 0  # dangling leases of already-completed points
    quarantined: int = 0  # points in the sweep's quarantine report

    def total(self, field_name: str) -> int:
        return sum(getattr(worker, field_name) for worker in self.workers)

    def summary(self) -> str:
        text = (
            f"fleet {self.sweep_id}: {self.grid_points} point(s), "
            f"{len(self.workers)} worker report(s), "
            f"{self.total('executed')} executed, "
            f"{self.total('deduped')} deduped, "
            f"{self.total('claimed')} claimed, "
            f"{self.total('stolen')} stolen, "
            f"{self.restarts} restart(s), "
            f"{self.reconcile_passes} reconciliation pass(es)"
        )
        if self.reused_records:
            text += f", {self.reused_records} reused from store"
        if self.executed_locally:
            text += f", {self.executed_locally} executed locally"
        if self.torn_records:
            text += f", {self.torn_records} torn record(s) dropped"
        if self.reaped_leases:
            text += f", {self.reaped_leases} dangling lease(s) reaped"
        if self.quarantined:
            text += f", {self.quarantined} point(s) quarantined"
        return text


def reconcile(
    requests: Sequence[RunRequest],
    cache: Optional[ResultCache],
    store: Optional[RunStore] = None,
    stats: Optional[FleetStats] = None,
    runner: Optional[BatchRunner] = None,
    max_passes: int = 3,
    plan: Optional[ResumePlan] = None,
) -> List[RunRecord]:
    """Converge store + cache to exactly this grid, in grid order.

    Reuses :func:`plan_resume` against the (possibly absent, partial or
    torn) store, serves the missing points from the cache -- executing any
    true stragglers with ``runner`` (default: in-process), which makes
    reconciliation total even after a whole-fleet crash -- and rewrites the
    store atomically.  The result is byte-identical to an uninterrupted
    ``--jobs 1`` sweep of the same grid, whatever the interleaving of worker
    crashes that preceded it.  ``repro sweep --resume`` is this function
    with the sweep's own runner and (optional) cache.  ``plan`` is the
    store's plan for ``requests`` when the caller already made one, so the
    store is not scanned twice.
    """
    if runner is None:
        runner = BatchRunner(jobs=1)

    def execute(missing: List[RunRequest]) -> List[RunRecord]:
        if cache is None:
            return runner.run(missing)
        before = cache.stats.snapshot()
        cache.refresh()
        executed = runner.run(missing, cache=cache)
        if stats is not None:
            stats.executed_locally += cache.stats.since(before).misses
        return executed

    if store is None:
        if stats is not None:
            stats.reconcile_passes += 1
        return execute(list(requests))

    records: List[RunRecord] = []
    for _ in range(max_passes):
        if plan is None:
            plan = plan_resume(requests, store)
        if stats is not None:
            stats.reconcile_passes += 1
            stats.torn_records += plan.skipped
            stats.reused_records = len(plan.reusable)
        by_id = dict(plan.reusable)
        for record in execute(plan.missing):
            by_id[record.request_id] = record
        records = [by_id[request.request_id] for request in requests]
        store.write(records)
        plan = plan_resume(requests, store)  # verify; next pass's plan
        if not plan.missing and not plan.skipped and not plan.extra:
            break
    return records


def run_fleet(
    requests: Sequence[RunRequest],
    cache_dir: Union[str, Path],
    workers: int = 2,
    store: Optional[RunStore] = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    kill_after: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    max_retries: int = 2,
    deadline: Optional[float] = None,
) -> Tuple[List[RunRecord], FleetStats]:
    """Publish the grid, drive ``workers`` local workers, reconcile.

    This is the one supervised executor: ``deadline`` (seconds per attempt),
    ``max_retries``, ``checkpoint`` and ``chaos`` are handed to every worker
    (see :func:`run_worker`).  Intact records of an existing ``store`` seed
    the cache first, so the workers execute only what the store lacks.

    ``workers=0`` spawns nothing: it publishes (or re-publishes) the
    manifest and reconciles whatever external workers have cached so far,
    executing any remainder in-process -- the "finalize now" mode for
    multi-host sweeps whose workers joined via ``repro worker``.

    Crashed workers (non-zero exit: a SIGKILL, a chaos kill, a blown
    deadline) are restarted.  Every such death is charged to one point's
    attempt ledger, so the restart budget is ``len(requests) * (max_retries
    + 1)``.  Before a restart the driver closes the dead worker's open
    attempts as crashes (:func:`_close_dead_attempts`) and respawns it under
    the same owner name, so the replacement takes the dead worker's leases
    back at once instead of after a TTL.  Each call starts every point with
    a fresh retry budget: the sweep's ledger and quarantine from an earlier
    call over the same directory are cleared (except with ``workers=0``,
    which only finalizes what external workers did).  ``kill_after`` arms
    the crash hook on the *first* worker only -- see :func:`run_worker`.

    Points quarantined by the workers (timeout, crash, poison or
    deterministically degraded) are excluded from the returned records and
    from the store; read their failure records with :func:`load_quarantine`
    (``stats.quarantined`` carries the count).  Workers are spawned with
    ``drain_on_signal`` enabled, so the driver's terminate-on-teardown is a
    graceful drain, not a kill.
    """
    _check_supervision(deadline, max_retries)
    request_list = list(requests)
    sweep_id = publish_grid(cache_dir, request_list)
    if workers > 0:
        for directory in (
            attempts_dir(cache_dir, sweep_id), quarantine_dir(cache_dir, sweep_id)
        ):
            shutil.rmtree(directory, ignore_errors=True)
    stats = FleetStats(sweep_id=sweep_id, grid_points=len(request_list))
    max_restarts = len(request_list) * (max_retries + 1)
    cache = ResultCache(cache_dir)
    plan = None if store is None else plan_resume(request_list, store)
    if plan is not None:
        cache.put_many(plan.reusable.values())
    wanted = [request.request_id for request in request_list]
    checkpoint_spec = (
        None
        if checkpoint is None
        else (checkpoint.every_cycles, checkpoint.every_seconds)
    )
    chaos_payload = None if chaos is None else chaos.as_dict()

    def quarantined_ids() -> set:
        directory = quarantine_dir(cache_dir, sweep_id)
        if not directory.is_dir():
            return set()
        return {path.stem for path in directory.glob("*.json")}

    def spawn(index: int, owner: str, hook: Optional[int]) -> multiprocessing.Process:
        process = multiprocessing.Process(
            target=_worker_entry,
            args=(
                str(cache_dir),
                owner,
                ttl,
                poll_interval,
                hook,
                checkpoint_spec,
                chaos_payload,
                max_retries,
                True,
                deadline,
            ),
            name=f"fleet-worker-{index}",
            daemon=True,
        )
        process.start()
        return process

    owners = [f"{default_owner()}-w{index}" for index in range(workers)]
    processes = [spawn(index, owner, kill_after if index == 0 else None)
                 for index, owner in enumerate(owners)]
    try:
        if processes:
            while True:
                cache.refresh()
                done = quarantined_ids()
                if all(
                    request_id in cache or request_id in done
                    for request_id in wanted
                ):
                    break
                alive = 0
                for index, process in enumerate(processes):
                    if process.is_alive():
                        alive += 1
                        continue
                    if process.exitcode not in (0, None) and stats.restarts < max_restarts:
                        _close_dead_attempts(cache_dir, sweep_id, owners[index])
                        stats.restarts += 1
                        if log is not None:
                            log(
                                f"worker {process.name} exited with "
                                f"{process.exitcode}; restart "
                                f"{stats.restarts}/{max_restarts}"
                            )
                        processes[index] = spawn(
                            workers + stats.restarts, owners[index], None
                        )
                        alive += 1
                if alive == 0:
                    # Whole fleet gone and restart budget spent: fall through,
                    # reconciliation executes the remainder in-process.
                    break
                time.sleep(poll_interval)
            for process in processes:
                process.join(timeout=max(10.0, 4 * ttl))
    finally:
        for process in processes:
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()  # workers drain: release leases, snapshot
                process.join(timeout=max(10.0, 4 * ttl))
            if process.is_alive():  # pragma: no cover - drain itself wedged
                process.kill()
                process.join(timeout=5.0)

    quarantined = quarantined_ids()
    stats.quarantined = len(quarantined)
    healthy = [
        request for request in request_list
        if request.request_id not in quarantined
    ]
    if plan is not None:
        # The store is unchanged since seeding; only the grid shrank.
        plan.missing = [r for r in plan.missing if r.request_id not in quarantined]
    records = reconcile(healthy, cache, store=store, stats=stats, plan=plan)
    board = ClaimBoard(claims_dir(cache_dir), owner="reconciler", ttl=ttl)
    cache.refresh()
    stats.reaped_leases = board.sweep_completed(
        lambda rid: rid in cache or rid in quarantined
    )
    stats.workers = load_worker_stats(cache_dir, sweep_id)
    return records, stats
