"""Durable whole-engine snapshots: kill-resume with bit-identical results.

The optimistic scheme's :class:`~repro.sim.checkpoint.CheckpointManager`
state lives only in process memory: a SIGKILLed worker re-executes every run
from cycle 0 and a preempted long run loses all progress.  This module makes
any engine's *complete* mid-run state durable:

* every engine is pure Python and every modelled quantity lives in the
  engine's object graph (kernel clocks, component stores, LOB, ledgers,
  channel/fault RNG streams, trace/batch caches), so pickling the engine at a
  *safe point* captures the run exactly;
* a **safe point** is the top of an engine's run-loop iteration: no
  transition in flight, no outstanding rollback checkpoint on any host, the
  committed prefix fully charged.  Engines expose safe points through the
  ``run_hook`` attribute (see
  :class:`~repro.core.coemulation.CoEmulationEngineBase`);
* a snapshot file is *atomic* (temp file + fsync + rename), *versioned* and
  *digest-verified* (magic + JSON header + SHA-256 of the pickled payload),
  so a crash mid-write leaves the previous snapshot intact and a corrupt
  file is detected on load, never silently resumed;
* resuming is just ``engine = load_engine(path); engine.run()`` -- the run
  loops are written as ``while committed < total``, so a restored engine
  finishes the remaining cycles and the completed run is **bit-identical**
  to an uninterrupted one (the snapshot property suite proves full-digest
  equality, per-cycle float reprs included).

Nothing here knows about requests or orchestration;
:mod:`repro.orchestration.durable` layers scheduling (every K cycles / N
seconds), chaos injection and snapshot lifecycle management on top.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Optional, Tuple, Union

#: First bytes of every snapshot file; also the format's ASCII fingerprint.
SNAPSHOT_MAGIC = b"#repro-snapshot\n"

#: Bumped when the container format (not the pickled payload) changes.
SNAPSHOT_VERSION = 1


class SnapshotError(RuntimeError):
    """A snapshot file is missing, corrupt, or from an incompatible writer."""


class AbortRun(Exception):
    """Control-flow exception a ``run_hook`` raises to stop at a safe point.

    The engine's run loop does not catch it, so ``engine.run()`` unwinds with
    the engine parked exactly at the safe point -- ready to be snapshotted
    and resumed later.  Used by graceful drain (a fleet worker asked to stop
    persists its progress and releases its leases instead of abandoning
    them).
    """

    def __init__(self, reason: str = "run aborted at a safe point") -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class SnapshotMeta:
    """The header of one snapshot file (everything but the pickled engine).

    Deliberately free of wall-clock fields: re-snapshotting the same engine
    state produces byte-identical files, so snapshots can be diffed and
    digested like any other deterministic artefact.
    """

    version: int
    engine: str  # engine class name, for diagnostics and sanity checks
    committed_cycles: int
    total_cycles: int
    payload_sha256: str
    payload_length: int
    request_id: Optional[str] = None

    def as_dict(self) -> dict:
        payload = {
            "version": self.version,
            "engine": self.engine,
            "committed_cycles": self.committed_cycles,
            "total_cycles": self.total_cycles,
            "payload_sha256": self.payload_sha256,
            "payload_length": self.payload_length,
        }
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SnapshotMeta":
        try:
            return cls(
                version=int(payload["version"]),
                engine=str(payload["engine"]),
                committed_cycles=int(payload["committed_cycles"]),
                total_cycles=int(payload["total_cycles"]),
                payload_sha256=str(payload["payload_sha256"]),
                payload_length=int(payload["payload_length"]),
                request_id=(
                    None
                    if payload.get("request_id") is None
                    else str(payload["request_id"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"snapshot header does not fit the schema: {exc}") from None


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Binary sibling of the store's atomic text writer (temp + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _assert_snapshot_safe(engine: Any) -> None:
    """Refuse to snapshot an engine that is not parked at a safe point.

    The run loops only invoke hooks between transitions, so an outstanding
    rollback checkpoint here means the caller is snapshotting from the wrong
    place (e.g. inside a transition); resuming such a state would not be
    bit-identical.
    """
    for host in getattr(engine, "_host_list", None) or ():
        checkpoints = getattr(host, "checkpoints", None)
        if checkpoints is not None and not checkpoints.snapshot_safe:
            raise SnapshotError(
                f"engine has an outstanding rollback checkpoint on domain "
                f"{host.domain!r}; snapshots are only valid at run-loop safe points"
            )


def snapshot_bytes(engine: Any) -> bytes:
    """Pickle ``engine`` with its (non-picklable, host-local) hook stripped."""
    _assert_snapshot_safe(engine)
    hook = getattr(engine, "run_hook", None)
    if hook is not None:
        engine.run_hook = None
    try:
        return pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        if hook is not None:
            engine.run_hook = hook


def write_snapshot(
    path: Union[str, Path],
    engine: Any,
    request_id: Optional[str] = None,
) -> SnapshotMeta:
    """Atomically write a durable snapshot of ``engine`` to ``path``.

    The file is ``MAGIC + header-JSON line + pickled payload``; the header
    carries the payload's SHA-256 so a corrupt or truncated file is rejected
    on load.  A crash at any point leaves either the previous snapshot or
    the new one, never a torn file.
    """
    payload = snapshot_bytes(engine)
    meta = SnapshotMeta(
        version=SNAPSHOT_VERSION,
        engine=type(engine).__name__,
        committed_cycles=int(engine.ledger.committed_cycles),
        total_cycles=int(engine.config.total_cycles),
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        payload_length=len(payload),
        request_id=request_id,
    )
    header = json.dumps(meta.as_dict(), sort_keys=True, separators=(",", ":"))
    atomic_write_bytes(path, SNAPSHOT_MAGIC + header.encode("utf-8") + b"\n" + payload)
    return meta


def _read_header(handle: BinaryIO, path: Path) -> SnapshotMeta:
    """Parse and check the magic and header line; leaves ``handle`` at the payload."""
    if handle.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path} is not a snapshot file (bad magic)")
    line = handle.readline()
    if not line.endswith(b"\n"):
        raise SnapshotError(f"{path} is truncated (no header line)")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path} has a corrupt header: {exc}") from None
    meta = SnapshotMeta.from_dict(header)
    if meta.version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path} was written by snapshot format v{meta.version}; "
            f"this reader supports v{SNAPSHOT_VERSION}"
        )
    return meta


def _check_length(path: Path, meta: SnapshotMeta, payload_length: int) -> None:
    if payload_length != meta.payload_length:
        raise SnapshotError(
            f"{path} payload is {payload_length} byte(s), header promises "
            f"{meta.payload_length} (truncated or overwritten)"
        )


def read_snapshot_meta(path: Union[str, Path]) -> SnapshotMeta:
    """The verified header of one snapshot file, without loading the engine.

    Checks the magic, the format version and the payload length, so a torn
    or foreign file is rejected; the payload digest and the unpickle are
    left to :func:`read_snapshot`.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            meta = _read_header(handle, path)
            payload_length = os.fstat(handle.fileno()).st_size - handle.tell()
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {path}") from None
    _check_length(path, meta, payload_length)
    return meta


def read_snapshot(path: Union[str, Path]) -> Tuple[SnapshotMeta, Any]:
    """Load and verify one snapshot file; returns ``(meta, engine)``.

    Raises :class:`SnapshotError` on a missing file, bad magic, unsupported
    version, torn header, payload digest mismatch, or an unpicklable payload
    -- every failure mode a crashed or interfering writer could produce.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            meta = _read_header(handle, path)
            payload = handle.read()
    except FileNotFoundError:
        raise SnapshotError(f"no snapshot at {path}") from None
    _check_length(path, meta, len(payload))
    digest = hashlib.sha256(payload).hexdigest()
    if digest != meta.payload_sha256:
        raise SnapshotError(f"{path} fails its payload digest check")
    try:
        engine = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types on corrupt input
        raise SnapshotError(f"{path} payload does not unpickle: {exc}") from None
    return meta, engine


def load_engine(path: Union[str, Path]) -> Any:
    """The resumable engine stored at ``path`` (header verified, hook clear)."""
    _, engine = read_snapshot(path)
    try:
        engine.run_hook = None
    except (AttributeError, TypeError):
        # Not an engine at all (e.g. a foreign pickle smuggled into the
        # snapshot container); leave the type check to the caller.
        pass
    return engine
