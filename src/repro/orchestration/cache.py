"""Content-addressed result cache and sweep-resume reconciliation.

Every :class:`~repro.orchestration.request.RunRequest` has a stable
``request_id`` -- the SHA-256 of its canonical payload -- and every run is a
deterministic function of its request.  Together those two properties make
memoization trivially correct: a record found under a request's id *is* the
record the engines would produce, so re-running it is pure waste.

:class:`ResultCache` exploits this with a sharded on-disk index over the same
canonical JSONL encoding the run store uses:

* ``<root>/<request_id[:2]>.jsonl`` holds one canonical record line per
  cached request, appended in first-seen order;
* lookups go through an in-memory per-shard index, loaded lazily, so a sweep
  touching a few shards never reads the rest of the cache;
* every line is verified against the record's embedded digest on load --
  damaged or torn lines are dropped (and counted), never served;
* shard rewrites are atomic (temp file + rename) and re-merge the on-disk
  shard first while holding the cache's exclusive lock file
  (:data:`LOCK_NAME`, :func:`fcntl.flock`), so an interrupted writer can
  never tear a shard and concurrent writers sharing one cache directory --
  fleet workers, parallel sweeps -- never drop each other's entries.  A
  served entry is always a verified, complete record.

:func:`plan_resume` handles the complementary problem: an interrupted sweep
left a *partial* run store, and the re-run should execute only the missing
grid points.  It reconciles the store's surviving records against the request
grid by ``request_id`` and returns what to reuse and what to run.
"""

from __future__ import annotations

import fcntl
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .request import RunRecord, RunRequest
from .store import RunStore, atomic_write_text, canonical_line, parse_record_line

logger = logging.getLogger(__name__)

#: Hex characters of the request id used as the shard key.  Two characters
#: give 256 shards: small sweeps stay in a handful of files, huge caches
#: still keep individual shard files (and their in-memory indexes) small.
SHARD_CHARS = 2

#: Lock file serialising shard rewrites across processes.  One per cache
#: rather than one per shard: a cold sweep stores into ~130 shards at once,
#: and a lock file per shard would add a file creation to each rewrite.
LOCK_NAME = "cache.lock"


@dataclass
class CacheStats:
    """Counters accumulated by one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    quarantined: int = 0  # damaged lines moved to a shard's .corrupt sidecar

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.stores, self.invalid, self.quarantined
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta between this snapshot and an ``earlier`` one."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
            invalid=self.invalid - earlier.invalid,
            quarantined=self.quarantined - earlier.quarantined,
        )

    def summary(self) -> str:
        text = f"{self.hits} hit(s), {self.misses} miss(es), {self.stores} store(s)"
        if self.invalid:
            text += f", {self.invalid} invalid line(s) dropped"
        if self.quarantined:
            text += f", {self.quarantined} damaged line(s) quarantined"
        return text


class ResultCache:
    """Content-addressed store of run records, keyed by ``request_id``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        # shard key -> {request_id -> record}, insertion-ordered to keep
        # shard rewrites append-only in first-seen order.
        self._shards: Dict[str, Dict[str, RunRecord]] = {}

    # -- addressing ---------------------------------------------------------

    @staticmethod
    def _request_id(key: Union[RunRequest, RunRecord, str]) -> str:
        if isinstance(key, (RunRequest, RunRecord)):
            return key.request_id
        return key

    def shard_path(self, request_id: str) -> Path:
        return self.root / f"{request_id[:SHARD_CHARS]}.jsonl"

    # -- shard I/O ----------------------------------------------------------

    def _load_shard(self, shard_key: str) -> Dict[str, RunRecord]:
        """Read one shard, serving only verified records.

        Reads in binary so damaged lines are located by **byte offset** (the
        same tolerant-scan discipline :meth:`RunStore.scan` uses): a torn
        tail from a crashed writer, a corrupted span from a bad disk, or a
        record filed under the wrong shard is counted, logged with its
        offset, appended verbatim to the shard's ``.corrupt`` sidecar for
        post-mortems, and the shard is rewritten clean -- so the damage is
        quarantined exactly once instead of being re-skipped (and
        re-counted) on every load.
        """
        try:
            return self._shards[shard_key]
        except KeyError:
            pass
        index: Dict[str, RunRecord] = {}
        path = self.root / f"{shard_key}.jsonl"
        damaged: List[tuple] = []  # (offset, raw bytes, reason)
        if path.exists():
            offset = 0
            with path.open("rb") as handle:
                for raw in handle:
                    line_offset = offset
                    offset += len(raw)
                    stripped = raw.strip()
                    if not stripped:
                        continue
                    try:
                        record = parse_record_line(stripped.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError) as exc:
                        self.stats.invalid += 1
                        damaged.append((line_offset, raw, str(exc)))
                        continue
                    if record.request_id[:SHARD_CHARS] != shard_key:
                        self.stats.invalid += 1
                        damaged.append(
                            (line_offset, raw, "record filed under wrong shard")
                        )
                        continue
                    index[record.request_id] = record
        if damaged:
            self._quarantine_damage(path, index, damaged)
        self._shards[shard_key] = index
        return index

    def _quarantine_damage(
        self,
        path: Path,
        index: Dict[str, RunRecord],
        damaged: List[tuple],
    ) -> None:
        """Move damaged shard lines into ``<shard>.jsonl.corrupt``.

        The sidecar gets the raw bytes (appended, so repeated incidents
        accumulate); the shard is rewritten with only the verified records.
        Best-effort: if either write fails the shard is left as-is and the
        damage simply stays skip-on-read.
        """
        logger.warning(
            "cache: %d damaged line(s) in %s at byte offset(s) %s; "
            "quarantining to %s",
            len(damaged),
            path,
            ", ".join(str(entry[0]) for entry in damaged),
            path.name + ".corrupt",
        )
        try:
            with path.with_name(path.name + ".corrupt").open("ab") as sidecar:
                for _offset, raw, _reason in damaged:
                    sidecar.write(raw if raw.endswith(b"\n") else raw + b"\n")
            atomic_write_text(
                path,
                "".join(canonical_line(record) + "\n" for record in index.values()),
            )
        except OSError as exc:  # pragma: no cover - depends on fs failures
            logger.warning("cache: could not quarantine damage in %s: %s", path, exc)
            return
        self.stats.quarantined += len(damaged)

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the cache's exclusive cross-process lock for shard rewrites."""
        self.root.mkdir(parents=True, exist_ok=True)
        with (self.root / LOCK_NAME).open("a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield  # closing the handle releases the lock

    def _write_shard(self, shard_key: str, index: Dict[str, RunRecord]) -> None:
        path = self.root / f"{shard_key}.jsonl"
        atomic_write_text(
            path, "".join(canonical_line(record) + "\n" for record in index.values())
        )

    # -- the cache API ------------------------------------------------------

    def get(self, key: Union[RunRequest, str]) -> Optional[RunRecord]:
        """The cached record for a request (or raw id), or ``None``."""
        request_id = self._request_id(key)
        record = self._load_shard(request_id[:SHARD_CHARS]).get(request_id)
        if record is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return record

    def __contains__(self, key: Union[RunRequest, str]) -> bool:
        request_id = self._request_id(key)
        return request_id in self._load_shard(request_id[:SHARD_CHARS])

    def refresh(self, key: Union[RunRequest, RunRecord, str, None] = None) -> None:
        """Drop the in-memory shard index so the next lookup rereads disk.

        With ``key`` only that request's shard is dropped; without, all of
        them.  Fleet workers poll a cache that *other processes* are writing
        to, so they must invalidate before probing -- a plain single-process
        sweep never needs this.
        """
        if key is None:
            self._shards.clear()
        else:
            self._shards.pop(self._request_id(key)[:SHARD_CHARS], None)

    def put(self, record: RunRecord) -> int:
        return self.put_many([record])

    def put_many(self, records: Iterable[RunRecord]) -> int:
        """Insert records not yet cached; returns how many were new.

        Records are grouped by shard so each touched shard is rewritten
        exactly once (atomically).  Existing entries win: a record already
        cached under its id is never overwritten, which keeps a warm cache's
        bytes stable under repeated identical sweeps.

        Each touched shard is re-read from disk and rewritten while holding
        the cache's lock file, so entries stored by another process since
        this instance's last read are merged rather than clobbered.
        """
        by_shard: Dict[str, List[RunRecord]] = {}
        for record in records:
            by_shard.setdefault(record.request_id[:SHARD_CHARS], []).append(record)
        if not by_shard:
            return 0
        stored = 0
        with self._locked():
            for shard_key, shard_records in by_shard.items():
                self._shards.pop(shard_key, None)  # re-merge with on-disk state
                index = self._load_shard(shard_key)
                fresh = []
                for record in shard_records:
                    if record.request_id not in index:
                        index[record.request_id] = record
                        fresh.append(record)
                if not fresh:
                    continue
                self._write_shard(shard_key, index)
                stored += len(fresh)
        self.stats.stores += stored
        return stored

    def __iter__(self) -> Iterator[RunRecord]:
        for path in sorted(self.root.glob(f"{'[0-9a-f]' * SHARD_CHARS}.jsonl")):
            yield from self._load_shard(path.stem).values()

    def __len__(self) -> int:
        return sum(1 for _ in self)


# ---------------------------------------------------------------------------
# Resume reconciliation.
# ---------------------------------------------------------------------------


@dataclass
class ResumePlan:
    """What a partial store already covers of a request grid.

    Attributes:
        reusable: grid records recovered from the store, by ``request_id``.
        missing: grid requests with no surviving record -- the work left.
        extra: intact store records that are not part of this grid.  A
            resumed sweep rewrites the store to *exactly* the grid (that is
            what makes the result byte-identical to an uninterrupted run),
            so these records are dropped from the store -- resume with the
            grid that produced them, or attach a ``--cache``, to keep them.
        skipped: damaged store lines dropped by the tolerant reader.
        torn_offsets: byte offset of each damaged line, in file order.  A
            missing grid point *plus* a torn line means the store's writer
            likely crashed mid-write; a missing point in a clean store means
            it simply never ran.  Fleet reconciliation reports the
            distinction (``FleetStats.torn_records``).
    """

    reusable: Dict[str, RunRecord] = field(default_factory=dict)
    missing: List[RunRequest] = field(default_factory=list)
    extra: int = 0
    skipped: int = 0
    torn_offsets: List[int] = field(default_factory=list)

    def summary(self) -> str:
        text = f"{len(self.reusable)} reusable, {len(self.missing)} to execute"
        if self.extra:
            text += (
                f", {self.extra} record(s) outside this grid"
                " (dropped when the store is rewritten)"
            )
        if self.skipped:
            text += f", {self.skipped} damaged line(s) dropped"
        return text


def plan_resume(requests: Sequence[RunRequest], store: RunStore) -> ResumePlan:
    """Reconcile a (possibly partial, possibly damaged) store against a grid.

    Matching is purely by ``request_id``, so it is insensitive to the order
    the interrupted sweep completed its points in and to any unrelated
    records sharing the store.
    """
    scan = store.scan()
    by_id = {record.request_id: record for record in scan.records}
    plan = ResumePlan(
        skipped=scan.torn_records,
        torn_offsets=[line.offset for line in scan.torn],
    )
    wanted = set()
    for request in requests:
        request_id = request.request_id
        wanted.add(request_id)
        record = by_id.get(request_id)
        if record is None:
            plan.missing.append(request)
        else:
            plan.reusable[request_id] = record
    plan.extra = sum(1 for request_id in by_id if request_id not in wanted)
    return plan
