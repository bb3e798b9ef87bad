"""Parallel batch execution of run requests.

The engines are pure CPython and hold the GIL, so parallelism comes from
worker *processes*.  Every run is deterministic given its request (seeds are
baked in, records carry no wall-clock fields), which gives the runner its
core guarantee: ``BatchRunner(jobs=N).run(grid)`` returns exactly the same
records in exactly the same order as ``jobs=1``, for any ``N``.

The same determinism powers the memoization path: with a
:class:`~repro.orchestration.cache.ResultCache` attached, cache hits are
returned verbatim and only the misses fan out to workers -- and because a
cached record is byte-identical to a fresh one, the returned list (and any
store written from it) is byte-identical whether the cache was cold, warm,
or absent.

The runner is single-host by design; :mod:`~repro.orchestration.fleet`
layers multi-host and supervised execution on top of the same cache
(workers claim points by ``request_id`` via lease files and write through
the atomic shards), then funnels back through ``BatchRunner`` during
reconciliation -- which is why a fleet sweep's output is byte-identical to
``BatchRunner(jobs=1)``.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .cache import ResultCache
from .request import RunRecord, RunRequest, execute_request

ProgressCallback = Callable[[int, int, RunRecord], None]


def default_jobs() -> int:
    """A sensible worker count for the current machine."""
    return max(1, (os.cpu_count() or 2) - 1)


@dataclass
class BatchRunner:
    """Fan a list of :class:`RunRequest` across worker processes.

    Attributes:
        jobs: number of worker processes (platform-default start method,
            one request handed out at a time for the best load balance on
            heterogeneous grids); ``1`` runs in-process (no multiprocessing
            involved at all, which also keeps coverage and debuggers usable).
    """

    jobs: int = 1

    def run(
        self,
        requests: Iterable[RunRequest],
        progress: Optional[ProgressCallback] = None,
        cache: Optional[ResultCache] = None,
    ) -> List[RunRecord]:
        """Execute all requests, preserving input order in the result list.

        ``progress`` (if given) is called in the parent process as
        ``progress(done_count, total, record)`` after each record arrives;
        with ``jobs > 1`` records complete out of order but the returned
        list is always in request order.

        ``cache`` (if given) is probed for every request first: hits are
        returned without touching an engine, only misses are executed, and
        freshly executed records are written back.  Hit/miss/store counts
        accumulate on ``cache.stats``.
        """
        request_list = list(requests)
        total = len(request_list)
        if cache is None:
            return self._execute(request_list, progress, total, 0)

        hits: Dict[int, RunRecord] = {}
        misses: List[Tuple[int, RunRequest]] = []
        for index, request in enumerate(request_list):
            record = cache.get(request)
            if record is None:
                misses.append((index, request))
            else:
                hits[index] = record
        # Hits are "done" immediately; report them first so the done-count
        # is monotone regardless of worker completion order.
        if progress is not None:
            for done, index in enumerate(sorted(hits), start=1):
                progress(done, total, hits[index])
        executed = self._execute(
            [request for _, request in misses],
            progress,
            total,
            len(hits),
        )
        cache.put_many(executed)
        results: List[Optional[RunRecord]] = [None] * total
        for index, record in hits.items():
            results[index] = record
        for (index, _), record in zip(misses, executed):
            results[index] = record
        return [record for record in results if record is not None]

    def _execute(
        self,
        request_list: List[RunRequest],
        progress: Optional[ProgressCallback],
        total: int,
        done_offset: int,
    ) -> List[RunRecord]:
        """Run ``request_list`` serially or across a pool, in input order.

        ``total`` and ``done_offset`` only shape the progress callback: when
        the runner executes the miss-subset of a cached batch, progress still
        counts against the full batch.
        """
        count = len(request_list)
        if self.jobs <= 1 or count <= 1:
            records = []
            for index, request in enumerate(request_list):
                record = execute_request(request)
                records.append(record)
                if progress is not None:
                    progress(done_offset + index + 1, total, record)
            return records

        workers = min(self.jobs, count)
        with multiprocessing.Pool(processes=workers) as pool:
            if progress is None:
                return pool.map(execute_request, request_list, chunksize=1)
            results: List[Optional[RunRecord]] = [None] * count
            done = 0
            # imap preserves input order, so `record` pairs with its index.
            for index, record in enumerate(
                pool.imap(execute_request, request_list, chunksize=1)
            ):
                results[index] = record
                done += 1
                progress(done_offset + done, total, record)
            return [record for record in results if record is not None]
