"""Host time measured against a fixed reference computation.

On the reference container (2 vCPUs, Intel Xeon at 2.0 GHz, shared with
other tenants) the CPU runs up to 1.8x slower in spells lasting from a
fraction of a second to tens of seconds, and no steal time is reported.
Measured there over 25-second windows, the median time of a fixed loop
spread by 30% between windows; a spell covering a whole run moves any
statistic taken within that run.

So every timed sample is bracketed by a fixed pure-Python reference loop,
and its seconds are rescaled by ``NOMINAL_REFERENCE_S`` over the mean of the
two reference timings around it: a sample taken while the host runs 1.5x
slow has its time divided by 1.5.  Nothing in the program can change the
reference loop, so a change to the program moves the rescaled time exactly
as it moves the raw time.  On the reference container the rescaled medians
of engine requests spread by 2-5% where the raw medians spread by 5-14%.
Runs also report the raw figures, in ``# info``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, List, Tuple

#: Iterations of the reference loop (about 19 ms on the reference container).
REFERENCE_ITERATIONS = 500_000
#: The reference loop's time on the reference container when not slowed.
NOMINAL_REFERENCE_S = 0.019


def reference_seconds() -> float:
    """Time one run of the fixed reference loop."""
    start = time.perf_counter()
    total = 0
    for value in range(REFERENCE_ITERATIONS):
        total += value
    return time.perf_counter() - start


def _reference_helper(connection) -> None:
    """Helper process body: time the reference loop whenever asked."""
    while connection.recv():
        connection.send(reference_seconds())


#: The CPUs this process may run on, taken before any pinning.  A run
#: spreads its single-process samples over all of them in turn: on the
#: reference container the two vCPUs differ, and differ more for the program
#: than for the reference loop.  Measured alternately in one process, the
#: rescaled warm-cache rate was 10% lower on one vCPU than on the other, so a
#: run pinned to whichever vCPU looked quieter at its start landed in one of
#: two clusters 20% apart.
CPUS: List[int] = sorted(os.sched_getaffinity(0))


class Stopwatch:
    """Times calls, each bracketed by a reference-loop timing.

    ``cpus=1`` is for samples that run in this process only; :meth:`pin`
    moves the process, and so the samples and their reference timings, to
    one CPU.  ``cpus=2`` brackets samples whose work spreads over two
    processes (the sweep's pool): the reference loop then runs at once in
    this process and in a helper process, so both CPUs' speed enters the
    rescaling.  Close the stopwatch (or use it as a context manager) to undo
    the pinning and stop the helper.
    """

    def __init__(self, cpus: int = 1) -> None:
        self._helper = self._connection = None
        self._affinity = os.sched_getaffinity(0)
        if cpus == 2:
            # Fork, not spawn: a spawned child makes multiprocessing start a
            # resource-tracker process that is only reaped after this
            # process has exited.
            context = multiprocessing.get_context("fork")
            self._connection, child = context.Pipe()
            self._helper = context.Process(target=_reference_helper, args=(child,))
            self._helper.start()
            child.close()
        elif cpus != 1:
            raise ValueError("cpus must be 1 or 2")
        self._last_reference = self._reference()

    def pin(self, cpu: int) -> None:
        """Run this process, and so its samples and reference timings, on ``cpu``."""
        os.sched_setaffinity(0, {cpu})
        self._last_reference = self._reference()

    def _reference(self) -> float:
        if self._connection is None:
            return reference_seconds()
        self._connection.send(True)
        own = reference_seconds()
        return (own + self._connection.recv()) / 2

    def close(self) -> None:
        os.sched_setaffinity(0, self._affinity)
        if self._helper is not None:
            self._connection.send(False)
            self._helper.join(timeout=30)
            if self._helper.is_alive():
                self._helper.terminate()
                self._helper.join()
            self._connection.close()
            self._helper = self._connection = None

    def __enter__(self) -> "Stopwatch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def measure(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float, float]:
        """Call ``fn(*args)``; return ``(result, raw seconds, rescaled seconds)``.

        An exception from ``fn`` propagates after the closing reference
        timing, so the next sample is still bracketed.
        """
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - start
            reference = self._reference()
            mean_reference = (self._last_reference + reference) / 2
            self._last_reference = reference
        return result, raw, raw * NOMINAL_REFERENCE_S / mean_reference
