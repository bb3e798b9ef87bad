"""Class-level timing wrappers around the layers' public functions.

The traced run installs a wrapper on each target *before* any engine is
built.  The engines' hot loops bind bound methods on entry
(``run_cycle = leader.hbm.run_local_cycle``), and a bound method taken after
installation already points at the wrapper, so every call is seen.

Spans stay in memory as four parallel compact arrays (target, parent span,
start, end).  Self time -- a span's duration minus the part its traced
children cover -- is computed from them once the traced pass has ended, so
the ``.s`` figures of all layers add up to the traced wall time spent inside
targets instead of counting nested time twice.

A target that no longer exists (a module, class or function renamed or
folded away by a refactor) is reported as absent, never raised.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One traced public function.

    Attributes:
        metric: metric prefix, ``<layer>.<function>``.
        module: module that defines the function.
        qualname: ``Class.method`` or ``function`` inside ``module``.
        count_hits: also count calls that returned something other than
            ``None`` (the cache's hits).
    """

    metric: str
    module: str
    qualname: str
    count_hits: bool = False


#: Every traced function, one per per-layer metric prefix.
TARGETS: Tuple[Target, ...] = (
    Target("ahb.run_local_cycle", "repro.ahb.half_bus", "HalfBusModel.run_local_cycle"),
    Target("ahb.commit_phase", "repro.ahb.half_bus", "HalfBusModel.commit_phase"),
    Target("core.prediction.predict", "repro.core.prediction", "LaggerPredictor.predict"),
    Target("core.domain.store_checkpoint", "repro.core.domain", "DomainHost.store_checkpoint"),
    Target("core.domain.restore_checkpoint", "repro.core.domain", "DomainHost.restore_checkpoint"),
    Target(
        "core.run_conservative_cycle",
        "repro.core.coemulation",
        "CoEmulationEngineBase.run_conservative_cycle",
    ),
    Target("core.lob.flush", "repro.core.lob", "LeaderOutputBuffer.flush"),
    Target("core.create_engine", "repro.core.engine", "create_engine"),
    Target("channel.record_access", "repro.channel.stats", "ChannelStats.record_access"),
    Target("workloads.build_scenario", "repro.workloads.catalog", "build_scenario"),
    Target("orchestration.execute_request", "repro.orchestration.request", "execute_request"),
    Target("orchestration.batch_run", "repro.orchestration.runner", "BatchRunner.run"),
    Target("orchestration.cache_get", "repro.orchestration.cache", "ResultCache.get", True),
    Target("orchestration.cache_put", "repro.orchestration.cache", "ResultCache.put_many"),
    Target("orchestration.store_write", "repro.orchestration.store", "RunStore.write"),
    Target("cli.main", "repro.cli", "main"),
)


class Tracer:
    """Installs the wrappers, records spans, and reports calls and self time."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.absent: List[str] = []
        self.hits = [0] * len(targets)
        self._target = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        #: (owner, attribute, original value or None when the owner did not
        #: hold the attribute itself) for every patched slot.
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for index, target in enumerate(self.targets):
            owner, name, original = self._resolve(target)
            if owner is None:
                self.absent.append(target.metric)
                continue
            wrapper = self._wrap(index, original, target.count_hits)
            self._patch(owner, name, wrapper)
            if isinstance(owner, type):
                continue
            # A module-level function is also bound by name in every module
            # that imported it (``from .request import execute_request``);
            # those bindings are what callers look up, so they are patched too.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._patched):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    @staticmethod
    def _resolve(target: Target) -> Tuple[Optional[object], str, Optional[Callable]]:
        try:
            owner: object = importlib.import_module(target.module)
        except ImportError:
            return None, "", None
        *path, name = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, "", None
        original = getattr(owner, name, None)
        if not callable(original):
            return None, "", None
        return owner, name, original

    def _patch(self, owner: object, name: str, value: Callable) -> None:
        self._patched.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, value)

    def _wrap(self, index: int, fn: Callable, count_hits: bool) -> Callable:
        targets, parents, starts, ends = self._target, self._parent, self._start, self._end
        stack, hits, clock = self._stack, self.hits, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            targets.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count_hits and result is not None:
                hits[index] += 1
            return result

        return traced

    # -- reporting ---------------------------------------------------------------
    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``metric -> (calls, self seconds)`` for every target, absent ones 0."""
        calls = [0] * len(self.targets)
        self_s = [0.0] * len(self.targets)
        targets, parents, starts, ends = self._target, self._parent, self._start, self._end
        for span in range(len(starts)):
            index = targets[span]
            duration = ends[span] - starts[span]
            calls[index] += 1
            self_s[index] += duration
            parent = parents[span]
            if parent >= 0:
                self_s[targets[parent]] -= duration
        return {
            target.metric: (calls[index], self_s[index])
            for index, target in enumerate(self.targets)
        }

    def hit_count(self, metric: str) -> int:
        for index, target in enumerate(self.targets):
            if target.metric == metric:
                return self.hits[index]
        raise KeyError(metric)
