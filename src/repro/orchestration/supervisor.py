"""Failure taxonomy of supervised runs: records, exit codes, sidecar.

Supervised execution itself -- per-attempt deadlines, retries that resume
from the latest snapshot, poison-point quarantine -- is done by the fleet
workers (:mod:`repro.orchestration.fleet`).  This module holds what a
quarantined point leaves behind:

* a structured :class:`RunFailure` per quarantined request;
* a ``.failures`` sidecar next to the run store -- never the store itself,
  whose bytes stay identical to a fully healthy serial sweep;
* a machine-readable :func:`quarantine_report`;
* failure kinds mapped to **distinct process exit codes** so shell scripts
  and CI can branch on what went wrong without parsing output.

Failure taxonomy (and exit codes):

======== ==== =======================================================
kind     exit  meaning
======== ==== =======================================================
timeout   10  an attempt ran past its deadline and was killed
crash     11  an attempt's process died (signal) or raised on its own
poison    12  retries exhausted; the request is quarantined
degraded  13  the channel degraded deterministically (never retried:
              the same request always degrades the same way)
======== ==== =======================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from .request import canonical_json
from .store import atomic_write_text

#: Exit code of a run killed for blowing its deadline.
EXIT_TIMEOUT = 10
#: Exit code of a run whose process died on its own (signal / exception).
EXIT_CRASH = 11
#: Exit code of a request quarantined after exhausting its retries.
EXIT_POISON = 12
#: Exit code of a deterministic channel degradation (retrying cannot help).
EXIT_DEGRADED = 13

#: Failure kind -> process exit code.
EXIT_CODES: Dict[str, int] = {
    "timeout": EXIT_TIMEOUT,
    "crash": EXIT_CRASH,
    "poison": EXIT_POISON,
    "degraded": EXIT_DEGRADED,
}

#: Quarantine severity, most severe first: a poison point means the sweep is
#: incomplete even after retries, a degradation is an *expected* outcome of
#: the modelled channel.
_SEVERITY = ("poison", "crash", "timeout", "degraded")


@dataclass
class RunFailure:
    """One quarantined request: what was asked, what happened, how often.

    Deliberately wall-clock free (like :class:`RunRecord`): the same sweep
    under the same chaos schedule produces byte-identical failure sidecars.
    """

    request_id: str
    label: str
    scenario: str
    mode: str
    kind: str
    attempts: int
    message: str
    detail: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in EXIT_CODES:
            raise ValueError(f"unknown failure kind {self.kind!r}")

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.kind]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "label": self.label,
            "scenario": self.scenario,
            "mode": self.mode,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
            "detail": list(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunFailure":
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise ValueError(
                f"payload does not fit the failure schema: {exc}"
            ) from None


# --------------------------------------------------------------------------
# Quarantine sidecar: machine-readable failure reports next to the store.
# --------------------------------------------------------------------------

def failures_path(store_path: Union[str, Path]) -> Path:
    """The ``.failures`` sidecar for a run store.

    A *sidecar* rather than store content: the store's bytes must stay
    identical to a sweep where every point succeeded first try.
    """
    return Path(f"{store_path}.failures")


def write_failures(path: Union[str, Path], failures: Sequence[RunFailure]) -> None:
    """Persist failures as canonical JSONL (atomic; empty list removes it)."""
    target = Path(path)
    if not failures:
        try:
            target.unlink()
        except OSError:
            pass
        return
    lines = "".join(canonical_json(f.as_dict()) + "\n" for f in failures)
    atomic_write_text(target, lines)


def load_failures(path: Union[str, Path]) -> List[RunFailure]:
    """Read a ``.failures`` sidecar (missing file = no failures)."""
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    failures = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            failures.append(RunFailure.from_dict(json.loads(line)))
    return failures


def quarantine_report(failures: Sequence[RunFailure]) -> Dict[str, Any]:
    """Machine-readable summary of a sweep's quarantine."""
    by_kind: Dict[str, int] = {}
    for failure in failures:
        by_kind[failure.kind] = by_kind.get(failure.kind, 0) + 1
    return {
        "total": len(failures),
        "by_kind": dict(sorted(by_kind.items())),
        "failures": [f.as_dict() for f in failures],
    }


def sweep_exit_code(failures: Sequence[RunFailure]) -> int:
    """The exit code a sweep should report: 0, or the most severe kind's."""
    kinds = {f.kind for f in failures}
    for kind in _SEVERITY:
        if kind in kinds:
            return EXIT_CODES[kind]
    return 0
