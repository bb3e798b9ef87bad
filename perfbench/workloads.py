"""The benchmark's workloads and its correctness gate.

Importing this module imports nothing from ``repro``: the set-up probe times
the first ``repro`` import itself, so every ``repro`` import here happens
inside a function.  Workloads select engines by ``mode`` only and never pin
``engine=``, so an engine consolidation is measured through the same
requests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple


def derived_seed(seed: int, *labels: Any) -> int:
    """A stable 31-bit seed for one input of the workload."""
    text = json.dumps([seed, *[str(label) for label in labels]])
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16) >> 1


@dataclass(frozen=True)
class InProcessPoint:
    """One request of an in-process workload, before seeding."""

    scenario: str
    mode: str
    cycles: int
    params: Mapping[str, Any]
    accuracy: Optional[float] = None
    lob_depth: int = 64


@dataclass(frozen=True)
class Workload:
    """A named workload (why each exists: ``perfbench/README.md``).

    ``points(tiny)`` lists the in-process requests; a workload without
    points is the catalog sweep, driven through ``repro.cli.main``.
    """

    name: str
    points: Optional[Callable[[bool], List[InProcessPoint]]] = None

    @property
    def is_sweep(self) -> bool:
        return self.points is None

    def requests(self, seed: int, tiny: bool = False) -> list:
        """The seeded :class:`~repro.orchestration.RunRequest` list."""
        from repro.orchestration import RunRequest

        requests = []
        for index, point in enumerate(self.points(tiny)):
            requests.append(
                RunRequest(
                    scenario=point.scenario,
                    mode=point.mode,
                    cycles=point.cycles,
                    lob_depth=point.lob_depth,
                    accuracy=point.accuracy,
                    # Moves where forced mispredictions fall.
                    seed=derived_seed(seed, index),
                    scenario_params=dict(point.params),
                )
            )
        return requests


def _rollback_heavy(tiny: bool) -> List[InProcessPoint]:
    # Each point runs 5,000 cycles as five 1,000-cycle requests, each with its
    # own forced-accuracy seed: where mispredictions fall then averages over
    # five draws, which halves how much the work itself differs between
    # seeds (measured on 10 seeds: wasted leader cycles spread 1.8% instead
    # of 2.9% with one 5,000-cycle request).
    cycles, bursts, repeats = (240, 24, 1) if tiny else (1000, 400, 5)
    points = [
        InProcessPoint("als_streaming", "als", cycles, {"n_bursts": bursts}, accuracy=0.8),
        InProcessPoint("als_streaming", "als", cycles, {"n_bursts": bursts}, accuracy=0.9),
        InProcessPoint("sla_streaming", "sla", cycles, {"n_bursts": bursts}, accuracy=0.9),
    ]
    return [point for point in points for _ in range(repeats)]


def _lockstep_stream(tiny: bool) -> List[InProcessPoint]:
    cycles, bursts, samples = (240, 24, 8) if tiny else (10_000, 800, 160)
    return [
        InProcessPoint("als_streaming", "conservative", cycles, {"n_bursts": bursts}),
        InProcessPoint("sla_streaming", "conservative", cycles, {"n_bursts": bursts}),
        InProcessPoint(
            "sparse_telemetry", "conservative", cycles, {"n_samples": samples, "period": 24}
        ),
        InProcessPoint("multi_master_contention", "conservative", cycles, {}),
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("rollback_heavy", _rollback_heavy),
        Workload("lockstep_stream", _lockstep_stream),
        Workload("catalog_sweep"),
    )
}

#: The catalog sweep's grid axes (the CLI's default cycle count applies).
SWEEP_MODES = ("conservative", "als", "sla")
SWEEP_ACCURACIES = ("1.0", "0.9")
SWEEP_LOB_DEPTHS = ("8", "64")


def sweep_scenarios(tiny: bool = False) -> List[str]:
    from repro.workloads.catalog import scenario_names

    names = scenario_names()
    return names[:2] if tiny else names


def sweep_argv(
    seed: int,
    tiny: bool = False,
    jobs: int = 2,
    cache: Optional[str] = None,
    output: Optional[str] = None,
) -> List[str]:
    """``repro sweep`` arguments for the catalog grid."""
    argv = ["sweep", "--scenarios", *sweep_scenarios(tiny)]
    argv += ["--modes", *SWEEP_MODES, "--accuracies", *SWEEP_ACCURACIES]
    argv += ["--lob-depths", *SWEEP_LOB_DEPTHS, "--jobs", str(jobs), "--seed", str(seed)]
    if tiny:
        argv += ["--cycles", "60"]
    if cache is not None:
        argv += ["--cache", cache]
    if output is not None:
        argv += ["--output", output]
    return argv


def sweep_point_count(tiny: bool = False) -> int:
    return (
        len(sweep_scenarios(tiny))
        * len(SWEEP_MODES)
        * len(SWEEP_ACCURACIES)
        * len(SWEEP_LOB_DEPTHS)
    )


# -- correctness gate ----------------------------------------------------------
#
# A request fails when it raises (or ``main`` returns non-zero), commits fewer
# cycles than requested, reports a monitor violation, or commits a beat
# stream different from the conservative run of the same scenario and sizing
# (the conservative<->optimistic functional-equivalence axis).

ReferenceKey = Tuple[str, str, int]


def reference_key(scenario: str, params: Mapping[str, Any], cycles: int) -> ReferenceKey:
    return scenario, json.dumps(dict(params), sort_keys=True), cycles


def conservative_references(requests: Sequence) -> Dict[ReferenceKey, Any]:
    """``reference key -> conservative request`` for every distinct sizing."""
    references: Dict[ReferenceKey, Any] = {}
    for request in requests:
        key = reference_key(request.scenario, request.scenario_params, request.cycles)
        references.setdefault(
            key, replace(request, mode="conservative", accuracy=None, label="")
        )
    return references


def gate_failures(record: Mapping[str, Any], expected_beats: Optional[str]) -> List[str]:
    """Why ``record`` (a ``RunRecord.as_dict()`` payload) fails; empty if it passes."""
    reasons = []
    if record["committed_cycles"] < record["cycles"]:
        reasons.append(f"committed {record['committed_cycles']} of {record['cycles']} cycles")
    if not record["monitors_ok"]:
        reasons.append("bus monitors reported violations")
    if expected_beats is None:
        reasons.append("no conservative reference")
    elif record["beat_digest"] != expected_beats:
        reasons.append(
            f"beat digest {record['beat_digest']} != conservative {expected_beats}"
        )
    return reasons


def sweep_expected_beats(records: Sequence[Mapping[str, Any]]) -> Dict[str, str]:
    """Each scenario's conservative beat digest, taken from the grid itself."""
    expected: Dict[str, str] = {}
    for record in records:
        if record["mode"] == "conservative":
            expected.setdefault(record["scenario"], record["beat_digest"])
    return expected


def modelled_totals(records: Sequence[Mapping[str, Any]]) -> Tuple[int, float, int]:
    """(committed cycles, modelled seconds, channel accesses) over ``records``."""
    cycles = sum(record["committed_cycles"] for record in records)
    seconds = sum(
        record["committed_cycles"] / record["performance"]
        for record in records
        if record["performance"] > 0
    )
    accesses = sum(record["channel"].get("accesses", 0) for record in records)
    return cycles, seconds, accesses
