"""Metrics helpers: speed-ups, relative errors and paper comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional


def speedup(optimized: float, baseline: float) -> float:
    """Performance ratio; infinite when the baseline is zero."""
    if baseline == 0:
        return math.inf
    return optimized / baseline


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference| (0 when both are zero)."""
    if reference == 0:
        return 0.0 if measured == 0 else math.inf
    return abs(measured - reference) / abs(reference)


def within_factor(measured: float, reference: float, factor: float) -> bool:
    """True when ``measured`` is within ``factor``x of ``reference`` either way."""
    if measured <= 0 or reference <= 0 or factor < 1.0:
        return False
    ratio = measured / reference
    return 1.0 / factor <= ratio <= factor


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class ComparisonRow:
    """One measured-vs-paper comparison entry."""

    name: str
    paper_value: float
    measured_value: float

    @property
    def error(self) -> float:
        return relative_error(self.measured_value, self.paper_value)

    @property
    def ratio(self) -> float:
        if self.paper_value == 0:
            return math.inf if self.measured_value else 1.0
        return self.measured_value / self.paper_value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "paper": self.paper_value,
            "measured": self.measured_value,
            "ratio": self.ratio,
            "relative_error": self.error,
        }


@dataclass
class PaperComparison:
    """A set of measured-vs-paper comparisons with summary statistics."""

    title: str
    rows: List[ComparisonRow]

    @classmethod
    def from_mappings(
        cls,
        title: str,
        paper: Mapping[str, float],
        measured: Mapping[str, float],
    ) -> "PaperComparison":
        rows = [
            ComparisonRow(name=key, paper_value=paper[key], measured_value=measured[key])
            for key in paper
            if key in measured
        ]
        return cls(title=title, rows=rows)

    def max_error(self) -> float:
        return max((row.error for row in self.rows), default=0.0)

    def mean_error(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.error for row in self.rows) / len(self.rows)

    def worst_row(self) -> Optional[ComparisonRow]:
        return max(self.rows, key=lambda row: row.error, default=None)

    def all_within(self, max_relative_error: float) -> bool:
        return all(row.error <= max_relative_error for row in self.rows)

    def as_dicts(self) -> List[dict]:
        return [row.as_dict() for row in self.rows]


def crossover_accuracy(
    accuracies: List[float], performances: List[float], threshold: float
) -> Optional[float]:
    """Find (by linear interpolation) the accuracy at which a descending
    performance curve crosses ``threshold``.

    The curve is assumed to be sampled at decreasing performance as accuracy
    decreases.  Returns None when the curve never crosses.
    """
    if len(accuracies) != len(performances):
        raise ValueError("accuracies and performances must have the same length")
    points = sorted(zip(accuracies, performances))
    below = None
    above = None
    for accuracy, perf in points:
        if perf < threshold:
            below = (accuracy, perf)
        elif above is None or accuracy < above[0]:
            above = (accuracy, perf)
    if below is None or above is None:
        return None
    (a0, p0), (a1, p1) = below, above
    if p1 == p0:
        return a0
    return a0 + (threshold - p0) * (a1 - a0) / (p1 - p0)


def monotonically_non_increasing(values: List[float], tolerance: float = 1e-9) -> bool:
    """True when each value is <= the previous one (within tolerance)."""
    return all(b <= a + tolerance for a, b in zip(values, values[1:]))


def summarize_counts(counts: Dict[str, int]) -> str:
    """Compact 'k=v' rendering of a counter dict, sorted by key."""
    return ", ".join(f"{key}={counts[key]}" for key in sorted(counts))


def trace_replay_share(trace_replay: Mapping[str, object], committed_cycles: int) -> float:
    """Fraction of committed cycles the trace-replay controller fast-forwarded.

    ``trace_replay`` is the counter mapping the conventional engine attaches to
    results (``CoEmulationResult.trace_replay`` / ``RunRecord.trace_replay``).
    Engines without the controller report an empty mapping; those, disabled
    controllers and zero-cycle runs all yield ``0.0``.
    """
    if not trace_replay or committed_cycles <= 0:
        return 0.0
    return float(trace_replay.get("replayed_cycles", 0) or 0) / float(committed_cycles)


#: Ledger categories that are bookkeeping, not domain execution time.
NON_DOMAIN_CATEGORIES = frozenset({"state_store", "state_restore", "channel", "other"})


def domain_time_shares(per_cycle_times: Mapping[str, float]) -> Dict[str, float]:
    """Per-domain execution time per committed cycle, in ledger order.

    Every ledger category that is not synchronisation bookkeeping is a
    domain execution bucket (``simulator`` / ``accelerator`` for the
    canonical pair, one entry per domain id for multi-domain topologies).
    """
    return {
        category: seconds
        for category, seconds in per_cycle_times.items()
        if category not in NON_DOMAIN_CATEGORIES
    }


def per_domain_utilisation(per_cycle_times: Mapping[str, float]) -> Dict[str, float]:
    """Fraction of total modelled time each domain spends executing.

    The residual (1 - sum of the returned values) is synchronisation
    overhead: channel accesses plus state store/restore.  Zero-total inputs
    yield all-zero utilisations.
    """
    total = sum(per_cycle_times.values())
    if total <= 0:
        return {domain: 0.0 for domain in domain_time_shares(per_cycle_times)}
    return {
        domain: seconds / total
        for domain, seconds in domain_time_shares(per_cycle_times).items()
    }
