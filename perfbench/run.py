"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rollback_heavy --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer split.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (``# info: {...}``) records the seed, the
engines the requests resolved to, the number of timed passes, the raw
(not rescaled) host figures and the first failure reasons.  See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

from hostclock import CPUS, Stopwatch  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    conservative_references,
    gate_failures,
    modelled_totals,
    reference_key,
    sweep_argv,
    sweep_expected_beats,
    sweep_point_count,
)

#: Fresh processes timed per run for ``setup_s``, spread over ``CPUS``.
SETUP_PROBES = 6
#: Warm samples per pass, each serving at least this many points from the
#: cache: several rounds of the pass's requests, or several whole sweeps
#: (shorter samples spread more between runs).
WARM_SAMPLES = 3
WARM_SAMPLE_POINTS = 720
#: Worker processes of the timed cold sweep (the traced sweep uses 1).
SWEEP_JOBS = 2
#: A corrupted expected digest, used by the self-test to prove the gate bites.
WRONG_DIGEST = "0" * 16

#: ``(raw seconds, rescaled seconds)`` of one timed sample.
Sample = Tuple[float, float]


@dataclass
class Tally:
    """Attempted and failed requests, with the reasons and resolved engines."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    engines: Dict[str, List[str]] = field(default_factory=dict)

    def fail(self, label: str, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(f"{label}: {reason}")

    def check(self, label: str, record: Dict[str, Any], expected: Optional[str]) -> None:
        engines = self.engines.setdefault(record["mode"], [])
        if record["engine"] not in engines:
            engines.append(record["engine"])
        reasons = gate_failures(record, expected)
        if reasons:
            self.fail(label, "; ".join(reasons))


@dataclass
class Pass:
    """One timed pass: cold samples (one per timed unit), then warm samples."""

    #: The CPU the pass's warm samples ran on.
    cpu: int
    #: The CPU its cold samples ran on; None when they spread over a pool.
    cold_cpu: Optional[int]
    records: List[Dict[str, Any]]
    cycles: int
    cold_points: int
    cold: List[Optional[Sample]]
    #: ``(raw, rescaled, points served)`` per warm sample.
    warm: List[Tuple[float, float, int]]


@dataclass
class Outcome:
    """What one run measured, before it is rendered as JSON."""

    metrics: Dict[str, float]
    tally: Tally
    info: Dict[str, Any]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def _per_cpu_mean(values: Sequence[Tuple[int, float]]) -> float:
    """The mean over CPUs of each CPU's median of ``(cpu, value)`` pairs.

    A run spreads its samples over every CPU in turn (see ``hostclock.CPUS``);
    each CPU then weighs the same, however many samples landed on it.
    """
    by_cpu: Dict[int, List[float]] = {}
    for cpu, value in values:
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.fmean(_median(group) for group in by_cpu.values())


def _host_metrics(passes: List[Pass], column: int) -> Dict[str, float]:
    """Host metrics from the raw (``column=0``) or rescaled (``1``) samples.

    Passes are grouped by the CPU their samples ran on, each group gives its
    own figure and the figures are averaged over groups, so every CPU weighs
    the same however many passes landed on it.  Cold sweeps that fork a pool
    are not pinned and form one group.
    """
    cold_rate = statistics.fmean(
        _passes_per_second(group, column) for group in _by_cpu(passes, "cold_cpu")
    )
    return {
        "host_kcycles_per_s": cold_rate * passes[0].cycles / 1000.0,
        "points_per_s_cold": cold_rate * passes[0].cold_points,
        "points_per_s_warm": statistics.fmean(
            _warm_rate(group, column) for group in _by_cpu(passes, "cpu")
        ),
    }


def _by_cpu(passes: List[Pass], attribute: str) -> List[List[Pass]]:
    groups: Dict[Optional[int], List[Pass]] = {}
    for p in passes:
        groups.setdefault(getattr(p, attribute), []).append(p)
    return list(groups.values())


def _passes_per_second(passes: List[Pass], column: int) -> float:
    """Each timed unit's median over the passes, summed, inverted.

    A slow spell of the host lands in few samples of each unit and moves no
    median.
    """
    units = range(len(passes[0].cold))
    seconds = sum(
        _median([p.cold[i][column] for p in passes if p.cold[i] is not None]) for i in units
    )
    return _ratio(1.0, seconds)


def _warm_rate(passes: List[Pass], column: int) -> float:
    """All points served over all warm seconds, rescaled by the mean slowdown
    of the reference timings around the samples.

    A warm sample is short next to how fast the host's speed changes, so its
    own rescaling factor is noisy; on the reference container this ratio of
    totals spread by 8% between 10-second windows where the median of
    per-sample rescaled rates spread by 11%.
    """
    warm = [sample for p in passes for sample in p.warm]
    slowdown = 1.0 if column == 0 else statistics.fmean([s[0] / s[1] for s in warm])
    return _ratio(sum(s[2] for s in warm), sum(s[0] for s in warm)) * slowdown


def _modelled_metrics(records: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    cycles, modelled_seconds, accesses = modelled_totals(records)
    return {
        "modelled_kcycles_per_s": _ratio(cycles, modelled_seconds) / 1000.0,
        "channel_accesses_per_kcycle": _ratio(accesses * 1000.0, cycles),
    }


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def measure_setup(workload: Workload, seed: int, tiny: bool) -> Sample:
    """Raw and rescaled set-up seconds over fresh processes (see ``_per_cpu_mean``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for index in range(SETUP_PROBES):
        cpu = CPUS[index % len(CPUS)]
        command = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)]
        command.append(str(cpu))
        if tiny:
            command.append("--tiny")
        probe = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        raw, rescaled = probe.stdout.split()[-2:]
        samples.append((cpu, float(raw), float(rescaled)))
    return (
        _per_cpu_mean([(cpu, raw) for cpu, raw, _ in samples]),
        _per_cpu_mean([(cpu, rescaled) for cpu, _, rescaled in samples]),
    )


def _measured(passes: List[Pass], tally: Tally, info: Dict[str, Any]) -> Outcome:
    metrics = {**_host_metrics(passes, 1), **_modelled_metrics(passes[0].records)}
    info = {**info, "passes": len(passes), "raw": _host_metrics(passes, 0)}
    return Outcome(metrics, tally, info)


def _repeat_for(seconds: float, one_pass) -> List[Pass]:
    passes: List[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one_pass(len(passes), CPUS[len(passes) % len(CPUS)]))
    return passes


def _traced(tally: Tally, one_pass, jobs: int, info: Dict[str, Any]) -> Outcome:
    """Two untraced passes, then the same pass traced; returns the layer split.

    The first pass only warms the process up (lazy imports, the
    interpreter's specialisation), so the overhead ratio compares the
    traced pass with the second, steady one.
    """
    cpu = CPUS[0]
    one_pass(0, cpu)
    untraced = one_pass(1, cpu)
    with Tracer() as tracer:
        traced = one_pass(2, cpu)

    def busy(p: Pass) -> float:
        # Rescaled seconds: the two passes run at different moments.
        return sum(s[1] for s in p.cold if s is not None) + sum(s[1] for s in p.warm)

    summary = tracer.summary()
    metrics: Dict[str, float] = {}
    for metric, (calls, self_seconds) in summary.items():
        metrics[f"{metric}.calls"] = calls
        metrics[f"{metric}.s"] = self_seconds
    metrics["core.leader_cycles_per_committed"] = _ratio(
        summary["ahb.run_local_cycle"][0], traced.cycles
    )
    metrics["orchestration.cache_hit_ratio"] = _ratio(
        tracer.hit_count("orchestration.cache_get"), summary["orchestration.cache_get"][0]
    )
    metrics["bench.trace_overhead_ratio"] = _ratio(busy(traced), busy(untraced))
    metrics["bench.traced_jobs"] = jobs
    metrics["bench.absent_targets"] = len(tracer.absent)
    return Outcome(metrics, tally, {**info, "passes": 3, "absent_targets": tracer.absent})


# -- in-process workloads ------------------------------------------------------


class InProcessRun:
    """``rollback_heavy`` / ``lockstep_stream``: requests through ``execute_request``."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, corrupt: bool, work: Path):
        import repro.orchestration as orchestration

        # Calls go through the module attribute, so the tracer's wrappers
        # (installed on ``repro`` modules) see them.
        self.orchestration = orchestration
        self.requests = workload.requests(seed, tiny)
        self.work = work
        self.tally = Tally()
        self.watch = Stopwatch()
        self.expected = self._expected_beats(corrupt)
        self.first_digests: Optional[List[Optional[str]]] = None

    def _expected_beats(self, corrupt: bool) -> Dict[Any, Optional[str]]:
        """Beat digest of the conservative run of every distinct sizing (untimed)."""
        expected: Dict[Any, Optional[str]] = {}
        for key, request in conservative_references(self.requests).items():
            try:
                expected[key] = self.orchestration.execute_request(request).beat_digest
            except Exception as exc:  # dependants fail the gate for lack of it
                expected[key] = None
                self.tally.reasons.append(f"reference {request.display_label()}: {exc!r}")
        if corrupt:
            expected[next(iter(expected))] = WRONG_DIGEST
        return expected

    def one_pass(self, index: int, cpu: int) -> Pass:
        """Execute every request cold, cache the records, re-serve them warm."""
        self.watch.pin(cpu)
        orchestration = self.orchestration
        executed = []
        records: List[Dict[str, Any]] = []
        digests: List[Optional[str]] = []
        cold: List[Optional[Sample]] = []
        for request in self.requests:
            label = request.display_label()
            self.tally.attempted += 1
            try:
                record, raw, rescaled = self.watch.measure(orchestration.execute_request, request)
            except Exception as exc:
                self.tally.fail(label, f"raised {exc!r}")
                digests.append(None)
                cold.append(None)
                continue
            cold.append((raw, rescaled))
            executed.append(record)
            payload = record.as_dict()
            records.append(payload)
            digests.append(record.digest)
            key = reference_key(request.scenario, request.scenario_params, request.cycles)
            self.tally.check(label, payload, self.expected.get(key))
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            self.tally.fail(f"pass {index}", "records differ from the first pass")

        cache_dir = self.work / f"cache-{index}"
        orchestration.ResultCache(cache_dir).put_many(executed)

        serves = -(-WARM_SAMPLE_POINTS // len(self.requests))

        def serve() -> List[List[Optional[str]]]:
            return [
                [
                    record.digest
                    for record in orchestration.BatchRunner(jobs=1).run(
                        self.requests, cache=orchestration.ResultCache(cache_dir)
                    )
                ]
                for _ in range(serves)
            ]

        warm = []
        served_points = serves * len(self.requests)
        for _ in range(WARM_SAMPLES):
            self.tally.attempted += served_points
            served, raw, rescaled = self.watch.measure(serve)
            warm.append((raw, rescaled, served_points))
            for digests_served in served:
                if digests_served != digests:
                    self.tally.fail(f"pass {index} warm", "cached records differ", len(digests))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return Pass(
            cpu=cpu,
            cold_cpu=cpu,
            records=records,
            cycles=sum(payload["committed_cycles"] for payload in records),
            cold_points=len(self.requests),
            cold=cold,
            warm=warm,
        )


# -- catalog sweep ----------------------------------------------------------------


class SweepRun:
    """``catalog_sweep``: ``repro sweep`` in-process, cold then warm cache."""

    def __init__(self, seed: int, tiny: bool, corrupt: bool, work: Path, jobs: int):
        import repro.cli as cli

        self.cli = cli
        self.seed = seed
        self.tiny = tiny
        self.corrupt = corrupt
        self.work = work
        self.jobs = jobs
        self.points = sweep_point_count(tiny)
        self.tally = Tally()
        self.watch = Stopwatch(cpus=min(jobs, 2))
        self.first_store: Optional[bytes] = None

    def _main(self, cache: Path, store: Path) -> int:
        argv = sweep_argv(self.seed, self.tiny, self.jobs, str(cache), str(store))
        # The sweep table goes to stdout and cache statistics to stderr; the
        # benchmark's own stdout must end with its JSON line.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1

    def one_pass(self, index: int, cpu: int, warm_samples: int = WARM_SAMPLES) -> Pass:
        """One cold sweep into an empty cache, then ``warm_samples`` timed
        samples of several warm sweeps each, pinned to ``cpu``.  The cold
        sweep is pinned too when it runs with ``--jobs 1``."""
        if self.jobs == 1:
            self.watch.pin(cpu)
        cache = self.work / f"cache-{index}"
        cold_store = self.work / f"cold-{index}.jsonl"
        label = f"sweep pass {index}"
        self.tally.attempted += self.points
        code, raw, rescaled = self.watch.measure(self._main, cache, cold_store)
        records: List[Dict[str, Any]] = []
        if code != 0:
            self.tally.fail(label, f"main returned {code}", self.points)
        else:
            records = [json.loads(line) for line in cold_store.read_text().splitlines()]
            self._check(label, records)
        cold_bytes = cold_store.read_bytes() if cold_store.exists() else b""
        if self.first_store is None:
            self.first_store = cold_bytes
        elif cold_bytes != self.first_store:
            self.tally.fail(label, "store differs from the first pass's store", self.points)

        sweeps = -(-WARM_SAMPLE_POINTS // self.points)
        warm_stores = [self.work / f"warm-{index}-{k}.jsonl" for k in range(sweeps)]

        def serve() -> List[int]:
            return [self._main(cache, store) for store in warm_stores]

        warm: List[Tuple[float, float, int]] = []
        # Warm sweeps find every point cached and start no pool, so they are
        # timed pinned to one CPU like the in-process workloads; the pin is
        # undone before the next cold sweep forks its workers.
        with Stopwatch() as watch:
            watch.pin(cpu)
            for _ in range(warm_samples):
                self.tally.attempted += sweeps * self.points
                codes, warm_raw, warm_rescaled = watch.measure(serve)
                warm.append((warm_raw, warm_rescaled, sweeps * self.points))
                for warm_code, store in zip(codes, warm_stores):
                    if warm_code != 0:
                        self.tally.fail(
                            f"{label} warm", f"main returned {warm_code}", self.points
                        )
                    elif store.read_bytes() != cold_bytes:
                        self.tally.fail(
                            f"{label} warm", "warm store differs from cold store", self.points
                        )
        shutil.rmtree(cache, ignore_errors=True)
        return Pass(
            cpu=cpu,
            cold_cpu=cpu if self.jobs == 1 else None,
            records=records,
            cycles=sum(record["committed_cycles"] for record in records),
            cold_points=self.points,
            cold=[(raw, rescaled)],
            warm=warm,
        )

    def _check(self, label: str, records: List[Dict[str, Any]]) -> None:
        expected = sweep_expected_beats(records)
        if self.corrupt and expected:
            expected[next(iter(expected))] = WRONG_DIGEST
        for record in records:
            self.tally.check(
                f"{label} {record['label']}", record, expected.get(record["scenario"])
            )
        if len(records) != self.points:
            self.tally.fail(
                label,
                f"store holds {len(records)} of {self.points} records",
                abs(self.points - len(records)),
            )


# -- entry point ----------------------------------------------------------------


def declared_metrics(trace: bool) -> Dict[str, str]:
    """``name -> unit`` for the metrics ``BENCHMARK.json`` declares for this run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def _measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool,
    corrupt: bool,
    work: Path,
) -> Outcome:
    if not workload.is_sweep:
        run = InProcessRun(workload, seed, tiny, corrupt, work)
        with run.watch:
            if trace:
                return _traced(run.tally, run.one_pass, 1, {})
            passes = _repeat_for(seconds, run.one_pass)
        return _measured(passes, run.tally, {})
    # The traced sweep runs with --jobs 1 so every span lands in this
    # process; its untraced pass does too, so the overhead ratio compares
    # like with like.
    jobs = 1 if trace else SWEEP_JOBS
    sweep = SweepRun(seed, tiny, corrupt, work, jobs)
    with sweep.watch:
        if trace:
            return _traced(
                sweep.tally,
                lambda index, cpu: sweep.one_pass(index, cpu, 1),
                jobs,
                {"jobs": jobs, "note": "traced with --jobs 1"},
            )
        passes = _repeat_for(seconds, sweep.one_pass)
    return _measured(passes, sweep.tally, {"jobs": jobs})


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    corrupt: bool = False,
) -> Dict[str, Any]:
    """Measure one workload; returns ``{"info": ..., "result": ...}``.

    ``tiny`` shrinks every request for the self-test, and ``corrupt``
    replaces one expected beat digest with a wrong one so the self-test can
    show the correctness gate failing requests.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name]
    units = declared_metrics(trace)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = None if trace else measure_setup(workload, seed, tiny)
        outcome = _measure(workload, seed, seconds, trace, tiny, corrupt, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    tally = outcome.tally
    if setup is not None:
        outcome.metrics["setup_s"] = setup[1]
        outcome.info["raw"]["setup_s"] = setup[0]
        outcome.metrics["peak_rss_mb"] = _peak_rss_mb()
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            "measured metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(outcome.metrics))}, "
            f"undeclared {sorted(set(outcome.metrics) - set(units))}"
        )
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "engines": tally.engines,
        "failed_share": _ratio(tally.failed, tally.attempted),
        "failures": tally.reasons,
        **outcome.info,
    }
    return {
        "info": info,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                metric: {"value": outcome.metrics[metric], "unit": unit}
                for metric, unit in units.items()
            },
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        output = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ImportError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    print("# info: " + json.dumps(output["info"], sort_keys=True))
    print(json.dumps(output["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
