"""Check that the benchmark is steady enough to judge a change by.

Usage (from the repository root)::

    python3 perfbench/steady.py

Runs ``perfbench/run.py`` exactly as ``BENCHMARK.json`` says, once for each
of seeds 1-10 on every workload, and prints for each end-to-end metric its
median and its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
of a third of the metric's bound or more fails.  The spread of ``setup_s``
is printed but not judged: a set-up time is only required not to drift
between sets of runs by more than its bound.

It then repeats the first seed, untraced and traced twice, and requires
the deterministic values to be identical: ``modelled_kcycles_per_s``,
``channel_accesses_per_kcycle`` and every traced ``.calls`` count.  A
difference there is a failure, not noise.  Exit status 0 means steady.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("modelled_kcycles_per_s", "channel_accesses_per_kcycle")
SEEDS = list(range(1, 11))


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    command = [
        *config["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def check_workload(config: dict, workload: str, seeds: List[int]) -> List[str]:
    problems: List[str] = []
    runs = []
    for seed in seeds:
        result = run_once(config, workload, seed, 0)
        runs.append(result)
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} seed {seed}: {result['failed']} failed")
        print(f"  seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
        ), flush=True)
    for metric in config["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        share = spread(values)
        limit = metric["bound"] / 3
        judged = name != "setup_s"
        verdict = "ok" if share < limit or not judged else "TOO WIDE"
        print(
            f"  {name:28s} median {statistics.median(values):12.6g} {metric['unit']:16s}"
            f" spread {share:7.2%} (limit {limit:.2%}{'' if judged else ', not judged'})"
            f" {verdict}"
        )
        if verdict != "ok":
            problems.append(f"{workload} {name}: spread {share:.2%} >= {limit:.2%}")

    seed = seeds[0]
    before = len(problems)
    repeat = run_once(config, workload, seed, 0)
    for name in DETERMINISTIC:
        first, again = runs[0]["metrics"][name]["value"], repeat["metrics"][name]["value"]
        if first != again:
            problems.append(f"{workload} {name} differs on seed {seed}: {first} != {again}")
    traced = [run_once(config, workload, seed, 1)["metrics"] for _ in range(2)]
    calls: Dict[str, List[float]] = {
        name: [run[name]["value"] for run in traced] for name in traced[0] if name.endswith(".calls")
    }
    for name, values in calls.items():
        if values[0] != values[1]:
            problems.append(f"{workload} {name} differs on seed {seed}: {values}")
    print(
        f"  repeat of seed {seed}: deterministic metrics and {len(calls)} call counts "
        f"{'identical' if len(problems) == before else 'DIFFER'}; trace overhead "
        f"{traced[0]['bench.trace_overhead_ratio']['value']:.2f}x"
    )
    return problems


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []
    for workload in config["workloads"]:
        name = workload["name"]
        print(f"{name}: seeds {SEEDS[0]}..{SEEDS[-1]}, {config['run_seconds']} s each", flush=True)
        problems += check_workload(config, name, SEEDS)
    for problem in problems:
        print(f"NOT STEADY: {problem}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
