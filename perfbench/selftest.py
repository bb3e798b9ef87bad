"""Self-test of the benchmark at tiny sizing (about a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced and a traced run emit exactly
the metrics ``BENCHMARK.json`` declares, each with its declared unit and a
finite value, with no failed request; that a deliberately wrong expected
beat digest makes ``failed_share`` non-zero; and that the tracer reports a
target that does not exist as absent instead of crashing.  Exit status 0
means every check passed.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def check(condition: bool, message: str, problems: list) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {message}", flush=True)
    if not condition:
        problems.append(message)


def check_metrics(output: dict, trace: bool, label: str, problems: list) -> None:
    result = output["result"]
    declared = run.declared_metrics(trace)
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    check(emitted == declared, f"{label}: every declared metric emitted with its unit", problems)
    check(
        all(
            isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
            for metric in result["metrics"].values()
        ),
        f"{label}: every value is a finite number",
        problems,
    )
    check(
        result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
        f"{label}: {result['attempted']} attempted, {result['failed']} failed",
        problems,
    )


def main() -> int:
    problems: list = []
    for name in WORKLOADS:
        print(f"{name}:", flush=True)
        for trace in (False, True):
            output = run.run_workload(name, SEED, 0, trace, tiny=True)
            check_metrics(output, trace, "traced" if trace else "untraced", problems)
            if trace:
                check(
                    output["result"]["metrics"]["bench.absent_targets"]["value"] == 0,
                    "traced: every tracer target exists",
                    problems,
                )
        corrupted = run.run_workload(name, SEED, 0, False, tiny=True, corrupt=True)
        check(
            corrupted["result"]["failed"] > 0
            and not corrupted["result"]["correct"]
            and corrupted["info"]["failed_share"] > 0,
            f"wrong expected beat digest: failed_share {corrupted['info']['failed_share']:.4f}",
            problems,
        )

    print("tracer:")
    missing = (
        Target("gone.module", "repro.no_such_module", "function"),
        Target("gone.method", "repro.cli", "NoSuchClass.method"),
        Target("gone.function", "repro.cli", "no_such_function"),
    )
    tracer = Tracer(missing)
    with tracer:
        pass
    check(
        tracer.absent == [target.metric for target in missing]
        and tracer.summary() == {target.metric: (0, 0.0) for target in missing},
        "missing targets reported as absent",
        problems,
    )

    print("self-test passed" if not problems else f"{len(problems)} check(s) failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
