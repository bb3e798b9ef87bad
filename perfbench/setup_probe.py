"""Time one workload's set-up in a fresh process and print the seconds.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED CPU [--tiny]`` with
``src`` on ``PYTHONPATH``; the probe runs pinned to ``CPU``.  The clock
starts before the first ``repro`` import and stops once the first scenario
and engine are built (in-process workloads) or the sweep's CLI parser and
request grid are (catalog sweep).  Prints the raw and the rescaled seconds
(see ``hostclock.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostclock import Stopwatch  # noqa: E402
from workloads import WORKLOADS, sweep_argv  # noqa: E402


def set_up(workload, seed: int, tiny: bool) -> None:
    if workload.is_sweep:
        from repro.cli import build_parser
        from repro.orchestration import grid_requests

        args = build_parser().parse_args(sweep_argv(seed, tiny))
        grid_requests(
            scenarios=args.scenarios,
            modes=args.modes,
            accuracies=args.accuracies,
            lob_depths=args.lob_depths,
            cycles=args.cycles,
            base_seed=args.seed,
        )
    else:
        from repro.orchestration.request import build_request_engine

        build_request_engine(workload.requests(seed, tiny)[0])


def main(argv) -> int:
    with Stopwatch() as watch:
        watch.pin(int(argv[2]))
        _, raw, rescaled = watch.measure(
            set_up, WORKLOADS[argv[0]], int(argv[1]), "--tiny" in argv[3:]
        )
    print(f"{raw:.9f} {rescaled:.9f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
