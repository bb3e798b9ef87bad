"""The conventional (conservative) co-emulation baseline.

With a conventional simulation accelerator the progress of the simulator and
accelerator is synchronised at every valid simulation time: each target cycle
requires one simulator-to-accelerator transfer and one accelerator-to-
simulator transfer, each paying the channel's static startup overhead.  The
paper reports 38.9 kcycles/s for this scheme with a 1,000 kcycles/s simulator
and 28.8 kcycles/s with a 100 kcycles/s simulator; the analytical and
mechanism-level models here reproduce those numbers.
"""

from __future__ import annotations

from typing import Optional

from .coemulation import CoEmulationConfig, CoEmulationEngineBase, CoEmulationResult
from .modes import OperatingMode
from .prediction import PredictionStats


class ConventionalCoEmulation(CoEmulationEngineBase):
    """Lock-step, cycle-by-cycle synchronisation of all topology domains.

    The scalar reference loop: one exchange per target cycle, nothing
    skipped.  The registered ``conventional`` engine
    (:class:`~repro.core.trace.ConventionalTraceCoEmulation`) extends it with
    quiescence fast-forward and trace replay and must match it bit for bit.
    """

    # No predictions are ever made, so conservative cycles skip the predictor
    # training bookkeeping entirely (host-side only; results are unchanged).
    observe_during_conservative = False

    def __init__(
        self,
        partition,
        acc_hbm=None,
        config: Optional[CoEmulationConfig] = None,
    ) -> None:
        super().__init__(partition, acc_hbm, config)

    def run(self) -> CoEmulationResult:
        """Run ``config.total_cycles`` target cycles in lock step.

        The loop counts *committed* cycles rather than iterations (each
        scalar conservative cycle commits exactly one), so a restored
        snapshot resumes with the remainder instead of re-running the total.
        """
        total = self.config.total_cycles
        stop = self.config.stop_when_workload_done
        ledger = self.ledger
        while ledger.committed_cycles < total:
            self._safe_point()
            self.run_conservative_cycle()
            if stop and self._workload_done():
                break
        return self._build_result(
            OperatingMode.CONSERVATIVE, prediction=PredictionStats(), lob={}
        )
